"""What ``import regimevol`` loads, and that a run loads nothing after it.

The runtime needs numpy alone: scipy took most of the import time.  A module
first imported during a run (numpy loads ``numpy.random`` and ``numpy.ma``
lazily, for example) would land inside a caller's timed or memory-traced
work, so everything a run needs is loaded by the import.
"""

import json
import subprocess
import sys

from tests.test_cli import synthetic_prices, write_price_csv

CHILD = """
import json, sys

import numpy as np

import regimevol
from regimevol import PipelineConfig, TrainConfig, fit_ar, run_pipeline, simulate, train_nnet_ar

loaded = set(sys.modules)
scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))

generator = fit_ar(np.cos(0.3 * np.arange(80.0)) + 0.01 * np.arange(80.0), 1)
x = simulate(generator, 120, 0.1, seed=1)
train_nnet_ar(x, 1, 2, TrainConfig(restarts=2))
run_pipeline(PipelineConfig(
    input_path=sys.argv[1], break_index=60, volatility_window=10, ar_max_order=4,
    output_dir=sys.argv[2],
))
print(json.dumps({"scipy": scipy, "gained": sorted(set(sys.modules) - loaded)}))
"""


def test_import_loads_no_scipy_and_a_run_loads_nothing_new(tmp_path):
    prices = write_price_csv(tmp_path / "prices.csv", synthetic_prices(n=120, break_at=60))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, prices, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"scipy": [], "gained": []}
