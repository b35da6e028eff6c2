import numpy as np
import pytest

from regimevol import EmptyFile, ParseError, TransitionSpec, ingest, simulate
from regimevol.dataio import (
    emit_plot_data,
    load_model_json,
    model_from_dict,
    model_to_dict,
    read_series_csv,
    write_json,
    write_series_csv,
)
from regimevol.neural import NnetArModel
from regimevol.regimes import LAGGED_VALUE, TIME, ThresholdVariable, fit_setar, fit_lstar
from tests.conftest import make_regime_model


def write_prices(path, rows):
    path.write_text("date,close\n" + "\n".join(rows) + "\n")
    return str(path)


class TestIngest:
    def test_well_formed_file(self, tmp_path):
        p = write_prices(tmp_path / "ok.csv", ["2020-01-01,10.5", "2020-01-02,10.7", "2020-01-03,10.6"])
        series = ingest(p)
        assert len(series) == 3
        assert series.values.tolist() == [10.5, 10.7, 10.6]

    def test_negative_price_names_line(self, tmp_path):
        p = write_prices(tmp_path / "neg.csv", ["2020-01-01,10.5", "2020-01-02,-3.0"])
        with pytest.raises(ParseError, match="line 3"):
            ingest(p)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("day,price\n2020-01-01,10.0\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest(str(path))

    def test_bad_date_and_bad_close(self, tmp_path):
        p = write_prices(tmp_path / "d.csv", ["2020-13-01,10.5"])
        with pytest.raises(ParseError, match="line 2"):
            ingest(p)
        p = write_prices(tmp_path / "c.csv", ["2020-01-01,ten"])
        with pytest.raises(ParseError, match="line 2"):
            ingest(p)

    def test_non_increasing_dates(self, tmp_path):
        p = write_prices(tmp_path / "dup.csv", ["2020-01-02,10.5", "2020-01-02,10.6"])
        with pytest.raises(ParseError, match="line 3"):
            ingest(p)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("date,close\n")
        with pytest.raises(EmptyFile):
            ingest(str(path))

    def test_500_row_file(self, tmp_path):
        import datetime as dt

        rows = [
            f"{dt.date(2005, 1, 1) + dt.timedelta(days=i)},{20 + 0.01 * i:.4f}"
            for i in range(500)
        ]
        series = ingest(write_prices(tmp_path / "long.csv", rows))
        assert len(series) == 500


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        values = np.array([0.1, 0.25, -0.3])
        path = tmp_path / "s.csv"
        write_series_csv(path, values)
        assert read_series_csv(path).tolist() == values.tolist()

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,value\n1,0.5\n2,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,value\n1,0.5\n2,{cell}\n3,0.7\n")
        with pytest.raises(ParseError, match="line 3"):
            read_series_csv(path)


class TestModelJson:
    def test_regime_model_round_trip(self, setar_generator, tmp_path):
        x = simulate(setar_generator, 400, 0.1, seed=0)
        m = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        payload = model_to_dict(m)
        path = tmp_path / "m.json"
        write_json(path, payload)
        again = load_model_json(path)
        assert again.kind == "setar"
        assert np.array_equal(again.thresholds, m.thresholds)
        for a, b in zip(again.regimes, m.regimes):
            assert np.array_equal(a, b)
        # the reloaded record simulates and predicts
        sims = simulate(again, 50, 0.1, seed=1)
        assert len(sims) == 50

    @pytest.mark.parametrize("generator", ["setar_generator", "lstar_lagged_generator"])
    def test_file_without_proportions_simulates_the_same_path(self, generator, request, tmp_path):
        # a hand-written file need not hold the proportions, a fit diagnostic
        payload = model_to_dict(request.getfixturevalue(generator))
        with_props = tmp_path / "with.json"
        write_json(with_props, payload)
        del payload["regime_proportions"]
        without = tmp_path / "without.json"
        write_json(without, payload)
        bare = load_model_json(without)
        assert bare.regime_proportions.size == 0
        expected = simulate(load_model_json(with_props), 200, 0.1, seed=4)
        assert np.array_equal(simulate(bare, 200, 0.1, seed=4), expected)

    def test_nnet_model_round_trip(self):
        m = NnetArModel(1, 2, 0.3, np.array([0.5, -0.2]), np.array([0.1, 0.9]), np.array([[1.0, -1.0]]))
        again = model_from_dict(model_to_dict(m))
        assert np.array_equal(again.to_vector(), m.to_vector())


class TestEmitPlotData:
    def test_volatility_series_two_columns(self, tmp_path):
        from regimevol import ReturnSeries, realized_volatility

        r = ReturnSeries(values=np.random.default_rng(0).normal(0, 0.01, 100), origin_length=101)
        v = realized_volatility(r, 10)
        path = tmp_path / "vol.csv"
        write_series_csv(path, v)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) - 1 == len(v)

    def test_setar_regime_column(self, tmp_path):
        gen = make_regime_model(
            "setar",
            [[0.2, 0.5], [0.0, 0.7], [-0.2, 0.5]],
            thresholds=[140.0, 280.0],
            tv=ThresholdVariable(TIME),
        )
        x = simulate(gen, 420, 0.1, seed=1)
        m = fit_setar(x, 1, 3, ThresholdVariable(TIME))
        path = tmp_path / "fit.csv"
        emit_plot_data(m, path, series=x)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        regimes = np.array([int(r[-1]) for r in rows])
        assert sorted(set(regimes.tolist())) == [0, 1, 2]
        counts = np.bincount(regimes, minlength=3) / len(regimes)
        assert counts == pytest.approx(m.regime_proportions, abs=1e-12)

    def test_lstar_weight_column_in_unit_interval(self, tmp_path, lstar_lagged_generator):
        x = simulate(lstar_lagged_generator, 300, 0.1, seed=2)
        m = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1))
        path = tmp_path / "fit.csv"
        emit_plot_data(m, path, series=x)
        header, *rows = path.read_text().strip().splitlines()
        assert header.endswith("weight1")
        weights = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.all((weights > 0) & (weights < 1))
