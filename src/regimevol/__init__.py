"""Structural-break detection and regime-switching models for volatility series.

The package reproduces a full analysis chain: raw closing prices are turned
into log returns and rolling realized volatility; the prices are tested for a
unit root around a known structural break (Perron detrending plus a
Phillips-Perron test); the volatility series is tested for smooth-transition
nonlinearity (Taylor-expansion auxiliary regressions); and AR, SETAR,
LSTAR/ESTAR and neural autoregressive models are estimated and ranked by
AIC, BIC and MAPE.
"""

from .errors import (
    AllZeroActuals,
    BreakOutOfRange,
    DimensionMismatch,
    EmptyFile,
    ExplosivePath,
    InvalidDf,
    IoError,
    NoConvergence,
    NoFeasibleThreshold,
    NonFiniteLoss,
    NonFiniteResidual,
    NonPositivePrice,
    OrderTooLarge,
    ParseError,
    PipelineError,
    RankDeficient,
    RegimevolError,
    SeriesTooShort,
    SingularJacobian,
    TooShort,
    WindowTooLarge,
    WindowTooSmall,
    ZeroRss,
)
from .series import (
    PriceSeries,
    ReturnSeries,
    VolatilitySeries,
    lag_design,
    log_returns,
    realized_volatility,
)
from .regression import (
    FTestResult,
    NlsFit,
    OlsFit,
    TTestResult,
    f_test,
    nls_fit,
    ols_fit,
    t_pvalue,
)
from .stationarity import (
    BreakDummies,
    NULL_BREAK,
    PerronDetrendResult,
    PhillipsPerronResult,
    TREND_BREAK,
    build_dummies,
    perron_detrend,
    phillips_perron,
)
from .linearity import (
    LinearityTestReport,
    taylor_transition_approx,
    terasvirta_first_order,
    terasvirta_zero_order,
)
from .regimes import (
    GammaGrid,
    RegimeModel,
    ThresholdVariable,
    TransitionSpec,
    exponential_transition,
    fit_ar,
    fit_lstar,
    fit_setar,
    logistic_transition,
    one_step_fitted,
    select_ar_order,
    simulate,
)
from .neural import (
    NnetArModel,
    NnetFitResult,
    TrainConfig,
    forward,
    gradient,
    train_nnet_ar,
)
from .selection import ComparisonReport, ModelScore, aic, bic, compare, mape
from .pipeline import ModelRequest, PipelineConfig, run_pipeline
from .dataio import emit_plot_data, ingest

__version__ = "0.1.0"
