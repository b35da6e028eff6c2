"""Exception hierarchy shared by every module in the package."""


class RegimevolError(Exception):
    """Base class for all package errors."""


# --- series construction and transforms ---

class NonPositivePrice(RegimevolError):
    """A price level is zero or negative, so its logarithm is undefined."""


class TooShort(RegimevolError):
    """Input sequence has fewer observations than the operation needs."""


class WindowTooSmall(RegimevolError):
    """Rolling window must cover at least two observations."""


class WindowTooLarge(RegimevolError):
    """Rolling window exceeds the number of available observations."""


class OrderTooLarge(RegimevolError):
    """Autoregressive order leaves no usable rows."""


# --- regression engine ---

class RankDeficient(RegimevolError):
    """Design matrix columns are linearly dependent (condition number above 1e12)."""


class InvalidDf(RegimevolError):
    """Degrees of freedom must be positive integers."""


class SingularJacobian(RegimevolError):
    """Damped Gauss-Newton step failed even at maximum damping."""


class NonFiniteResidual(RegimevolError):
    """Residual function returned NaN or infinity at the starting point."""


class NoConvergence(RegimevolError):
    """An iterative evaluation, such as a continued fraction, did not converge within its cap."""


# --- structural break / unit root ---

class BreakOutOfRange(RegimevolError):
    """Break index must satisfy 1 < T_B < series length."""


class SeriesTooShort(RegimevolError):
    """Series too short for the requested statistic."""


# --- regime model estimation ---

class NoFeasibleThreshold(RegimevolError):
    """No candidate threshold keeps every regime above the minimum fraction."""


class ExplosivePath(RegimevolError):
    """Simulated path diverged (|X_t| exceeded 1e8)."""


# --- neural autoregression ---

class DimensionMismatch(RegimevolError):
    """Input dimensions do not match the network architecture."""


class NonFiniteLoss(RegimevolError):
    """Training loss became NaN or infinite."""


# --- model scoring ---

class ZeroRss(RegimevolError):
    """Information criteria are undefined for a zero residual sum of squares."""


class AllZeroActuals(RegimevolError):
    """MAPE is undefined when every actual value is zero."""


# --- ingestion / pipeline ---

class ParseError(RegimevolError):
    """A CSV row could not be parsed; the message names the line."""


class EmptyFile(RegimevolError):
    """Input file contains no data rows."""


class IoError(RegimevolError):
    """Artifact could not be written."""


class PipelineError(RegimevolError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage={stage}: {message}")
        self.stage = stage
