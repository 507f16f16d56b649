"""Exception types shared across the package."""


class FactorDescentError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FactorDescentError, ValueError):
    """Malformed config file, flag value or experiment configuration: bad
    usage, found before any run."""


class InvalidMatrixError(FactorDescentError, ValueError):
    """A matrix argument is malformed: not 2-d, empty, not finite, not tall
    where a factor is needed, or not symmetric where a target is."""


class ShapeMismatchError(FactorDescentError, ValueError):
    """Two matrices that must share a shape do not."""


class ZeroMatrixError(FactorDescentError, ValueError):
    """An operation that needs a nonzero matrix received a (numerically) zero one."""


class DegenerateProblemError(FactorDescentError, ValueError):
    """Problem data make a formula undefined, e.g. a vanishing step denominator."""


class ZeroGradientError(FactorDescentError, ValueError):
    """An adaptive step was requested at a point with vanishing gradient."""


class NegativeEstimateError(FactorDescentError, ValueError):
    """An estimated squared distance came out negative."""


class MissingGroundTruthError(FactorDescentError, ValueError):
    """The operation needs the ground-truth factor, which is absent."""


class NumericalBlowupError(FactorDescentError, ArithmeticError):
    """An update produced non-finite entries."""
