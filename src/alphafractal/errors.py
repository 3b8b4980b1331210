"""Exception types raised across the package."""


class AlphaFractalError(Exception):
    """Base class for every package-specific error."""


class ConfigError(AlphaFractalError):
    """Malformed configuration, manifest, or data file."""


class OutputError(AlphaFractalError):
    """An output file could not be written."""


class NonMonotoneKnots(AlphaFractalError):
    """Knot vector is not strictly increasing."""


class TooFewKnots(AlphaFractalError):
    """Fewer than three knots: a single interval forces a_1 = 1, breaking contractivity."""


class ScalingNotContractive(AlphaFractalError):
    """Estimated sup-norm of the scaling functions is >= 1."""


class EndpointMismatch(AlphaFractalError):
    """A base's endpoints or the data given at the knots differ from the germ."""


class LipConditionViolated(AlphaFractalError):
    """Lipschitz-mode hypothesis max_i ||alpha_i||_d / a_i^d < 1/2 fails."""


class OutOfDomain(AlphaFractalError):
    """Evaluation point lies outside the partition interval."""


class PerturbationTooLarge(AlphaFractalError):
    """Perturbed scaling is no longer contractive, or a perturbation parameter is out of range."""


class GridMismatch(AlphaFractalError):
    """Sampled-function grid differs from the expected evaluation grid."""


class NotValidated(AlphaFractalError):
    """Configuration failed validation; evaluator operations refuse to run."""


class DepthZero(AlphaFractalError):
    """An evaluator (backward trajectory or series) requires depth >= 1."""


class EmptyGrid(AlphaFractalError):
    """Norm estimation requires a non-empty grid (two points for seminorms)."""


class BadExponent(AlphaFractalError):
    """Holder exponent d must lie in (0, 1]."""


class DegeneratePair(AlphaFractalError):
    """A trial pair is too close to measure a ratio."""


class PartitionMismatch(AlphaFractalError):
    """Operation requires both configurations to share one partition and grid."""


class ScalingMismatch(AlphaFractalError):
    """Operation requires both configurations to share one scaling sequence."""


class CapViolated(AlphaFractalError):
    """A scaling sequence exceeds the declared common cap."""


class KnotCountMismatch(AlphaFractalError):
    """Partition comparison requires equal knot counts."""
