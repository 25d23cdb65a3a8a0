"""Exception types shared across the fusion pipeline."""


class FusionError(Exception):
    """Base class for all probfusion errors."""


class CalibrationError(FusionError, ValueError):
    """Calibration file invalid (bad rotation, nonzero distortion, ...)."""


class InsufficientPoints(FusionError):
    """Fewer points than a sampler or fitter needs."""


class NoAcceptablePlane(FusionError):
    """RANSAC exhausted its trials without meeting the inlier floor."""


class EmptyInput(FusionError):
    """An operation that needs at least one element got none."""


class NoQualifiedCluster(FusionError):
    """No histogram peak passed the count / ratio thresholds."""


class DegenerateCluster(FusionError):
    """Too few distinct 2-D points for PCA or a descriptor."""


class EmptyCluster(FusionError):
    """Localization requested on a cluster with no members."""


class OriginPoint(FusionError):
    """Azimuth undefined for a point at the planar origin."""


class TooFewSamples(FusionError):
    """Track or sample too short for the requested statistic."""


class TooFewInliers(FusionError):
    """Not enough inliers left to fit the smoothing polynomial."""


class LengthMismatch(FusionError):
    """Paired series have different lengths."""


class UnknownClass(FusionError):
    """A class label has no configured parameters."""


class InvalidSpec(FusionError, ValueError):
    """Scene specification failed validation."""


class EmptySequence(FusionError, ValueError):
    """A sequence directory contains no frames."""


class ConfigError(FusionError):
    """Pipeline configuration missing or inconsistent."""
