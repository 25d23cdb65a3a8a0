"""Exception types shared across the fusion pipeline, and the one check
of a number, or a list of numbers, read from an input file."""

import math
import numbers


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


class TooFewSamples(FusionError):
    """Track or sample too short for the requested statistic."""


class TooFewInliers(FusionError):
    """Not enough inliers left to fit the smoothing polynomial."""


class LengthMismatch(FusionError):
    """Paired series have different lengths."""


class InvalidSpec(FusionError, ValueError):
    """Scene specification failed validation."""


class EmptySequence(FusionError, ValueError):
    """A sequence directory contains no frames."""


class ConfigError(FusionError):
    """Pipeline configuration missing or inconsistent."""


def check_number(name, value, *, integer=False, at_least=None, above=None,
                 at_most=None, below=None, error=ValueError) -> None:
    """Raise error naming name unless value is a number within the bounds.

    A number is a finite numbers.Real and an integer a numbers.Integral
    (so numpy scalars pass); a bool is neither.
    """
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (at_least is None or value >= at_least)
            and (above is None or value > above)
            and (at_most is None or value <= at_most)
            and (below is None or value < below)):
        return
    kind = "an integer" if integer else "a finite number"
    limits = " and ".join(f"{op} {bound}" for op, bound in (
        (">=", at_least), (">", above), ("<=", at_most), ("<", below))
        if bound is not None)
    raise error(f"{name} must be {kind}{limits and ' ' + limits}, "
                f"got {value!r}")


def check_numbers(name, values, what="a list of numbers", size=None, *,
                  error=ValueError) -> None:
    """Raise error unless values is a list or tuple of numbers (size of
    them when size is given) by check_number's rule; what describes that
    list in the message."""
    if not (isinstance(values, (list, tuple))
            and size in (None, len(values))):
        raise error(f"{name} is {values!r}, not {what}")
    for i, value in enumerate(values):
        check_number(f"{name}[{i}]", value, error=error)
