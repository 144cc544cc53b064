"""Exception types shared across the package, and the integer check of a setting."""

from numbers import Integral


class SweepNavError(Exception):
    """Base class for all sweepnav errors."""


class InputError(SweepNavError, ValueError):
    """An input file is unreadable or malformed."""


class SweepParseError(InputError):
    """A sweep CSV line could not be parsed; ``path`` names the file when known."""

    def __init__(self, line_no: int, message: str, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message


class ShapeError(SweepNavError, ValueError):
    """Trajectory, truth and waypoints do not fit together."""


class MissingBandError(SweepNavError):
    """Requested band has no samples anywhere in the window."""


class InsufficientAnchorsError(SweepNavError):
    """Fewer usable transmitter bands than the multilateration minimum."""


class DegenerateGeometryError(SweepNavError):
    """Anchor geometry too ill-conditioned to produce a position fix."""


class SingularGeometryError(SweepNavError):
    """Receiver and landmark coincide, so the range direction is undefined."""


class FilterDivergenceError(SweepNavError):
    """The tracker's covariance stopped being positive semi-definite mid-run."""


class PlacementError(SweepNavError):
    """Could not place points with the required minimum separation."""


class ConfigError(SweepNavError):
    """Invalid configuration value or configuration file."""


def config_int(name: str, value):
    """``value``, an integer (numpy's too), else ConfigError: a configured count or seed takes no fraction."""
    if not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value
