"""Flat key-value configuration and scenario files.

Both file kinds use ``key = value`` lines, ``#`` comments, and blank lines.
Pipeline config keys are documented in the README; scenario files describe
a simulated world (waypoints, transmitters or an auto-placement recipe,
propagation parameters).

Each key names one constructor keyword (CONFIG_FIELDS, SCENARIO_FIELDS) and
only the keys present in a file are passed on, so every default is written
once, in the constructor that owns it, and every value is checked there:
configuration objects raise ConfigError, per-call inputs ValueError.
"""

from __future__ import annotations

import math

from .ekf import NoiseConfig
from .errors import ConfigError
from .pathloss import PathLossParams
from .pipeline import PipelineConfig
from .simulator import Scenario, Transmitter, auto_scenario
from .smoothing import SmootherConfig
from .sweeps import BandPlan


def parse_kv_file(path) -> dict[str, str]:
    """Read ``key = value`` pairs; duplicate keys are an error."""
    values: dict[str, str] = {}
    try:
        # a byte that is not UTF-8 decodes to a lone surrogate, which cannot encode back
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{path}:{line_no}: not UTF-8 text") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _numbers(key: str, text: str, count: int | None) -> list[float]:
    values = [_float(key, part) for part in text.split(",")]
    if count is not None and len(values) != count:
        raise ConfigError(f"{key}: expected {count} comma-separated numbers, got {text.strip()!r}")
    return values


# a reader's result that leaves the constructor's default in place
_DEFAULT = object()


def _list(count: int | None = None, convert=tuple):
    """Reader of one comma-separated list; an empty value keeps the default."""
    return lambda key, text: convert(_numbers(key, text, count)) if text else _DEFAULT


def _points(count: int, convert=tuple):
    """Reader of ';'-separated lists of ``count`` numbers each."""
    return lambda key, text: tuple(convert(_numbers(key, chunk, count)) for chunk in text.split(";"))


# key -> (object, constructor keyword, reader)
CONFIG_FIELDS = {
    "band.low_mhz": ("plan", "low_mhz", _float),
    "band.high_mhz": ("plan", "high_mhz", _float),
    "band.width_mhz": ("plan", "width_mhz", _float),
    "band.count": ("pipeline", "band_count", _int),
    "sweep.window": ("pipeline", "sweep_window", lambda key, text: _int(key, text) or None),
    "n_pl": ("pathloss", "exponent", _float),
    "tx_power_dbm": ("pathloss", "tx_power_dbm", _float),
    "smoother.window": ("smoother", "window", _int),
    "smoother.weights": ("smoother", "weights", _list()),
    "ekf.q_diag": ("noise", "q", _list(2, lambda d: ((d[0], 0.0), (0.0, d[1])))),
    "ekf.r": ("noise", "r", _float),
    "anchor.seed": ("pipeline", "anchor_seed", _int),
    "anchor.bbox": ("pipeline", "anchor_bbox", _list(4)),
}

SCENARIO_FIELDS = {
    "seed": ("scenario", "seed", _int),
    "speed_mps": ("scenario", "speed_mps", _float),
    "cadence_s": ("scenario", "cadence_s", _float),
    "hold_s": ("scenario", "hold_s", _float),
    "lead_in_m": ("scenario", "lead_in_m", _float),
    "n_pl": ("pathloss", "exponent", _float),
    "shadowing_sigma_db": ("scenario", "shadowing_sigma_db", _float),
    "waypoints": ("scenario", "waypoints", _points(2)),
    "transmitters": ("scenario", "transmitters", _points(4, Transmitter._make)),
    "tx.bbox": ("tx", "bbox", _list(4)),
    "tx.freqs_mhz": ("tx", "freqs_mhz", _list()),
    "tx.power_dbm": ("tx", "power_dbm", _float),
}


def _keywords(values: dict[str, str], table: dict, kind: str) -> dict[str, dict]:
    """Constructor keywords of the keys present, grouped by the object they build."""
    unknown = set(values) - set(table)
    if unknown:
        raise ConfigError(f"unknown {kind} keys: {', '.join(sorted(unknown))}")
    groups: dict[str, dict] = {target: {} for target, _, _ in table.values()}
    for key, text in values.items():
        target, keyword, read = table[key]
        value = read(key, text)
        if value is not _DEFAULT:
            groups[target][keyword] = value
    return groups


def config_from_values(values: dict[str, str]) -> PipelineConfig:
    groups = _keywords(values, CONFIG_FIELDS, "config")
    return PipelineConfig(
        plan=BandPlan.uniform(**groups["plan"]),
        pathloss=PathLossParams(**groups["pathloss"]),
        smoother=SmootherConfig(**groups["smoother"]),
        noise=NoiseConfig(**groups["noise"]),
        **groups["pipeline"],
    )


def load_config(path=None) -> PipelineConfig:
    """The config of a file, or the defaults when ``path`` is None."""
    return config_from_values({} if path is None else parse_kv_file(path))


def scenario_from_values(values: dict[str, str]) -> Scenario:
    groups = _keywords(values, SCENARIO_FIELDS, "scenario")
    fields, tx = groups["scenario"], groups["tx"]
    if "waypoints" not in fields:
        raise ConfigError("scenario needs a 'waypoints' entry")
    fields["pathloss"] = PathLossParams(**groups["pathloss"])
    if "transmitters" in fields:
        recipe = sorted(key for key in values if key.startswith("tx."))
        if recipe:  # one layout per file: neither silently wins
            raise ConfigError(f"scenario sets both 'transmitters' and {', '.join(recipe)}; keep one layout")
        return Scenario(**fields)
    if "freqs_mhz" not in tx:
        raise ConfigError("scenario needs 'transmitters' or 'tx.freqs_mhz'")
    if "bbox" not in tx:
        raise ConfigError("tx.bbox: expected xmin,ymin,xmax,ymax")
    # Scenario.seed is the dataclass's own default
    return auto_scenario(seed=fields.pop("seed", Scenario.seed), **tx, **fields)


def load_scenario(path, seed: int | None = None) -> Scenario:
    """The scenario of a file; ``seed``, unless None, replaces the file's seed."""
    values = parse_kv_file(path)
    if seed is not None:
        values["seed"] = str(seed)
    return scenario_from_values(values)
