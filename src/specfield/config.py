"""Run configuration: a flat dotted-key text format and its validation.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored.  Nested structure is spelled with dots (density.x.base.hurst = 0.5).
Parsing validates the whole file and reports every problem with its line
number, not just the first; unknown and duplicate keys are errors.  A
command reads only the keys it uses, so a key it has no use for is an
unknown key, and the echo (metadata.txt) is exactly the keys the parse read,
every default resolved.

The seed is mandatory.  There is deliberately no wall-clock fallback: every
run must be replayable from its config alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .grids import FrequencyGrid, SpatialGrid, dyadic_frequency_grid, uniform_spatial_grid
from .norms import HolderNorm, SupNorm
from .spectral import (BandLimitedDensity, PerturbedDensity, PowerLawDensity,
                       ScaledDensity, SineModulation, SpectralDensity, SumDensity,
                       ZeroDensity, fractional_brownian_density)
from .verification import check_radii

COMMANDS = ("density-check", "simulate", "covariance", "verify-anderson",
            "verify-coupling", "verify-comparison", "estimate-hurst")

_TWO_DENSITY_COMMANDS = ("verify-coupling", "verify-comparison")
_BALL_COMMANDS = ("verify-anderson", "verify-comparison")
_KEY_RE = re.compile(r"^[a-z0-9_.-]+$")

_DEFAULT_MC_REPLICAS = {"verify-anderson": 10000, "verify-comparison": 10000,
                        "verify-coupling": 5000, "estimate-hurst": 100}
_DEFAULT_RESOLUTION = {"estimate-hurst": 4096}


class ConfigError(ValueError):
    """All validation problems of one config, each tagged with a line number."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.format_errors()))

    def format_errors(self):
        out = []
        for line, message in self.errors:
            where = f"line {line}" if line is not None else "config"
            out.append(f"{where}: {message}")
        return out


@dataclass(frozen=True)
class RunConfig:
    """One fully validated run: command, densities, grids, MC settings."""

    command: str
    master_seed: int
    densities: dict
    frequency_grid: FrequencyGrid
    spatial_grid: SpatialGrid | None  # None for commands that place no field on it
    norm: object                      # None for commands that use no norm
    output: str | None = None
    constant: float | None = None
    constant_auto: bool = False
    anderson_kind: str | None = None
    shift_kind: str | None = None
    shift_slope: float | None = None
    replicas: int = 1
    mc_replicas: int = 10000
    confidence: float = 0.99
    radii: tuple = ()
    radii_auto: bool = False
    radii_count: int = 5
    radii_span: float = 0.9
    pilot_replicas: int = 2000
    points: tuple = ()
    echo: str = field(default="", repr=False)


class _Reader:
    """Typed access to parsed key/value lines with error collection.

    `echo` records the canonical text of every value a getter resolves, given
    or defaulted: str for integers, repr for floats, the raw text for strings.
    `required` is the text after "missing <key>" when an absent key is an error.
    """

    def __init__(self, entries: dict):
        self.entries = entries            # key -> (raw value, line number)
        self.errors = []
        self.consumed = set()
        self.echo = {}

    def error(self, key_or_line, message):
        if isinstance(key_or_line, str):
            line = self.entries[key_or_line][1] if key_or_line in self.entries else None
        else:
            line = key_or_line
        self.errors.append((line, message))

    def has(self, key: str) -> bool:
        return key in self.entries

    def record(self, key: str, value):
        if value is not None:
            self.echo[key] = value if isinstance(value, str) else repr(value)
        return value

    def raw(self, key: str, required=None):
        if key in self.entries:
            self.consumed.add(key)
            return self.entries[key][0]
        if required is not None:
            self.errors.append((None, f"missing {key}{required}"))
        return None

    def string(self, key: str, default=None, choices=None, required=None):
        value = self.raw(key, required)
        if value is not None and choices is not None and value not in choices:
            self.error(key, f"{key} must be one of {', '.join(choices)}; got {value!r}")
            return None
        return self.record(key, default if value is None else value)

    def integer(self, key: str, default=None, minimum=None, maximum=None, required=None):
        raw = self.raw(key, required)
        if raw is None:
            return self.record(key, default)
        try:
            value = int(raw)
        except ValueError:
            self.error(key, f"{key} must be an integer, got {raw!r}")
            return None
        if minimum is not None and value < minimum:
            self.error(key, f"{key} must be >= {minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.error(key, f"{key} must be <= {maximum}, got {value}")
            return None
        return self.record(key, value)

    def floating(self, key: str, default=None, positive=False, required=None):
        raw = self.raw(key, required)
        if raw is None:
            return self.record(key, default)
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            self.error(key, f"{key} must be a finite number, got {raw!r}")
            return None
        if positive and not value > 0:
            self.error(key, f"{key} must be positive, got {value}")
            return None
        return self.record(key, value)

    def subkeys(self, prefix: str):
        dot = prefix + "."
        return [k for k in self.entries if k.startswith(dot)]

    def finish_unknown(self):
        for key in sorted(self.entries):
            if key not in self.consumed:
                self.error(key, f"unknown key {key}")


def _scan_lines(text: str):
    entries = {}
    errors = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, "expected 'key = value'"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            errors.append((lineno, f"malformed key {key!r}"))
            continue
        if not value:
            errors.append((lineno, f"empty value for {key}"))
            continue
        if key in entries:
            errors.append((lineno, f"duplicate key {key} (first on line {entries[key][1]})"))
            continue
        entries[key] = (value, lineno)
    return entries, errors


_FAMILIES = ("zero", "power-law", "perturbed", "band-limited", "sum", "scalar-multiple")


def _parse_density(reader: _Reader, prefix: str) -> SpectralDensity | None:
    """Build one density from the keys under `prefix.`; None on any error."""
    family = reader.string(f"{prefix}.family", choices=_FAMILIES,
                           required=f": density family is required "
                                    f"(one of {', '.join(_FAMILIES)})")
    if family is None:
        reader.consumed.update(reader.subkeys(prefix))
        return None

    dim = None
    if family in ("zero", "power-law", "band-limited"):
        dim = reader.integer(f"{prefix}.dimension", default=1)
        if dim not in (1, 2):
            reader.error(f"{prefix}.dimension", "dimension must be 1 or 2")
            dim = None

    if family == "zero":
        return None if dim is None else ZeroDensity(dim)

    if family == "power-law":
        hurst = reader.floating(f"{prefix}.hurst", required=" for the power-law family")
        scale = reader.floating(f"{prefix}.scale", positive=True)
        if dim is None or hurst is None:
            return None
        if not 0.0 < hurst < 1.0:
            reader.error(f"{prefix}.hurst", f"H must lie in (0,1), got {hurst}")
            return None
        if scale is not None:
            return PowerLawDensity(dim, hurst, scale)
        if reader.has(f"{prefix}.scale"):
            return None
        density = fractional_brownian_density(hurst, dim)
        reader.record(f"{prefix}.scale", density.scale)
        return density

    if family == "band-limited":
        inner = reader.floating(f"{prefix}.inner", default=0.0)
        outer = reader.floating(f"{prefix}.outer", required=" for the band-limited family")
        amplitude = reader.floating(f"{prefix}.amplitude", default=1.0)
        for key, value in (("inner", inner), ("amplitude", amplitude)):
            if value is not None and value < 0:
                reader.error(f"{prefix}.{key}", f"{key} must be nonnegative, got {value}")
                return None
        if None in (dim, inner, outer, amplitude):
            return None
        try:  # the rule inner < outer
            return BandLimitedDensity(dim, inner, outer, amplitude)
        except ValueError as exc:
            reader.error(f"{prefix}.outer", str(exc))
            return None

    if family == "perturbed":
        base = _parse_density(reader, f"{prefix}.base")
        offset = reader.floating(f"{prefix}.modulation.offset", required="")
        amplitude = reader.floating(f"{prefix}.modulation.amplitude", required="")
        frequency = reader.floating(f"{prefix}.modulation.frequency", default=1.0,
                                    positive=True)
        mod_scale = reader.floating(f"{prefix}.modulation.scale", default=1.0,
                                    positive=True)
        if None in (base, offset, amplitude, frequency, mod_scale):
            return None
        try:  # the rule offset >= |amplitude|
            modulation = SineModulation(offset, amplitude, frequency, mod_scale)
        except ValueError as exc:
            reader.error(f"{prefix}.modulation.offset", str(exc))
            return None
        return PerturbedDensity(base, modulation)

    if family == "sum":
        first = _parse_density(reader, f"{prefix}.first")
        second = _parse_density(reader, f"{prefix}.second")
        if first is None or second is None:
            return None
        if first.dimension != second.dimension:
            reader.error(f"{prefix}.family", "summands must share a dimension")
            return None
        return SumDensity(first, second)

    # scalar-multiple
    base = _parse_density(reader, f"{prefix}.base")
    factor = reader.floating(f"{prefix}.factor", required=" for the scalar-multiple family")
    if base is None or factor is None:
        return None
    if factor < 0:
        reader.error(f"{prefix}.factor", f"factor must be nonnegative, got {factor}")
        return None
    return ScaledDensity(base, factor)


def _constant(reader: _Reader, command: str, pair_check: bool):
    """(C, auto) from the constant key; a density-check pair defaults to auto."""
    raw = reader.raw("constant")
    if raw is None and not pair_check:
        reader.error(None, f"{command} needs constant = <positive C> or constant = auto "
                           "(auto estimates the smallest C on the grid)")
        return None, False
    if raw is None or raw == "auto":
        reader.record("constant", "auto")
        return None, True
    try:
        constant = float(raw)
    except ValueError:
        reader.error("constant", f"constant must be a positive number or auto, got {raw!r}")
        return None, False
    if not 0.0 < constant < math.inf:
        reader.error("constant", f"constant must be positive and finite, got {constant}")
        return None, False
    return reader.record("constant", constant), False


def _norm(reader: _Reader):
    """The norm of a ball-probability command; its parameters only for holder."""
    kind = reader.string("norm.kind", default="sup", choices=("sup", "holder"))
    if kind != "holder":
        return SupNorm() if kind == "sup" else None
    alpha = reader.floating("norm.alpha", required=": the holder norm requires alpha in (0, 1]")
    if alpha is None:
        return None
    try:
        return HolderNorm(alpha)
    except ValueError as exc:
        reader.error("norm.alpha", str(exc))
        return None


def _radii(reader: _Reader, command: str, fields: dict):
    """mc.radii, fixed or auto; the pilot settings exist only for auto."""
    raw = reader.raw("mc.radii")
    if raw is None:
        reader.error(None, f"{command} needs mc.radii (comma-separated positive radii"
                           + (" or auto)" if command == "verify-comparison" else ")"))
    elif raw == "auto" and command != "verify-comparison":
        reader.error("mc.radii", "mc.radii = auto is only supported for verify-comparison")
    elif raw == "auto":
        reader.record("mc.radii", "auto")
        fields["radii_auto"] = True
        fields["radii_count"] = reader.integer("mc.radii_count", default=5, minimum=1)
        span = reader.floating("mc.radii_span", default=0.9)
        if span is not None and not 0.0 < span < 1.0:
            reader.error("mc.radii_span", f"radii span must lie in (0,1), got {span}")
        fields["radii_span"] = span
        fields["pilot_replicas"] = reader.integer("mc.pilot_replicas", default=2000,
                                                  minimum=100)
    else:
        try:
            radii = tuple(float(p) for p in raw.split(","))
        except ValueError:
            reader.error("mc.radii", f"mc.radii must be comma-separated numbers or auto, "
                                     f"got {raw!r}")
            return
        try:
            fields["radii"] = check_radii(radii)
        except ValueError as exc:
            reader.error("mc.radii", str(exc))
            return
        reader.record("mc.radii", ", ".join(repr(r) for r in radii))


def parse_config(text: str) -> RunConfig:
    entries, scan_errors = _scan_lines(text)
    reader = _Reader(entries)
    reader.errors.extend(scan_errors)

    command = reader.string("command", choices=COMMANDS,
                            required=f" (one of {', '.join(COMMANDS)})")
    seed = reader.integer("seed", minimum=0, maximum=2 ** 64 - 1,
                          required=": a master seed is mandatory, there is no "
                                   "wall-clock default")
    fields = {"output": reader.string("output")}

    # densities
    if command in _TWO_DENSITY_COMMANDS:
        roles = ("x", "y")
    elif command == "verify-anderson":
        kind = reader.string("anderson.kind", choices=("shift", "sum"),
                             required=" (shift or sum)")
        fields["anderson_kind"] = kind
        roles = ("x", "y") if kind == "sum" else ("main",)
    elif command == "density-check":
        # a single density gets an admissibility check; a pair adds domination
        pair = any(k.startswith("density.x.") for k in entries)
        roles = ("x", "y") if pair else ("main",)
    elif command is not None:
        roles = ("main",)
    else:
        roles = ()
    role_prefix = {"main": "density", "x": "density.x", "y": "density.y"}
    densities = {}
    for role in roles:
        density = _parse_density(reader, role_prefix[role])
        if density is not None:
            densities[role] = density

    dims = {d.dimension for d in densities.values()}
    if len(dims) > 1:
        reader.error(None, "densities must share one dimension")
    dimension = dims.pop() if len(dims) == 1 else 1

    if command in _TWO_DENSITY_COMMANDS or (command == "density-check" and "x" in roles):
        fields["constant"], fields["constant_auto"] = _constant(
            reader, command, command == "density-check")

    if fields.get("anderson_kind") == "shift":
        shift_kind = reader.string("shift.kind", default="linear", choices=("zero", "linear"))
        fields["shift_kind"] = shift_kind
        if shift_kind == "linear":
            fields["shift_slope"] = reader.floating("shift.slope", default=0.5)

    norm = None
    if command in _BALL_COMMANDS:
        norm = _norm(reader)
        _radii(reader, command, fields)

    # grids
    # within +-1022 every annulus edge 2^j is a finite normal float
    j_lo = reader.integer("frequency_grid.j_lo", default=-20, minimum=-1022, maximum=1022)
    j_hi = reader.integer("frequency_grid.j_hi", default=20, minimum=-1022, maximum=1022)
    nodes = reader.integer("frequency_grid.nodes_per_annulus", default=64, minimum=1)
    # density-check and covariance on explicit points place no field on the
    # spatial grid, so they do not read its resolution
    resolution = None
    if command != "density-check" and not (command == "covariance" and reader.has("points")):
        resolution = reader.integer("spatial_grid.resolution",
                                    default=_DEFAULT_RESOLUTION.get(command, 8), minimum=2)
    frequency_grid = None
    spatial_grid = None
    if None not in (j_lo, j_hi, nodes) and j_lo <= j_hi:
        try:
            frequency_grid = dyadic_frequency_grid(dimension, j_lo, j_hi, nodes)
        except ValueError as exc:
            reader.error("frequency_grid.nodes_per_annulus", str(exc))
    elif None not in (j_lo, j_hi):
        reader.error("frequency_grid.j_lo", f"j_lo must be <= j_hi, got {j_lo} > {j_hi}")
    if resolution is not None:
        spatial_grid = uniform_spatial_grid(dimension, resolution)

    if command in _DEFAULT_MC_REPLICAS:
        fields["mc_replicas"] = reader.integer("mc.replicas", minimum=100,
                                               default=_DEFAULT_MC_REPLICAS[command])
        confidence = reader.floating("mc.confidence", default=0.99)
        if confidence is not None and not 0.0 < confidence < 1.0:
            reader.error("mc.confidence", f"confidence must lie in (0,1), got {confidence}")
        fields["confidence"] = confidence

    if command == "simulate":
        fields["replicas"] = reader.integer("replicas", default=1, minimum=1)

    raw_points = reader.raw("points")
    if raw_points is not None:
        if command != "covariance":
            reader.error("points", "points is only supported for the covariance command")
        elif dimension != 1:
            reader.error("points", "explicit points are supported in d=1 only; "
                                   "use spatial_grid for d=2")
        else:
            try:
                points = tuple(float(p) for p in raw_points.split(","))
            except ValueError:
                reader.error("points", f"points must be comma-separated numbers, "
                                       f"got {raw_points!r}")
            else:
                if not all(map(math.isfinite, points)):
                    reader.error("points", f"points must be finite, got {raw_points!r}")
                elif len(set(points)) != len(points):
                    reader.error("points", "points must be distinct")
                fields["points"] = points
                reader.record("points", ", ".join(repr(p) for p in points))

    # which keys are known depends on the command; without one, reporting
    # the rest as unknown would blame keys that are fine
    if command is not None:
        reader.finish_unknown()
    if not reader.errors and (None in (command, seed, frequency_grid)
                              or len(densities) != len(roles)):
        reader.error(None, "configuration incomplete")
    if reader.errors:
        raise ConfigError(reader.errors)

    echo = "".join(f"{key} = {value}\n" for key, value in sorted(reader.echo.items()))
    return RunConfig(command=command, master_seed=seed, densities=densities,
                     frequency_grid=frequency_grid, spatial_grid=spatial_grid,
                     norm=norm, echo=echo, **fields)
