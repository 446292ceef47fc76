"""Run configuration: a flat dotted-key text format and its validation.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored.  Nested structure is spelled with dots (density.x.base.hurst = 0.5).
Parsing validates the whole file and reports every problem with its line
number, not just the first; unknown and duplicate keys are errors.

The seed is mandatory.  There is deliberately no wall-clock fallback: every
run must be replayable from its config alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .grids import FrequencyGrid, SpatialGrid, dyadic_frequency_grid, uniform_spatial_grid
from .norms import DEFAULT_PAIR_BUDGET, HolderNorm, SupNorm
from .spectral import (BandLimitedDensity, PerturbedDensity, PowerLawDensity,
                       ScaledDensity, SineModulation, SpectralDensity, SumDensity,
                       ZeroDensity, fractional_brownian_density)

COMMANDS = ("density-check", "simulate", "covariance", "verify-anderson",
            "verify-coupling", "verify-comparison", "estimate-hurst")

_TWO_DENSITY_COMMANDS = ("verify-coupling", "verify-comparison")
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
    spatial_grid: SpatialGrid
    norm: object
    output: str | None = None
    constant: float | None = None
    constant_auto: bool = False
    anderson_kind: str | None = None
    shift_kind: str | None = None
    shift_slope: float | None = None
    method: str = "spectral"
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
    """Typed access to parsed key/value lines with error collection."""

    def __init__(self, entries: dict):
        self.entries = entries            # key -> (raw value, line number)
        self.errors = []
        self.consumed = set()

    def error(self, key_or_line, message):
        if isinstance(key_or_line, str):
            line = self.entries[key_or_line][1] if key_or_line in self.entries else None
        else:
            line = key_or_line
        self.errors.append((line, message))

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str, default=None):
        if key in self.entries:
            self.consumed.add(key)
            return self.entries[key][0]
        return default

    def string(self, key: str, default=None, choices=None):
        value = self.raw(key, default)
        if value is not None and choices is not None and value not in choices:
            self.error(key, f"{key} must be one of {', '.join(choices)}; got {value!r}")
            return default
        return value

    def integer(self, key: str, default=None, minimum=None, maximum=None):
        raw = self.raw(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            self.error(key, f"{key} must be an integer, got {raw!r}")
            return default
        if minimum is not None and value < minimum:
            self.error(key, f"{key} must be >= {minimum}, got {value}")
            return default
        if maximum is not None and value > maximum:
            self.error(key, f"{key} must be <= {maximum}, got {value}")
            return default
        return value

    def floating(self, key: str, default=None, positive=False):
        raw = self.raw(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            self.error(key, f"{key} must be a number, got {raw!r}")
            return default
        if positive and not value > 0:
            self.error(key, f"{key} must be positive, got {value}")
            return default
        return value

    def float_list(self, key: str):
        raw = self.raw(key)
        if raw is None:
            return None
        try:
            return tuple(float(part) for part in raw.split(","))
        except ValueError:
            self.error(key, f"{key} must be a comma-separated list of numbers, got {raw!r}")
            return None

    def subkeys(self, prefix: str):
        dot = prefix + "."
        return [k for k in self.entries if k.startswith(dot)]

    def require(self, key: str, description: str) -> bool:
        if key not in self.entries:
            self.errors.append((None, f"missing {key}: {description}"))
            return False
        return True

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
    family_key = f"{prefix}.family"
    if not reader.has(family_key):
        reader.error(None, f"missing {family_key}: density family is required "
                           f"(one of {', '.join(_FAMILIES)})")
        for key in reader.subkeys(prefix):
            reader.consumed.add(key)
        return None
    family = reader.string(family_key, choices=_FAMILIES)
    if family is None:
        for key in reader.subkeys(prefix):
            reader.consumed.add(key)
        return None

    if family == "zero":
        dim = reader.integer(f"{prefix}.dimension", default=1)
        if dim not in (1, 2):
            reader.error(f"{prefix}.dimension", "dimension must be 1 or 2")
            return None
        return ZeroDensity(dim)

    if family == "power-law":
        dim = reader.integer(f"{prefix}.dimension", default=1)
        hurst = reader.floating(f"{prefix}.hurst")
        scale = reader.floating(f"{prefix}.scale", positive=True)
        if dim not in (1, 2):
            reader.error(f"{prefix}.dimension", "dimension must be 1 or 2")
            return None
        if hurst is None:
            if not reader.has(f"{prefix}.hurst"):
                reader.error(None, f"missing {prefix}.hurst for the power-law family")
            return None
        if not 0.0 < hurst < 1.0:
            reader.error(f"{prefix}.hurst", f"H must lie in (0,1), got {hurst}")
            return None
        if scale is None and reader.has(f"{prefix}.scale"):
            return None
        if scale is None:
            return fractional_brownian_density(hurst, dim)
        return PowerLawDensity(dim, hurst, scale)

    if family == "band-limited":
        dim = reader.integer(f"{prefix}.dimension", default=1)
        inner = reader.floating(f"{prefix}.inner", default=0.0)
        outer = reader.floating(f"{prefix}.outer")
        amplitude = reader.floating(f"{prefix}.amplitude", default=1.0)
        if dim not in (1, 2):
            reader.error(f"{prefix}.dimension", "dimension must be 1 or 2")
            return None
        if outer is None:
            if not reader.has(f"{prefix}.outer"):
                reader.error(None, f"missing {prefix}.outer for the band-limited family")
            return None
        try:
            return BandLimitedDensity(dim, inner, outer, amplitude)
        except ValueError as exc:
            reader.error(f"{prefix}.outer", str(exc))
            return None

    if family == "perturbed":
        base = _parse_density(reader, f"{prefix}.base")
        offset = reader.floating(f"{prefix}.modulation.offset")
        amplitude = reader.floating(f"{prefix}.modulation.amplitude")
        frequency = reader.floating(f"{prefix}.modulation.frequency", default=1.0)
        mod_scale = reader.floating(f"{prefix}.modulation.scale", default=1.0)
        if offset is None and not reader.has(f"{prefix}.modulation.offset"):
            reader.error(None, f"missing {prefix}.modulation.offset")
        if amplitude is None and not reader.has(f"{prefix}.modulation.amplitude"):
            reader.error(None, f"missing {prefix}.modulation.amplitude")
        if base is None or offset is None or amplitude is None:
            return None
        try:
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
    factor = reader.floating(f"{prefix}.factor")
    if factor is None and not reader.has(f"{prefix}.factor"):
        reader.error(None, f"missing {prefix}.factor for the scalar-multiple family")
    if base is None or factor is None:
        return None
    if factor < 0:
        reader.error(f"{prefix}.factor", f"factor must be nonnegative, got {factor}")
        return None
    return ScaledDensity(base, factor)


def _echo_density(prefix: str, density: SpectralDensity, out: dict):
    """Canonical key/value echo of a constructed density, defaults resolved."""
    if isinstance(density, ZeroDensity):
        out[f"{prefix}.family"] = "zero"
        out[f"{prefix}.dimension"] = str(density.dimension)
    elif isinstance(density, PowerLawDensity):
        out[f"{prefix}.family"] = "power-law"
        out[f"{prefix}.dimension"] = str(density.dimension)
        out[f"{prefix}.hurst"] = repr(density.hurst)
        out[f"{prefix}.scale"] = repr(density.scale)
    elif isinstance(density, BandLimitedDensity):
        out[f"{prefix}.family"] = "band-limited"
        out[f"{prefix}.dimension"] = str(density.dimension)
        out[f"{prefix}.inner"] = repr(density.inner)
        out[f"{prefix}.outer"] = repr(density.outer)
        out[f"{prefix}.amplitude"] = repr(density.amplitude)
    elif isinstance(density, PerturbedDensity):
        out[f"{prefix}.family"] = "perturbed"
        _echo_density(f"{prefix}.base", density.base, out)
        out[f"{prefix}.modulation.offset"] = repr(density.modulation.offset)
        out[f"{prefix}.modulation.amplitude"] = repr(density.modulation.amplitude)
        out[f"{prefix}.modulation.frequency"] = repr(density.modulation.frequency)
        out[f"{prefix}.modulation.scale"] = repr(density.modulation.scale)
    elif isinstance(density, SumDensity):
        out[f"{prefix}.family"] = "sum"
        _echo_density(f"{prefix}.first", density.first, out)
        _echo_density(f"{prefix}.second", density.second, out)
    elif isinstance(density, ScaledDensity):
        out[f"{prefix}.family"] = "scalar-multiple"
        out[f"{prefix}.factor"] = repr(density.factor)
        _echo_density(f"{prefix}.base", density.base, out)
    else:
        raise TypeError(f"no config echo for density type {type(density).__name__}")


def parse_config(text: str) -> RunConfig:
    entries, scan_errors = _scan_lines(text)
    reader = _Reader(entries)
    reader.errors.extend(scan_errors)

    command = reader.string("command", choices=COMMANDS)
    if command is None and "command" not in entries:
        reader.error(None, f"missing command (one of {', '.join(COMMANDS)})")

    if reader.require("seed", "a master seed is mandatory, there is no wall-clock default"):
        seed = reader.integer("seed", minimum=0, maximum=2 ** 64 - 1)
    else:
        seed = None

    output = reader.string("output")

    # densities
    densities = {}
    if command in _TWO_DENSITY_COMMANDS:
        roles = ("x", "y")
    elif command == "verify-anderson":
        kind = reader.string("anderson.kind", choices=("shift", "sum"))
        if kind is None and "anderson.kind" not in entries:
            reader.error(None, "missing anderson.kind (shift or sum)")
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
    for role in roles:
        density = _parse_density(reader, role_prefix[role])
        if density is not None:
            densities[role] = density

    dims = {d.dimension for d in densities.values()}
    if len(dims) > 1:
        reader.error(None, "densities must share one dimension")
    dimension = dims.pop() if len(dims) == 1 else 1

    # constant
    constant = None
    constant_auto = False
    raw_constant = reader.raw("constant")
    if raw_constant is not None:
        if raw_constant == "auto":
            constant_auto = True
        else:
            try:
                constant = float(raw_constant)
            except ValueError:
                reader.error("constant", f"constant must be a positive number or auto, "
                                         f"got {raw_constant!r}")
            else:
                if constant <= 0:
                    reader.error("constant", f"constant must be positive, got {constant}")
                    constant = None
    elif command in _TWO_DENSITY_COMMANDS:
        reader.error(None, f"{command} needs constant = <positive C> or constant = auto "
                           "(auto estimates the smallest C on the grid)")
    elif command == "density-check" and "x" in roles:
        constant_auto = True

    # anderson shift
    anderson_kind = reader.string("anderson.kind", choices=("shift", "sum")) \
        if command == "verify-anderson" else None
    shift_kind = None
    shift_slope = None
    if anderson_kind == "shift":
        shift_kind = reader.string("shift.kind", default="linear", choices=("zero", "linear"))
        if shift_kind == "linear":
            shift_slope = reader.floating("shift.slope", default=0.5)

    # norm
    norm_kind = reader.string("norm.kind", default="sup", choices=("sup", "holder"))
    norm_alpha = reader.floating("norm.alpha")
    pair_budget = reader.integer("norm.pair_budget", default=DEFAULT_PAIR_BUDGET, minimum=4)
    norm = SupNorm() if norm_kind == "sup" else None
    if norm_kind == "holder" and norm_alpha is not None:
        try:
            norm = HolderNorm(norm_alpha, pair_budget)
        except ValueError as exc:
            reader.error("norm.alpha", str(exc))
    elif norm_kind == "holder" and not reader.has("norm.alpha"):
        reader.error(None, "missing norm.alpha: the holder norm requires alpha in (0, 1]")

    # grids
    j_lo = reader.integer("frequency_grid.j_lo", default=-20)
    j_hi = reader.integer("frequency_grid.j_hi", default=20)
    nodes = reader.integer("frequency_grid.nodes_per_annulus", default=64, minimum=1)
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

    # Monte Carlo settings
    mc_replicas = reader.integer("mc.replicas",
                                 default=_DEFAULT_MC_REPLICAS.get(command, 10000),
                                 minimum=100)
    confidence = reader.floating("mc.confidence", default=0.99)
    if confidence is not None and not 0.0 < confidence < 1.0:
        reader.error("mc.confidence", f"confidence must lie in (0,1), got {confidence}")
        confidence = None
    radii = ()
    radii_auto = False
    raw_radii = reader.raw("mc.radii")
    if raw_radii is not None:
        if raw_radii == "auto":
            if command == "verify-comparison":
                radii_auto = True
            else:
                reader.error("mc.radii", "mc.radii = auto is only supported for "
                                         "verify-comparison")
        else:
            try:
                radii = tuple(float(p) for p in raw_radii.split(","))
            except ValueError:
                reader.error("mc.radii", f"mc.radii must be comma-separated numbers or "
                                         f"auto, got {raw_radii!r}")
                radii = ()
            if radii and (any(r <= 0 for r in radii) or list(radii) != sorted(radii)):
                reader.error("mc.radii", "radii must be positive and sorted ascending")
                radii = ()
    elif command in ("verify-anderson", "verify-comparison"):
        reader.error(None, f"{command} needs mc.radii (comma-separated positive radii"
                           + (" or auto)" if command == "verify-comparison" else ")"))
    radii_count = reader.integer("mc.radii_count", default=5, minimum=1)
    radii_span = reader.floating("mc.radii_span", default=0.9)
    if radii_span is not None and not 0.0 < radii_span < 1.0:
        reader.error("mc.radii_span", f"radii span must lie in (0,1), got {radii_span}")
        radii_span = None
    pilot_replicas = reader.integer("mc.pilot_replicas", default=2000, minimum=100)

    # simulate-specific
    replicas = reader.integer("replicas", default=1, minimum=1) \
        if command == "simulate" else 1
    method = reader.string("method", default="spectral", choices=("spectral", "exact")) \
        if command == "simulate" else "spectral"

    # covariance-specific points
    points = ()
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
                points = ()
            if points and len(set(points)) != len(points):
                reader.error("points", "points must be distinct")
                points = ()

    reader.finish_unknown()

    required_ok = (command is not None and seed is not None and norm is not None
                   and confidence is not None and frequency_grid is not None
                   and spatial_grid is not None and len(densities) == len(roles)
                   and radii_span is not None
                   and None not in (mc_replicas, radii_count, pilot_replicas,
                                    replicas, method))
    if reader.errors or not required_ok:
        if not reader.errors:
            reader.error(None, "configuration incomplete")
        raise ConfigError(reader.errors)

    echo = {"command": command, "seed": str(seed)}
    if output is not None:
        echo["output"] = output
    for role, density in densities.items():
        _echo_density(role_prefix[role], density, echo)
    echo["frequency_grid.j_lo"] = str(j_lo)
    echo["frequency_grid.j_hi"] = str(j_hi)
    echo["frequency_grid.nodes_per_annulus"] = str(nodes)
    echo["spatial_grid.resolution"] = str(resolution)
    echo["norm.kind"] = norm.kind
    if isinstance(norm, HolderNorm):
        echo["norm.alpha"] = repr(norm.alpha)
        echo["norm.pair_budget"] = str(norm.pair_budget)
    if command in _TWO_DENSITY_COMMANDS or (command == "density-check" and "x" in densities):
        echo["constant"] = "auto" if constant_auto else repr(constant)
    if command == "verify-anderson":
        echo["anderson.kind"] = anderson_kind
        if anderson_kind == "shift":
            echo["shift.kind"] = shift_kind
            if shift_kind == "linear":
                echo["shift.slope"] = repr(shift_slope)
    if command == "simulate":
        echo["replicas"] = str(replicas)
        echo["method"] = method
    elif command == "covariance":
        if points:
            echo["points"] = ", ".join(repr(p) for p in points)
    elif command != "density-check":
        echo["mc.replicas"] = str(mc_replicas)
        echo["mc.confidence"] = repr(confidence)
        if command in ("verify-anderson", "verify-comparison"):
            echo["mc.radii"] = "auto" if radii_auto else ", ".join(repr(r) for r in radii)
        if radii_auto:
            echo["mc.radii_count"] = str(radii_count)
            echo["mc.radii_span"] = repr(radii_span)
            echo["mc.pilot_replicas"] = str(pilot_replicas)

    echo_text = "".join(f"{key} = {echo[key]}\n" for key in sorted(echo))
    return RunConfig(command=command, master_seed=seed, densities=densities,
                     frequency_grid=frequency_grid, spatial_grid=spatial_grid,
                     norm=norm, output=output, constant=constant,
                     constant_auto=constant_auto, anderson_kind=anderson_kind,
                     shift_kind=shift_kind, shift_slope=shift_slope, method=method,
                     replicas=replicas, mc_replicas=mc_replicas, confidence=confidence,
                     radii=radii, radii_auto=radii_auto, radii_count=radii_count,
                     radii_span=radii_span, pilot_replicas=pilot_replicas,
                     points=points, echo=echo_text)
