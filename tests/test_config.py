from pathlib import Path

import pytest

from specfield import (ConfigError, HolderNorm, PerturbedDensity,
                       PowerLawDensity, SupNorm, parse_config)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DENSITY_CHECK = """\
command = density-check
seed = 7
density.family = power-law
density.hurst = 0.5
"""

PAIR_CHECK = """\
command = density-check
seed = 7
density.x.family = perturbed
density.x.base.family = power-law
density.x.base.hurst = 0.5
density.x.modulation.offset = 2.0
density.x.modulation.amplitude = 1.0
density.y.family = power-law
density.y.hurst = 0.5
"""

BAND_LIMITED = """\
command = density-check
seed = 7
density.family = band-limited
density.inner = 1.0
density.outer = 2.0
"""

SIMULATE = """\
command = simulate
seed = 11
density.family = power-law
density.hurst = 0.3
replicas = 4
"""

COVARIANCE = """\
command = covariance
seed = 2
density.family = power-law
density.hurst = 0.5
points = 0.25, 0.5, 1.0
"""

ANDERSON_SHIFT = """\
command = verify-anderson
anderson.kind = shift
seed = 5
density.family = power-law
density.hurst = 0.5
mc.radii = 0.25, 0.5, 1.0
"""

ANDERSON_SUM = """\
command = verify-anderson
anderson.kind = sum
seed = 5
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = power-law
density.y.hurst = 0.5
mc.radii = 0.5
"""

COUPLING = """\
command = verify-coupling
seed = 9
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = power-law
density.y.hurst = 0.5
constant = 1.0
"""

COMPARISON_AUTO = """\
command = verify-comparison
seed = 9
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = power-law
density.y.hurst = 0.5
constant = auto
mc.radii = auto
"""

HURST = """\
command = estimate-hurst
seed = 13
density.family = power-law
density.hurst = 0.7
"""


def errors_of(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.format_errors()


class TestMinimalConfigs:
    def test_density_check_defaults(self):
        cfg = parse_config(DENSITY_CHECK)
        assert cfg.command == "density-check"
        assert cfg.master_seed == 7
        assert set(cfg.densities) == {"main"}
        assert isinstance(cfg.densities["main"], PowerLawDensity)
        assert cfg.frequency_grid.grid_id == "dyadic(d=1,J=-20..20,m=64)"
        assert cfg.spatial_grid is None
        assert cfg.norm is None
        assert not cfg.constant_auto and cfg.constant is None

    def test_pair_check_gets_auto_constant(self):
        cfg = parse_config(PAIR_CHECK)
        assert set(cfg.densities) == {"x", "y"}
        assert isinstance(cfg.densities["x"], PerturbedDensity)
        assert cfg.constant_auto

    def test_simulate(self):
        cfg = parse_config(SIMULATE)
        assert cfg.replicas == 4

    def test_covariance_points(self):
        cfg = parse_config(COVARIANCE)
        assert cfg.points == (0.25, 0.5, 1.0)
        assert cfg.spatial_grid is None

    def test_covariance_without_points_uses_the_spatial_grid(self):
        cfg = parse_config(COVARIANCE.replace("points = 0.25, 0.5, 1.0\n",
                                              "spatial_grid.resolution = 5\n"))
        assert cfg.points == () and cfg.spatial_grid.resolution == 5

    def test_anderson_shift_defaults(self):
        cfg = parse_config(ANDERSON_SHIFT)
        assert cfg.anderson_kind == "shift"
        assert cfg.shift_kind == "linear"
        assert cfg.shift_slope == 0.5
        assert cfg.radii == (0.25, 0.5, 1.0)
        assert cfg.mc_replicas == 10000
        assert isinstance(cfg.norm, SupNorm)
        assert set(cfg.densities) == {"main"}

    def test_anderson_sum_takes_two_densities(self):
        cfg = parse_config(ANDERSON_SUM)
        assert cfg.anderson_kind == "sum"
        assert set(cfg.densities) == {"x", "y"}
        assert cfg.shift_kind is None

    def test_coupling_defaults(self):
        cfg = parse_config(COUPLING)
        assert cfg.constant == 1.0
        assert cfg.mc_replicas == 5000
        assert cfg.radii == ()

    def test_comparison_auto_radii(self):
        cfg = parse_config(COMPARISON_AUTO)
        assert cfg.constant_auto and cfg.constant is None
        assert cfg.radii_auto and cfg.radii == ()
        assert cfg.radii_count == 5
        assert cfg.radii_span == 0.9
        assert cfg.pilot_replicas == 2000

    def test_hurst_defaults(self):
        cfg = parse_config(HURST)
        assert cfg.spatial_grid.resolution == 4096
        assert cfg.mc_replicas == 100

    def test_holder_norm_settings(self):
        cfg = parse_config(ANDERSON_SHIFT + "norm.kind = holder\nnorm.alpha = 0.4\n")
        assert isinstance(cfg.norm, HolderNorm)
        assert cfg.norm.alpha == 0.4

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + DENSITY_CHECK.replace(
            "seed = 7", "seed = 7   # trailing comment")
        assert parse_config(text).master_seed == 7


class TestEchoIdempotence:
    @pytest.mark.parametrize("text", [DENSITY_CHECK, PAIR_CHECK, SIMULATE,
                                      COVARIANCE, ANDERSON_SHIFT, ANDERSON_SUM,
                                      COUPLING, COMPARISON_AUTO, HURST],
                             ids=["check", "pair", "simulate", "covariance",
                                  "shift", "sum", "coupling", "comparison",
                                  "hurst"])
    def test_echo_reparses_to_itself(self, text):
        echo = parse_config(text).echo
        assert parse_config(echo).echo == echo

    def test_echo_spells_out_defaults(self):
        echo = parse_config(ANDERSON_SHIFT).echo
        assert "frequency_grid.j_lo = -20\n" in echo
        assert "spatial_grid.resolution = 8\n" in echo
        assert "norm.kind = sup\n" in echo
        assert "shift.slope = 0.5\n" in echo
        assert "density.scale = 0.15915494309189535\n" in echo


class TestScanErrors:
    def test_line_without_equals(self):
        msgs = errors_of(DENSITY_CHECK + "just some words\n")
        assert "line 5: expected 'key = value'" in msgs

    def test_malformed_key(self):
        msgs = errors_of(DENSITY_CHECK + "Seed = 3\n")
        assert any(m.startswith("line 5: malformed key 'Seed'") for m in msgs)

    def test_empty_value(self):
        msgs = errors_of(DENSITY_CHECK + "norm.kind =\n")
        assert "line 5: empty value for norm.kind" in msgs

    def test_duplicate_key_points_at_first(self):
        msgs = errors_of(DENSITY_CHECK + "seed = 8\n")
        assert "line 5: duplicate key seed (first on line 2)" in msgs

    def test_unknown_key(self):
        msgs = errors_of(DENSITY_CHECK + "densty.hurst = 0.5\n")
        assert "line 5: unknown key densty.hurst" in msgs

    def test_all_errors_reported_at_once(self):
        text = DENSITY_CHECK.replace("density.hurst = 0.5",
                                     "density.hurst = 1.2")
        msgs = errors_of(text + "no equals here\nbogus.key = 1\n")
        assert len(msgs) == 3
        assert "line 4: H must lie in (0,1), got 1.2" in msgs
        assert "line 5: expected 'key = value'" in msgs
        assert "line 6: unknown key bogus.key" in msgs


class TestValidationErrors:
    def test_missing_command(self):
        msgs = errors_of("seed = 1\n")
        assert any("missing command" in m for m in msgs)

    def test_unknown_command(self):
        msgs = errors_of("command = frobnicate\nseed = 1\n")
        assert any("command must be one of" in m for m in msgs)

    @pytest.mark.parametrize("command", ["", "command = simulat\n"])
    def test_bad_command_is_the_only_error(self, command):
        # which keys are known depends on the command, so none is called unknown
        msgs = errors_of(command + "seed = 1\ndensity.family = power-law\n"
                                   "density.hurst = 0.5\n")
        assert len(msgs) == 1
        assert "missing command" in msgs[0] or "command must be one of" in msgs[0]

    def test_missing_seed_names_the_policy(self):
        msgs = errors_of("command = density-check\ndensity.family = zero\n")
        assert any("a master seed is mandatory, there is no wall-clock default"
                   in m for m in msgs)

    def test_seed_bounds(self):
        assert any("seed must be >= 0" in m for m in
                   errors_of(DENSITY_CHECK.replace("seed = 7", "seed = -1")))
        big = str(2 ** 64)
        assert any("seed must be <=" in m for m in
                   errors_of(DENSITY_CHECK.replace("seed = 7", f"seed = {big}")))

    def test_hurst_out_of_range(self):
        msgs = errors_of(DENSITY_CHECK.replace("0.5", "1.2"))
        assert "line 4: H must lie in (0,1), got 1.2" in msgs

    def test_missing_density_family(self):
        msgs = errors_of("command = simulate\nseed = 1\ndensity.hurst = 0.5\n")
        assert any("missing density.family" in m for m in msgs)

    def test_missing_constant_for_coupling(self):
        text = COUPLING.replace("constant = 1.0\n", "")
        msgs = errors_of(text)
        assert any("needs constant = <positive C> or constant = auto" in m
                   for m in msgs)

    def test_negative_constant(self):
        msgs = errors_of(COUPLING.replace("constant = 1.0", "constant = -2"))
        assert any("constant must be positive" in m for m in msgs)

    def test_non_numeric_constant(self):
        msgs = errors_of(COUPLING.replace("constant = 1.0", "constant = many"))
        assert any("must be a positive number or auto" in m for m in msgs)

    def test_radii_auto_only_for_comparison(self):
        msgs = errors_of(ANDERSON_SHIFT.replace("mc.radii = 0.25, 0.5, 1.0",
                                                "mc.radii = auto"))
        assert any("only supported for verify-comparison" in m for m in msgs)

    def test_missing_radii_for_anderson(self):
        msgs = errors_of(ANDERSON_SHIFT.replace("mc.radii = 0.25, 0.5, 1.0\n", ""))
        assert any("verify-anderson needs mc.radii" in m for m in msgs)

    def test_unsorted_radii(self):
        msgs = errors_of(ANDERSON_SHIFT.replace("mc.radii = 0.25, 0.5, 1.0",
                                                "mc.radii = 1.0, 0.5"))
        assert any("positive and sorted ascending" in m for m in msgs)

    @pytest.mark.parametrize("radii", ["nan", "inf", "0.3, nan"], ids=["nan", "inf", "0.3-nan"])
    def test_non_finite_radii(self, radii):
        msgs = errors_of(ANDERSON_SHIFT.replace("mc.radii = 0.25, 0.5, 1.0",
                                                f"mc.radii = {radii}"))
        assert len(msgs) == 1
        assert msgs[0].startswith("line 6: radii must be finite, positive and sorted")

    @pytest.mark.parametrize("points", ["0.25, nan, 1.0", "inf"], ids=["nan", "inf"])
    def test_non_finite_points(self, points):
        msgs = errors_of(COVARIANCE.replace("points = 0.25, 0.5, 1.0", f"points = {points}"))
        assert msgs == [f"line 5: points must be finite, got {points!r}"]

    @pytest.mark.parametrize("constant", ["nan", "inf"])
    def test_non_finite_constant(self, constant):
        msgs = errors_of(COUPLING.replace("constant = 1.0", f"constant = {constant}"))
        assert msgs == [f"line 7: constant must be positive and finite, got {constant}"]

    def test_replica_floor(self):
        msgs = errors_of(ANDERSON_SHIFT + "mc.replicas = 50\n")
        assert any("mc.replicas must be >= 100" in m for m in msgs)

    def test_densities_must_share_dimension(self):
        text = COUPLING.replace("density.y.family = power-law",
                                "density.y.dimension = 2\n"
                                "density.y.family = power-law")
        msgs = errors_of(text)
        assert any("densities must share one dimension" in m for m in msgs)

    def test_missing_anderson_kind(self):
        msgs = errors_of(ANDERSON_SHIFT.replace("anderson.kind = shift\n", ""))
        assert any("missing anderson.kind" in m for m in msgs)

    def test_holder_needs_alpha(self):
        msgs = errors_of(ANDERSON_SHIFT + "norm.kind = holder\n")
        assert any("missing norm.alpha" in m for m in msgs)

    def test_bad_alpha(self):
        msgs = errors_of(ANDERSON_SHIFT + "norm.kind = holder\nnorm.alpha = 1.5\n")
        assert msgs == ["line 8: alpha must lie in (0, 1], got 1.5"]

    def test_inverted_annulus_range(self):
        msgs = errors_of(DENSITY_CHECK + "frequency_grid.j_lo = 4\n"
                                         "frequency_grid.j_hi = -4\n")
        assert any("j_lo must be <= j_hi" in m for m in msgs)

    def test_points_only_for_covariance(self):
        msgs = errors_of(DENSITY_CHECK + "points = 0.5\n")
        assert any("only supported for the covariance command" in m for m in msgs)

    def test_points_must_be_distinct(self):
        msgs = errors_of(COVARIANCE.replace("points = 0.25, 0.5, 1.0",
                                            "points = 0.5, 0.5"))
        assert any("points must be distinct" in m for m in msgs)

    def test_bad_method(self):
        # simulate draws each law one way: every method line is refused
        lineno = SIMULATE.count("\n") + 1
        for value in ("spectral", "exact", "fancy"):
            assert errors_of(SIMULATE + f"method = {value}\n") == [
                f"line {lineno}: unknown key method"]

    def test_confidence_range(self):
        msgs = errors_of(ANDERSON_SHIFT + "mc.confidence = 1.0\n")
        assert any("confidence must lie in (0,1)" in m for m in msgs)

    @pytest.mark.parametrize("text, line", [
        (SIMULATE, "density.scale = inf"),
        (SIMULATE.replace("density.", "density.base.") + "density.family = scalar-multiple\n",
         "density.factor = inf"),
        (PAIR_CHECK, "density.x.modulation.frequency = nan"),
        (ANDERSON_SHIFT, "shift.slope = -inf")], ids=["scale", "factor", "frequency", "slope"])
    def test_non_finite_numbers_are_config_errors(self, text, line):
        key, value = line.split(" = ")
        msgs = errors_of(text + line + "\n")
        assert msgs == [f"line {len(text.splitlines()) + 1}: "
                        f"{key} must be a finite number, got {value!r}"]

    # PAIR_CHECK gives the modulation's offset on line 6 and its amplitude on
    # line 7; BAND_LIMITED gives inner on line 4 and outer on line 5
    @pytest.mark.parametrize("text, line, message", [
        (PAIR_CHECK, "density.x.modulation.frequency = -1",
         "density.x.modulation.frequency must be positive, got -1.0"),
        (PAIR_CHECK, "density.x.modulation.scale = 0",
         "density.x.modulation.scale must be positive, got 0.0"),
        (BAND_LIMITED, "density.amplitude = -1",
         "amplitude must be nonnegative, got -1.0"),
        (BAND_LIMITED.replace("density.inner = 1.0", "density.inner = -1.0"), None,
         "inner must be nonnegative, got -1.0")],
        ids=["frequency", "scale", "amplitude", "inner"])
    def test_one_key_rules_name_their_own_line(self, text, line, message):
        if line is None:
            lineno = 4
        else:
            text += line + "\n"
            lineno = len(text.splitlines())
        assert errors_of(text) == [f"line {lineno}: {message}"]

    @pytest.mark.parametrize("text, lineno, message", [
        (PAIR_CHECK.replace("amplitude = 1.0", "amplitude = -3.0"), 6,
         "offset must be >= |amplitude| for a nonnegative modulation"),
        (BAND_LIMITED.replace("density.inner = 1.0", "density.inner = 4.0"), 5,
         "require 0 <= inner < outer")], ids=["offset", "outer"])
    def test_two_key_rules_name_the_line_of_their_bound(self, text, lineno, message):
        assert errors_of(text) == [f"line {lineno}: {message}"]

    def test_error_class_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_config("command = density-check\n")


# (config, key) pairs where the command has no use for the key
IGNORED = [
    (COVARIANCE, "mc.replicas = 200"),
    (SIMULATE, "mc.confidence = 0.95"),
    (COUPLING, "norm.kind = holder"),
    (COUPLING, "mc.radii = 0.5"),
    (HURST, "mc.radii = 0.5"),
    (ANDERSON_SHIFT, "constant = 2.0"),
    (DENSITY_CHECK, "constant = 2.0"),
    (COMPARISON_AUTO.replace("mc.radii = auto", "mc.radii = 0.5"), "mc.pilot_replicas = 500"),
    (ANDERSON_SHIFT + "norm.kind = holder\nnorm.alpha = 0.5\n", "norm.pair_budget = 1000"),
    (DENSITY_CHECK, "spatial_grid.resolution = 16"),
    (PAIR_CHECK, "spatial_grid.resolution = 16"),
    (COVARIANCE, "spatial_grid.resolution = 16"),
]


class TestIgnoredKeysAreUnknown:
    @pytest.mark.parametrize("text, line", IGNORED, ids=[
        "covariance-replicas", "simulate-confidence", "coupling-norm", "coupling-radii",
        "hurst-radii", "anderson-constant", "single-check-constant",
        "fixed-radii-pilot", "holder-pair-budget", "single-check-resolution",
        "pair-check-resolution", "covariance-points-resolution"])
    def test_refused_as_unknown(self, text, line):
        key = line.split(" = ")[0]
        lineno = text.count("\n") + 1
        assert errors_of(text + line + "\n") == [f"line {lineno}: unknown key {key}"]

    def test_the_same_keys_are_read_where_used(self):
        cfg = parse_config(COMPARISON_AUTO + "mc.pilot_replicas = 500\n"
                                             "norm.kind = holder\nnorm.alpha = 0.5\n")
        assert cfg.pilot_replicas == 500 and cfg.norm.alpha == 0.5


_FREQUENCY_KEYS = {"command", "seed", "frequency_grid.j_lo", "frequency_grid.j_hi",
                   "frequency_grid.nodes_per_annulus"}
_COMMON_KEYS = _FREQUENCY_KEYS | {"spatial_grid.resolution"}
_MC_KEYS = {"mc.replicas", "mc.confidence"}
_PAIR = {"density.x.family", "density.x.base.family", "density.x.base.dimension",
         "density.x.base.hurst", "density.x.base.scale", "density.x.modulation.offset",
         "density.x.modulation.amplitude", "density.x.modulation.frequency",
         "density.x.modulation.scale", "density.y.family", "density.y.dimension",
         "density.y.hurst", "density.y.scale"}
_POWER_LAW = {"density.family", "density.dimension", "density.hurst", "density.scale"}
SHIPPED_ECHO_KEYS = {
    "covariance": _FREQUENCY_KEYS | _POWER_LAW | {"points"},
    "density-check": _FREQUENCY_KEYS | _PAIR | {"constant"},
    "estimate-hurst": _COMMON_KEYS | _MC_KEYS | _POWER_LAW,
    "simulate": _COMMON_KEYS | _POWER_LAW | {"replicas"},
    "verify-anderson-shift": _COMMON_KEYS | _MC_KEYS | _POWER_LAW | {
        "anderson.kind", "shift.kind", "shift.slope", "norm.kind", "mc.radii"},
    "verify-anderson-sum": _COMMON_KEYS | _MC_KEYS | _PAIR | {
        "anderson.kind", "norm.kind", "mc.radii"},
    "verify-comparison": _COMMON_KEYS | _MC_KEYS | _PAIR | {
        "constant", "norm.kind", "mc.radii", "mc.radii_count",
        "mc.radii_span", "mc.pilot_replicas"},
    "verify-coupling": _COMMON_KEYS | _MC_KEYS | _PAIR | {"constant"},
}


class TestShippedExamples:
    def test_the_examples_directory_is_populated(self):
        assert len(sorted(CONFIG_DIR.glob("*.cfg"))) == 8

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda p: p.stem)
    def test_example_parses_and_names_its_command(self, path):
        cfg = parse_config(path.read_text())
        assert path.stem.startswith(cfg.command)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda p: p.stem)
    def test_echo_names_exactly_the_keys_the_command_reads(self, path):
        echo = parse_config(path.read_text()).echo
        keys = {line.split(" = ")[0] for line in echo.splitlines()}
        assert keys == SHIPPED_ECHO_KEYS[path.stem]
