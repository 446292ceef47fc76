import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from specfield import cli, parse_config, synthesis
from specfield.cli import console_main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

SMALL_FREQUENCY_GRID = """\
frequency_grid.j_lo = -12
frequency_grid.j_hi = 12
frequency_grid.nodes_per_annulus = 16
"""
SMALL_GRID = SMALL_FREQUENCY_GRID + "spatial_grid.resolution = 6\n"

CHECK_MAIN = """\
command = density-check
seed = 17
density.family = power-law
density.hurst = 0.5
""" + SMALL_FREQUENCY_GRID

CHECK_PAIR = """\
command = density-check
seed = 17
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = perturbed
density.y.base.family = power-law
density.y.base.hurst = 0.5
density.y.modulation.offset = 2.0
density.y.modulation.amplitude = 1.0
density.y.modulation.scale = 3.0
""" + SMALL_FREQUENCY_GRID

SIMULATE = """\
command = simulate
seed = 23
replicas = 3
density.family = power-law
density.hurst = 0.5
""" + SMALL_GRID

ANDERSON_ZERO_SHIFT = """\
command = verify-anderson
anderson.kind = shift
shift.kind = zero
seed = 21
density.family = power-law
density.hurst = 0.5
mc.radii = 0.3, 0.6
mc.replicas = 120
""" + SMALL_GRID

COUPLING_SELF = """\
command = verify-coupling
seed = 29
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = power-law
density.y.hurst = 0.5
constant = 1.0
mc.replicas = 150
""" + SMALL_GRID

COMPARISON_SELF = """\
command = verify-comparison
seed = 31
density.x.family = power-law
density.x.hurst = 0.5
density.y.family = power-law
density.y.hurst = 0.5
constant = 1.0
mc.radii = 0.3, 0.6, 1.0
mc.replicas = 120
""" + SMALL_GRID


ESTIMATE_HURST = """\
command = estimate-hurst
seed = 37
density.family = power-law
density.hurst = 0.7
spatial_grid.resolution = 256
mc.replicas = 100
""" + SMALL_FREQUENCY_GRID

# Blocks scipy, runs each (config, output) pair of argv through the CLI, and
# fails if a campaign exits nonzero or any scipy module got loaded.
WITHOUT_SCIPY = """\
import sys
sys.modules["scipy"] = None
from specfield.cli import console_main
for config, outdir in zip(sys.argv[1::2], sys.argv[2::2]):
    code = console_main(["--config", config, "--output", outdir])
    assert code == 0, (config, code)
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "scipy" and module is not None]
assert not loaded, loaded
"""

WITHOUT_NUMPY_MA = """\
import sys
from pathlib import Path
from specfield import cli, parse_config
for config, outdir in zip(sys.argv[1::2], sys.argv[2::2]):
    code = cli.run(parse_config(Path(config).read_text(encoding="utf-8")), outdir)
    assert code == 0, (config, code)
assert "numpy.ma" not in sys.modules
"""


def run_cli(tmp_path, text, name="run", extra=()):
    config = tmp_path / f"{name}.cfg"
    config.write_text(text)
    outdir = tmp_path / f"{name}-out"
    code = console_main(["--config", str(config), "--output", str(outdir),
                         *extra])
    return code, outdir


def run_python(*args):
    """A child interpreter that imports the checkout's src/, as the tests do."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def summary_dict(outdir):
    out = {}
    for line in (outdir / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestDensityCheck:
    def test_single_density(self, tmp_path):
        code, outdir = run_cli(tmp_path, CHECK_MAIN)
        assert code == 0
        assert (outdir / "metadata.txt").exists()
        assert (outdir / "admissibility_main.csv").exists()
        summary = summary_dict(outdir)
        assert summary["admissibility.main"] == "admissible"
        assert summary["exit_status"] == "0"
        # one contribution row per annulus
        assert len(read_csv(outdir / "admissibility_main.csv")) == 25

    def test_pair_reports_min_constant(self, tmp_path):
        code, outdir = run_cli(tmp_path, CHECK_PAIR)
        assert code == 0
        summary = summary_dict(outdir)
        assert summary["domination"] == "holds"
        # f_y = ((2 + sin|xi|)/3) f_x, so the smallest C with f_x <= C f_y is
        # max 3/(2 + sin) = 3, approached where the modulation bottoms out
        assert 2.9 < float(summary["min_constant"]) <= 3.0 + 1e-6
        # the certificate records the raw ratio max f_x/f_y it certified
        assert summary["max_ratio"] == summary["min_constant"]

    def test_density_overflow_at_the_low_end_is_a_range_error(self, tmp_path, capsys):
        # at 2^-1022 the power law overflows to inf: a float64 range error of
        # the grid, refused with its annulus, not an "inadmissible" verdict
        code, outdir = run_cli(tmp_path, CHECK_MAIN.replace("j_lo = -12", "j_lo = -1022"))
        assert code == 3 and not (outdir / "summary.txt").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: density PowerLawDensity(")
        assert "not finite in float64 at a node of the annulus [2^-1022, 2^-1021)" in err

    def test_top_of_the_exponent_range_is_admissible_without_warnings(self, tmp_path):
        # r^2 at 2^1022 would overflow; min(1, r)^2 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, outdir = run_cli(tmp_path, CHECK_MAIN.replace("j_hi = 12", "j_hi = 1022"))
        assert code == 0
        assert summary_dict(outdir)["admissibility.main"] == "admissible"

    @pytest.mark.parametrize("dimension,hurst",
                             [(d, h) for d in (1, 2) for h in (0.01, 0.05, 0.95, 0.99)]
                             + [(1, 0.03)])
    def test_extreme_hurst_is_admissible(self, tmp_path, dimension, hurst):
        # at H = 0.03 the grid's annuli shrink by only 2^(-0.06) per step and
        # hold about 60% of the integral; the term rule decides
        code, outdir = run_cli(tmp_path, CHECK_MAIN.replace(
            "hurst = 0.5", f"hurst = {hurst}\ndensity.dimension = {dimension}"))
        assert code == 0
        summary = summary_dict(outdir)
        assert summary["admissibility.main"] == "admissible"
        assert float(summary["admissibility_value.main"]) > 0.0
        assert summary["exit_status"] == "0"

    def test_vanishing_x_has_no_auto_constant(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, CHECK_PAIR.replace(
            "density.x.family = power-law\ndensity.x.hurst = 0.5\n",
            "density.x.family = zero\n"))
        assert code == 3 and not (outdir / "summary.txt").exists()
        assert "f_X vanishes at every node" in capsys.readouterr().err

    def test_metadata_carries_the_resolved_config(self, tmp_path):
        _, outdir = run_cli(tmp_path, CHECK_MAIN)
        metadata = (outdir / "metadata.txt").read_text()
        assert "config_hash = " in metadata
        assert "frequency_grid.j_lo = -12\n" in metadata
        assert parse_config(CHECK_MAIN).echo in metadata
        # density-check places no field on a spatial grid
        assert "spatial_grid" not in metadata


class TestSimulate:
    def test_writes_one_csv_per_replica(self, tmp_path):
        code, outdir = run_cli(tmp_path, SIMULATE)
        assert code == 0
        names = sorted(p.name for p in (outdir / "samples").iterdir())
        assert names == ["metadata.txt", "sample_00000.csv", "sample_00001.csv",
                         "sample_00002.csv"]
        rows = read_csv(outdir / "samples" / "sample_00000.csv")
        assert len(rows) == 6
        assert rows[0]["x"] == "0.0" and rows[0]["value"] == "0.0"

    def test_rerun_is_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, SIMULATE, name="a")
        _, second = run_cli(tmp_path, SIMULATE, name="b")
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_plane_band_is_drawn_by_cholesky(self, tmp_path, monkeypatch, replicas):
        # a 2-d band-limited density is drawn through the Cholesky factor of
        # its K, which is built once per run
        builds = []
        gram = synthesis.covariance_matrix

        def counting(*args):
            builds.append(args)
            return gram(*args)
        monkeypatch.setattr(synthesis, "covariance_matrix", counting)
        text = SIMULATE.replace("replicas = 3", f"replicas = {replicas}").replace(
            "density.family = power-law\ndensity.hurst = 0.5\n",
            "density.family = band-limited\ndensity.dimension = 2\ndensity.outer = 64\n")
        code, outdir = run_cli(tmp_path, text)
        assert code == 0 and len(list((outdir / "samples").glob("*.csv"))) == replicas
        summary = summary_dict(outdir)
        assert summary["sampler.main"] == "cholesky"
        assert summary["sampler_jitter_rung.main"] in {"1", "2", "4", "8"}
        assert len(builds) == 1

    def test_summary_names_the_law_and_the_sampler(self, tmp_path):
        # the density fixes the law; 6 points embed at L = 16, and Brownian
        # increments are white, so the embedding's eigenvalues are flat
        code, outdir = run_cli(tmp_path, SIMULATE)
        assert code == 0
        summary = summary_dict(outdir)
        assert summary["density"].startswith("PowerLawDensity(dimension=1, hurst=0.5")
        assert not any(key.startswith("law.") for key in summary)
        assert summary["sampler.main"] == "circulant"
        assert summary["sampler_size.main"] == "16"
        assert float(summary["sampler_min_ratio.main"]) == pytest.approx(1.0, abs=1e-9)
        code, outdir = run_cli(tmp_path, COUPLING_SELF, name="coupled")
        summary = summary_dict(outdir)
        for field in ("x", "residual"):
            assert summary[f"sampler.{field}"] == "cholesky"
        # the residual of identical densities is zero and needs no factor
        assert summary["sampler_jitter_rung.x"] == "1"
        assert summary["sampler_jitter_rung.residual"] == "0"

    def test_samples_have_a_positive_zero_origin(self, tmp_path):
        # both ways: circulant on 1-d points, Cholesky with more replicas
        # than points
        for name, replicas in (("circulant", 2), ("cholesky", 8)):
            code, outdir = run_cli(tmp_path, SIMULATE.replace(
                "replicas = 3", f"replicas = {replicas}"), name=name)
            assert code == 0
            assert summary_dict(outdir)["sampler.main"] == name
            rows = read_csv(outdir / "samples" / f"sample_{replicas - 1:05d}.csv")
            assert rows[0]["value"] == "0.0"
            assert any(float(r["value"]) != 0.0 for r in rows)

    def test_sampling_reads_no_frequency_grid_node(self, tmp_path):
        # at 2^-1022 the power law overflows, which density-check refuses as
        # a range error of the grid; admissibility comes from the terms
        code, outdir = run_cli(tmp_path, SIMULATE.replace("j_lo = -12", "j_lo = -1022"))
        assert code == 0
        assert summary_dict(outdir)["exit_status"] == "0"


class TestCovariance:
    def test_points_against_closed_form(self, tmp_path):
        text = ("command = covariance\nseed = 2\n"
                "density.family = power-law\ndensity.hurst = 0.5\n"
                "points = 0.25, 0.5, 1.0\n") + SMALL_FREQUENCY_GRID
        code, outdir = run_cli(tmp_path, text)
        assert code == 0
        points = read_csv(outdir / "points.csv")
        assert [p["x"] for p in points] == ["0.25", "0.5", "1.0"]
        entries = {(int(r["i"]), int(r["j"])): float(r["value"])
                   for r in read_csv(outdir / "covariance.csv")}
        # H = 1/2 closed form: K(x, x') = min(x, x') on the positive half-line
        for (i, j), value in entries.items():
            expected = min(0.25 * 2 ** i, 0.25 * 2 ** j)
            assert value == pytest.approx(expected, rel=0.02)


class TestVerifyCommands:
    def test_zero_shift_is_exactly_paired(self, tmp_path):
        code, outdir = run_cli(tmp_path, ANDERSON_ZERO_SHIFT)
        assert code == 0
        rows = read_csv(outdir / "report.csv")
        assert len(rows) == 2
        for row in rows:
            assert row["p_lhs"] == row["p_rhs"]
            assert row["verdict"] == "consistent"
        assert summary_dict(outdir)["worst_verdict"] == "consistent"

    def test_anderson_sum_with_zero_summand(self, tmp_path):
        text = ("command = verify-anderson\nanderson.kind = sum\nseed = 21\n"
                "density.x.family = power-law\ndensity.x.hurst = 0.5\n"
                "density.y.family = zero\n"
                "mc.radii = 0.3, 0.6\nmc.replicas = 120\n") + SMALL_GRID
        code, outdir = run_cli(tmp_path, text)
        assert code == 0
        for row in read_csv(outdir / "report.csv"):
            assert row["p_lhs"] == row["p_rhs"]

    def test_coupling_self_domination(self, tmp_path):
        code, outdir = run_cli(tmp_path, COUPLING_SELF)
        assert code == 0
        summary = summary_dict(outdir)
        assert summary["cross_orthogonality"] == "0.0"
        assert summary["covariance_match_passed"] == "true"
        rows = read_csv(outdir / "coupling.csv")
        assert len(rows) == 36
        assert all(r["cross"] == "0.0" for r in rows)

    def test_coupling_with_a_vanishing_x_has_no_auto_constant(self, tmp_path, capsys):
        code, outdir = run_cli(tmp_path, COUPLING_SELF.replace(
            "density.x.family = power-law\ndensity.x.hurst = 0.5\n",
            "density.x.family = zero\n").replace("constant = 1.0", "constant = auto"))
        assert code == 3 and not (outdir / "summary.txt").exists()
        assert "f_X vanishes at every node" in capsys.readouterr().err

    def test_comparison_self_domination(self, tmp_path):
        code, outdir = run_cli(tmp_path, COMPARISON_SELF)
        assert code == 0
        for row in read_csv(outdir / "report.csv"):
            assert row["p_lhs"] == row["p_rhs"]
            assert row["verdict"] == "consistent"

    def test_comparison_auto_constant_and_radii(self, tmp_path, monkeypatch):
        builds = []
        gram = synthesis.covariance_matrix

        def counting(*args):
            builds.append(args)
            return gram(*args)
        monkeypatch.setattr(synthesis, "covariance_matrix", counting)
        text = ("command = verify-comparison\nseed = 37\n"
                "density.x.family = power-law\ndensity.x.hurst = 0.5\n"
                "density.y.family = perturbed\n"
                "density.y.base.family = power-law\n"
                "density.y.base.hurst = 0.5\n"
                "density.y.modulation.offset = 2.0\n"
                "density.y.modulation.amplitude = 1.0\n"
                "constant = auto\nmc.radii = auto\nmc.replicas = 120\n"
                "mc.pilot_replicas = 100\n") + SMALL_GRID
        code, outdir = run_cli(tmp_path, text)
        summary = summary_dict(outdir)
        assert code in (0, 2)
        assert summary["worst_verdict"] in ("consistent", "underpowered")
        # auto C for f_x <= C f_y with f_y >= f_x: the ratio 1/(2 + sin)
        # approaches 1 at the modulation's troughs
        assert 0.99 < float(summary["constant"]) <= 1.0 + 1e-6
        radii = [float(v) for k, v in summary.items() if k.startswith("radius.")]
        assert len(radii) == 5
        assert radii == sorted(radii)
        # the pilot and the comparison draw from one coupling, both by
        # Cholesky on 6 points: one K of x and one of the residual
        assert len(builds) == 2

    def test_estimate_hurst_small_run(self, tmp_path):
        text = ("command = estimate-hurst\nseed = 41\n"
                "density.family = power-law\ndensity.hurst = 0.5\n"
                "spatial_grid.resolution = 256\nmc.replicas = 100\n"
                "frequency_grid.j_lo = -12\nfrequency_grid.j_hi = 12\n"
                "frequency_grid.nodes_per_annulus = 16\n")
        code, outdir = run_cli(tmp_path, text)
        assert code == 0
        summary = summary_dict(outdir)
        assert abs(float(summary["estimate"]) - 0.5) < 0.05
        assert len(read_csv(outdir / "variation.csv")) == 4


class TestDeterminism:
    """With more replicas than points, a row never depends on the block it is
    drawn in, so a campaign split into many blocks writes the bytes of the
    same campaign in one block."""

    def split_and_whole(self, tmp_path, monkeypatch, text, sampler):
        whole = run_cli(tmp_path, text, name="whole")[1]
        blocks = []
        sample_block = sampler.sample_block
        monkeypatch.setattr(synthesis, "block_rows", lambda width: 16)
        monkeypatch.setattr(sampler, "sample_block",
                            lambda self, seed, ids: blocks.append(len(ids))
                            or sample_block(self, seed, ids))
        split = run_cli(tmp_path, text, name="split")[1]
        return whole, split, blocks

    def test_block_split_does_not_change_any_byte(self, tmp_path, monkeypatch):
        whole, split, blocks = self.split_and_whole(tmp_path, monkeypatch,
                                                    COMPARISON_SELF, synthesis.FieldPair)
        # 120 replicas, 16 per block, both components drawn by one coupled draw
        assert blocks == [16] * 7 + [8]
        assert (whole / "report.csv").exists()
        assert tree_bytes(whole) == tree_bytes(split)

    def test_block_split_does_not_change_any_byte_in_the_plane(self, tmp_path,
                                                               monkeypatch):
        text = ("command = verify-anderson\nseed = 21\nanderson.kind = shift\n"
                "density.family = power-law\ndensity.dimension = 2\n"
                "density.hurst = 0.5\nnorm.kind = holder\nnorm.alpha = 0.25\n"
                "mc.radii = 0.5, 1.0, 2.0\nmc.replicas = 120\n"
                "spatial_grid.resolution = 4\n")
        whole, split, blocks = self.split_and_whole(tmp_path, monkeypatch, text,
                                                    synthesis.SpectralSynthesizer)
        assert blocks == [16] * 7 + [8]
        assert (whole / "report.csv").exists()
        assert tree_bytes(whole) == tree_bytes(split)


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = console_main(["--config", str(tmp_path / "nope.cfg")])
        assert code == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_reports_lines(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("command = density-check\n"
                          "density.family = power-law\n"
                          "density.hurst = 1.2\n")
        code = console_main(["--config", str(config)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: line 3: H must lie in (0,1), got 1.2" in err
        assert "master seed is mandatory" in err

    @pytest.mark.parametrize("old, new, line", [
        ("mc.radii = 0.3, 0.6, 1.0", "mc.radii = 0.3, nan", 8),
        ("mc.radii = 0.3, 0.6, 1.0", "mc.radii = inf", 8),
        ("constant = 1.0", "constant = nan", 7),
        ("constant = 1.0", "constant = inf", 7)],
        ids=["radius-nan", "radius-inf", "constant-nan", "constant-inf"])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, old, new, line):
        code, outdir = run_cli(tmp_path, COMPARISON_SELF.replace(old, new))
        assert code == 3 and not outdir.exists()
        assert f"error: line {line}: " in capsys.readouterr().err

    def test_failed_domination_is_a_runtime_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path,
                          COUPLING_SELF.replace("constant = 1.0",
                                                "constant = 0.5"))
        assert code == 3
        assert "domination" in capsys.readouterr().err

    def test_out_of_range_exponent_is_a_config_error(self, tmp_path, capsys):
        # 2^1100 overflows a float; within +-1022 every annulus edge is finite
        code, outdir = run_cli(tmp_path, CHECK_MAIN.replace("j_hi = 12", "j_hi = 1100"))
        assert code == 3 and not outdir.exists()
        assert capsys.readouterr().err == (
            "error: line 6: frequency_grid.j_hi must be <= 1022, got 1100\n")

    def test_any_parse_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError("cannot allocate the frequency grid")
        monkeypatch.setattr(cli, "parse_config", exhausted)
        code, outdir = run_cli(tmp_path, CHECK_MAIN)
        assert code == 3 and not outdir.exists()
        assert capsys.readouterr().err == "error: cannot allocate the frequency grid\n"

    def test_indefinite_kernel_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        # 150 replicas on 6 points draw through the exact sampler on K; a K
        # with eigenvalue -1 resists every rung of the jitter ladder
        def indefinite(density, points, grid):
            return 2.0 * np.ones((points.size, points.size)) - np.eye(points.size)
        monkeypatch.setattr(synthesis, "covariance_matrix", indefinite)
        outdir = tmp_path / "out"
        assert cli.run(parse_config(COUPLING_SELF), outdir) == 3
        assert ("6 x 6 covariance matrix is not positive semidefinite"
                in capsys.readouterr().err)
        assert not (outdir / "summary.txt").exists()

    def test_replicas_reaching_the_pilot_streams_exit_before_any_draw(
            self, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(synthesis, "hermitian_noise", lambda *args: draws.append(args))
        text = COMPARISON_SELF.replace("mc.radii = 0.3, 0.6, 1.0", "mc.radii = auto")
        code, _ = run_cli(tmp_path, text.replace("mc.replicas = 120",
                                                 "mc.replicas = 2147483649"))
        assert code == 3 and draws == []
        assert "2147483649 replicas" in capsys.readouterr().err

    def test_output_falls_back_to_the_config_key(self, tmp_path):
        outdir = tmp_path / "from-config"
        config = tmp_path / "with-output.cfg"
        config.write_text(CHECK_MAIN + f"output = {outdir}\n")
        code = console_main(["--config", str(config)])
        assert code == 0
        assert (outdir / "summary.txt").exists()


class TestExitPlumbing:
    @pytest.mark.parametrize("stub_code", [cli.EXIT_VIOLATED,
                                           cli.EXIT_UNDERPOWERED])
    def test_runner_code_lands_in_summary_and_return(self, tmp_path,
                                                     monkeypatch, stub_code):
        def stub(cfg, outdir, verbose):
            return stub_code, ["stub = yes"]
        monkeypatch.setitem(cli._RUNNERS, "density-check", stub)
        code = cli.run(parse_config(CHECK_MAIN), tmp_path / "out")
        assert code == stub_code
        summary = summary_dict(tmp_path / "out")
        assert summary["exit_status"] == str(stub_code)
        assert summary["stub"] == "yes"

    def test_runner_exception_becomes_exit_3(self, tmp_path, monkeypatch,
                                             capsys):
        def stub(cfg, outdir, verbose):
            raise RuntimeError("synthetic failure")
        monkeypatch.setitem(cli._RUNNERS, "density-check", stub)
        code = cli.run(parse_config(CHECK_MAIN), tmp_path / "out")
        assert code == 3
        assert "synthetic failure" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CHECK_MAIN)
    result = run_python("-m", "specfield", "--config", str(config),
                        "--output", str(tmp_path / "out"))
    assert result.returncode == 0
    assert (tmp_path / "out" / "summary.txt").exists()


def test_campaigns_run_without_scipy(tmp_path):
    # scipy is a test oracle, not a runtime dependency: no campaign may
    # import it, lazily or otherwise
    args = []
    for name, text in (("comparison", COMPARISON_SELF), ("coupling", COUPLING_SELF),
                       ("hurst", ESTIMATE_HURST), ("check", CHECK_PAIR)):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        args += [str(config), str(tmp_path / f"{name}-out")]
    result = run_python("-c", WITHOUT_SCIPY, *args)
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / f"{name}-out" / "summary.txt").exists()
               for name in ("comparison", "coupling", "hurst", "check"))


def test_shipped_configs_leave_numpy_ma_unloaded(tmp_path):
    # np.unique, np.quantile and np.median import numpy.ma lazily (about
    # 15 ms under numpy 2.4); no command may reach them
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert {"verify-comparison", "verify-coupling", "covariance"} <= {
        config.stem for config in configs}
    args = []
    for config in configs:
        args += [str(config), str(tmp_path / config.stem)]
    result = run_python("-c", WITHOUT_NUMPY_MA, *args)
    assert result.returncode == 0, result.stderr
    assert all((tmp_path / config.stem / "summary.txt").exists() for config in configs)
