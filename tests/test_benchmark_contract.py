"""Smoke test of the package names the benchmark in perfbench/ relies on.

The benchmark imports or wraps, among others, cli.parse_config,
cli.estimate_min_C, cli.check_domination, cli.covariance_matrix,
cli.AUTO_CONSTANT_HEADROOM, the 6-argument CouplingSynthesizer constructor,
SpectralSynthesizer.sample, CouplingSynthesizer.sample (the tracer wraps
both), and an ExactFieldSampler sample that HolderNorm accepts without a
grid.  Its trace mode also reruns each workload with `--threads 2` and
records that probe as absent when the CLI answers exit 2 with "unrecognized
arguments".  Each check runs in its own interpreter on a tiny config, so
nothing the tracer patches can leak into other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

TINY = """\
frequency_grid.j_lo = -12
frequency_grid.j_hi = 12
frequency_grid.nodes_per_annulus = 16
spatial_grid.resolution = 6
mc.replicas = 150
mc.confidence = 0.99
"""

COUPLED = TINY + """\
command = verify-comparison
seed = 7
density.x.family = perturbed
density.x.base.family = power-law
density.x.base.hurst = 0.5
density.x.modulation.offset = 2.0
density.x.modulation.amplitude = 1.0
density.x.modulation.scale = 3.0
density.y.family = power-law
density.y.hurst = 0.5
constant = auto
mc.radii = auto
mc.radii_count = 3
mc.pilot_replicas = 100
"""

SINGLE = TINY + """\
command = verify-anderson
anderson.kind = shift
seed = 21
density.family = power-law
density.hurst = 0.5
mc.radii = 0.25, 0.5, 1.0
"""


def run_child(args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_setup_probe_is_ready(tmp_path):
    for name, body in (("coupled", COUPLED), ("single", SINGLE)):
        config = tmp_path / f"{name}.cfg"
        config.write_text(body)
        child = run_child([str(PERFBENCH / "setup_probe.py"), str(config)], tmp_path)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "ready"


def test_tracer_runs_a_comparison(tmp_path):
    config = tmp_path / "coupled.cfg"
    config.write_text(COUPLED)
    child = run_child([str(PERFBENCH / "tracer.py"), str(tmp_path / "spans.pickle"),
                       "--config", str(config), "--output", str(tmp_path / "out")],
                      tmp_path)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "spans.pickle").stat().st_size > 0


def test_plane_radii_increase(tmp_path):
    child = run_child(["-c", "import workloads; print(*workloads.plane_radii(21))"],
                      tmp_path)
    assert child.returncode == 0, child.stderr
    radii = [float(r) for r in child.stdout.split()]
    assert len(radii) == 3
    assert 0.0 < radii[0] < radii[1] < radii[2]


def test_threads_flag_is_unrecognized(tmp_path):
    config = tmp_path / "coupled.cfg"
    config.write_text(COUPLED)
    child = run_child(["-m", "specfield", "--config", str(config), "--output",
                       str(tmp_path / "out"), "--threads", "2"], tmp_path)
    assert child.returncode == 2
    assert "unrecognized arguments" in child.stderr
    assert not (tmp_path / "out").exists()
