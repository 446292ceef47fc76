"""The four campaign workloads: config generation from a seed, and the
correctness gate applied to every CLI run.

Each workload is one shipped campaign at the size a user runs it.  They are
chosen to load different layers:

- mc-compare: replica-bound (24,000 small draws); rng and per-sample overhead
  in synthesis dominate, plus the verdict step.
- long-paths: synthesis-matrix-bound (4096 points x 5248 nodes, 344 MB);
  rng is negligible.  The opposite shape to mc-compare.
- coupling-law: the moment step of verification (two (n, N, N) tensors) and
  the reference covariance assembly.
- plane-2d: the only 2-d workload (167,936 frequency nodes) and the only one
  where the Holder norm does real work.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Family-wise false-alarm rate of the benchmark's own coupling-law check.
COUPLING_ALPHA = 1e-3
HURST_TOLERANCE = 0.05         # the tolerance of acceptance test 08
PLANE_PILOT = 1000
PLANE_QUANTILES = (0.25, 0.5, 0.75)

_PERTURBED_PAIR = """\
density.x.family = perturbed
density.x.base.family = power-law
density.x.base.hurst = 0.5
density.x.modulation.offset = 2.0
density.x.modulation.amplitude = 1.0
density.x.modulation.scale = 3.0
density.y.family = power-law
density.y.hurst = 0.5
"""


def read_summary(outdir: Path) -> dict:
    summary = {}
    for line in (outdir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            summary[key] = value
    return summary


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base_seed: int       # master seed at --seed 0: the shipped config's seed
    samples: int         # synthesizer draws per run, pilot included
    replicas: int
    body: str
    radii: Callable[[int], tuple] | None = None   # master seed -> fixed radii

    def master_seed(self, seed: int) -> int:
        return (self.base_seed + seed) % 2 ** 64

    def config(self, seed: int) -> str:
        master = self.master_seed(seed)
        text = f"command = {self.command}\nseed = {master}\nmc.replicas = {self.replicas}\n"
        if self.radii is not None:
            text += "mc.radii = " + ", ".join(repr(r) for r in self.radii(master)) + "\n"
        return text + self.body

    def check(self, outdir: Path, exit_code: int) -> list:
        """Problems with one CLI run's outputs; empty when it is correct."""
        try:
            summary = read_summary(outdir)
        except OSError as exc:
            return [f"no summary: {exc}"]
        if summary.get("exit_status") != str(exit_code):
            return [f"exit {exit_code} but summary says {summary.get('exit_status')}"]
        if self.command == "estimate-hurst":
            estimate = float(summary["estimate"])
            if exit_code != 0 or abs(estimate - 0.7) > HURST_TOLERANCE:
                return [f"exit {exit_code}, estimate {estimate} not within "
                        f"{HURST_TOLERANCE} of 0.7"]
            return []
        if self.command == "verify-coupling":
            return self._check_coupling(outdir, summary, exit_code)
        problems = []
        if exit_code != 0 or summary.get("worst_verdict") != "consistent":
            problems.append(f"exit {exit_code}, worst_verdict "
                            f"{summary.get('worst_verdict')}")
        with open(outdir / "report.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                if not 0.0 < float(row["p_rhs"]) < 1.0:
                    problems.append(f"vacuous radius {row['radius']} "
                                    f"(p_rhs = {row['p_rhs']})")
        return problems

    def _check_coupling(self, outdir: Path, summary: dict, exit_code: int) -> list:
        """The CLI's verdict must match its own statistics, and the law must
        hold by a Bonferroni-calibrated test over all pairs.

        The CLI's checks are a maximum over 4,096 pairs at 3 standard errors
        with no multiplicity correction, so a correct sampler fails them on
        about a third of seeds (7 of 22 tried); their verdict is reported,
        not gated.  Here the standard errors come from the reference
        covariance K of y: Var(y_i y_j) = K_ii K_jj + K_ij^2 for a centred
        Gaussian, and with C = 1, Var(x1_i x2_j) = K1_ii K2_jj <= K_ii K_jj.
        """
        passed = (summary["covariance_match_passed"] == "true"
                  and summary["cross_orthogonality_passed"] == "true")
        if exit_code != (0 if passed else 1):
            return [f"exit {exit_code} disagrees with the summary's checks"]
        rows = []
        with open(outdir / "coupling.csv", newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                rows.append((int(row["i"]), int(row["j"]), float(row["empirical"]),
                             float(row["reference"]), float(row["cross"])))
        diag = {i: ref for i, j, _, ref, _ in rows if i == j}
        tests = len(rows) + len(diag) * (len(diag) + 1) // 2
        limit = statistics.NormalDist().inv_cdf(1.0 - COUPLING_ALPHA / (2 * tests))
        worst_match = worst_cross = 0.0
        for i, j, empirical, reference, cross in rows:
            var_y = diag[i] * diag[j]
            worst_cross = max(worst_cross, _z(cross, var_y / self.replicas))
            if i <= j:
                worst_match = max(worst_match, _z(empirical - reference,
                                                  (var_y + reference ** 2) / self.replicas))
        if max(worst_match, worst_cross) > limit:
            return [f"coupling law rejected: max z {worst_match:.2f} (covariance), "
                    f"{worst_cross:.2f} (cross) > {limit:.2f}"]
        return []


def _z(deviation: float, variance: float) -> float:
    if variance <= 0.0:
        return 0.0 if deviation == 0.0 else float("inf")
    return abs(deviation) / variance ** 0.5


def plane_radii(master_seed: int) -> tuple:
    """Quantiles of ||X|| for the plane-2d field, from a pilot drawn with the
    closed-form covariance on the pilot stream range of verification."""
    import specfield as sf
    from specfield.verification import PILOT_REPLICATE_BASE

    space = sf.uniform_spatial_grid(2, 8)
    sampler = sf.ExactFieldSampler(sf.power_law_covariance_matrix(space.points, 0.5),
                                   space)
    norm = sf.HolderNorm(0.25)
    norms = sorted(norm(sampler.sample(master_seed, PILOT_REPLICATE_BASE + k))
                   for k in range(PLANE_PILOT))
    return tuple(norms[int(q * PLANE_PILOT)] for q in PLANE_QUANTILES)


WORKLOADS = {w.name: w for w in (
    Workload("mc-compare", "verify-comparison", 7, 24_000, 10_000,
             _PERTURBED_PAIR + "constant = auto\nmc.radii = auto\nmc.radii_count = 5\n"
             "mc.radii_span = 0.9\nmc.pilot_replicas = 2000\nmc.confidence = 0.99\n"),
    Workload("long-paths", "estimate-hurst", 41, 100, 100,
             "density.family = power-law\ndensity.hurst = 0.7\n"
             "spatial_grid.resolution = 4096\nmc.confidence = 0.99\n"),
    Workload("coupling-law", "verify-coupling", 9, 10_000, 5_000,
             _PERTURBED_PAIR + "constant = 1.0\nspatial_grid.resolution = 64\n"
             "mc.confidence = 0.99\n"),
    Workload("plane-2d", "verify-anderson", 21, 300, 300,
             "anderson.kind = shift\ndensity.family = power-law\n"
             "density.dimension = 2\ndensity.hurst = 0.5\nshift.kind = linear\n"
             "shift.slope = 0.5\nnorm.kind = holder\nnorm.alpha = 0.25\n"
             "spatial_grid.resolution = 8\nmc.confidence = 0.99\n", plane_radii),
)}
