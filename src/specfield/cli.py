"""Command-line front end.

Reads a config file, runs the requested campaign, and writes deterministic
artifacts into the output directory: metadata.txt (resolved config echo and
its hash), command-specific CSV data, and summary.txt (flat key = value).
Files never contain timestamps or runtimes, so a rerun with the same config
is byte-identical.

Exit status: 0 all checks pass/consistent, 1 any violated, 2 any
underpowered (with no violation), 3 runtime or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .covariance import covariance_matrix
from .spectral import check_admissible, check_domination, estimate_min_C
from .synthesis import CouplingSynthesizer, SpectralSynthesizer
from .verification import (MCConfig, coupling_norm_quantiles, estimate_holder_exponent,
                           verify_anderson_shift, verify_anderson_sum,
                           verify_comparison, verify_coupling_law)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNDERPOWERED = 2
EXIT_ERROR = 3

# Relative headroom on an auto-estimated domination constant.
AUTO_CONSTANT_HEADROOM = 1e-12

_VERDICT_EXIT = {"consistent": EXIT_OK, "admissible": EXIT_OK, "holds": EXIT_OK,
                 "underpowered": EXIT_UNDERPOWERED,
                 "violated": EXIT_VIOLATED, "inadmissible": EXIT_VIOLATED}


def _fmt(value) -> str:
    """Stable shortest-roundtrip text for a float."""
    return repr(float(value))


def _combine_exits(codes) -> int:
    codes = list(codes)
    if EXIT_VIOLATED in codes:
        return EXIT_VIOLATED
    if EXIT_UNDERPOWERED in codes:
        return EXIT_UNDERPOWERED
    return EXIT_OK


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.echo.encode("utf-8")).hexdigest()


def _write_metadata(outdir: Path, cfg: RunConfig):
    lines = ["format = specfield-run-metadata-1",
             f"package_version = {__version__}",
             f"master_seed = {cfg.master_seed}",
             f"config_hash = {_config_hash(cfg)}",
             f"frequency_grid = {cfg.frequency_grid.grid_id}"]
    if cfg.spatial_grid is not None:
        lines.append(f"spatial_grid = {cfg.spatial_grid.grid_id}")
    lines += ["", "# resolved configuration (defaults filled in)"]
    _write_text(outdir / "metadata.txt", "\n".join(lines) + "\n" + cfg.echo)


def _write_summary(outdir: Path, cfg: RunConfig, extra_lines, exit_code: int):
    lines = [f"command = {cfg.command}",
             f"master_seed = {cfg.master_seed}",
             f"config_hash = {_config_hash(cfg)}",
             f"package_version = {__version__}"]
    lines.extend(extra_lines)
    lines.append(f"exit_status = {exit_code}")
    _write_text(outdir / "summary.txt", "\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows):
    """The header line, then one line per row of text fields."""
    _write_text(path, "\n".join([header] + [",".join(row) for row in rows]) + "\n")


def _write_inequality_csv(path: Path, report):
    header = "radius,p_lhs,p_rhs,lower_lhs,upper_lhs,lower_rhs,upper_rhs,margin,verdict"
    _write_csv(path, header, ([*map(_fmt, (row.radius, row.p_lhs, row.p_rhs, row.lower_lhs,
                                           row.upper_lhs, row.lower_rhs, row.upper_rhs,
                                           row.margin)), row.verdict] for row in report.rows))


def _inequality_summary_lines(report):
    lines = [f"inequality = {report.name}",
             f"n_replicas = {report.n_replicas}",
             f"worst_verdict = {report.worst_verdict}"]
    for i, row in enumerate(report.rows, start=1):
        lines.append(f"radius.{i} = {_fmt(row.radius)}")
        lines.append(f"verdict.{i} = {row.verdict}")
        lines.append(f"margin.{i} = {_fmt(row.margin)}")
    return lines + _sampler_lines(report.samplers)


def _sampler_lines(samplers):
    """sampler.<field> and the way's margins, per drawn field."""
    return [f"{key}.{field} = {_fmt(value) if isinstance(value, float) else value}"
            for field, record in samplers for key, value in record]


def _write_sample_csv(path: Path, grid, values: np.ndarray):
    _write_csv(path, "x,value" if grid.dimension == 1 else "x0,x1,value",
               ([*map(_fmt, point), _fmt(value)]
                for point, value in zip(grid.points, values)))


def _auto_constant(bound: float) -> float:
    """The constant = auto rule: the grid bound plus its relative headroom."""
    if bound == 0.0:
        raise RuntimeError("constant = auto has no value: f_X vanishes at every node of "
                           "the grid, so there is no smallest positive C; set constant "
                           "explicitly")
    return bound * (1.0 + AUTO_CONSTANT_HEADROOM)


def _resolve_constant(cfg: RunConfig):
    """The domination constant and its certificate for coupled commands."""
    density_x = cfg.densities["x"]
    density_y = cfg.densities["y"]
    if cfg.constant_auto:
        bound = estimate_min_C(density_x, density_y, cfg.frequency_grid)
        if not np.isfinite(bound):
            raise RuntimeError("no finite domination constant exists on this grid "
                               "(the dominating density vanishes where the "
                               "dominated one does not)")
        constant = _auto_constant(bound)
    else:
        constant = cfg.constant
    certificate = check_domination(density_x, density_y, constant, cfg.frequency_grid)
    if not certificate.holds:
        v = certificate.violation
        raise RuntimeError(f"domination f_X <= {constant} * f_Y fails at xi = {v.node} "
                           f"({v.dominated_value} > {v.bound_value}); "
                           "raise constant or use constant = auto")
    return constant, certificate


def _mc_config(cfg: RunConfig, radii=()) -> MCConfig:
    return MCConfig(cfg.mc_replicas, cfg.master_seed, cfg.frequency_grid,
                    cfg.spatial_grid, tuple(radii), cfg.confidence)


# --------------------------------------------------------------------------
# command runners (each returns exit code and summary lines, writes CSVs)


def _run_density_check(cfg: RunConfig, outdir: Path, verbose: bool):
    lines = []
    codes = []
    exponents = np.arange(cfg.frequency_grid.j_lo, cfg.frequency_grid.j_hi + 1)
    for role in sorted(cfg.densities):
        density = cfg.densities[role]
        result = check_admissible(density, cfg.frequency_grid)
        _write_csv(outdir / f"admissibility_{role}.csv", "annulus_exponent,contribution",
                   ((str(j), _fmt(value))
                    for j, value in zip(exponents, result.contributions)))
        lines.append(f"density.{role} = {density.label}")
        lines.append(f"admissibility.{role} = {result.status}")
        if result.value is not None:
            lines.append(f"admissibility_value.{role} = {_fmt(result.value)}")
        if result.detail:
            lines.append(f"admissibility_detail.{role} = {result.detail}")
        codes.append(_VERDICT_EXIT[result.status])

    if "x" in cfg.densities and "y" in cfg.densities:
        density_x, density_y = cfg.densities["x"], cfg.densities["y"]
        bound = estimate_min_C(density_x, density_y, cfg.frequency_grid)
        lines.append(f"min_constant = {_fmt(bound) if np.isfinite(bound) else 'inf'}")
        constant = _auto_constant(bound) if cfg.constant_auto else cfg.constant
        if not np.isfinite(bound):
            lines.append("domination = violated")
            codes.append(EXIT_VIOLATED)
        elif constant is not None:
            certificate = check_domination(density_x, density_y, constant,
                                           cfg.frequency_grid)
            lines.append(f"domination_constant = {_fmt(constant)}")
            lines.append(f"domination = {certificate.verdict}")
            lines.append(f"max_ratio = {_fmt(certificate.max_ratio)}")
            if certificate.violation is not None:
                v = certificate.violation
                node = ";".join(_fmt(c) for c in v.node)
                lines.append(f"violation_node = {node}")
            codes.append(_VERDICT_EXIT[certificate.verdict])
    return _combine_exits(codes), lines


def _run_simulate(cfg: RunConfig, outdir: Path, verbose: bool):
    density = cfg.densities["main"]
    samples_dir = outdir / "samples"
    samples_dir.mkdir(exist_ok=True)
    sampler = SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)
    sampler.prepare(cfg.replicas)
    for k in range(cfg.replicas):
        values = sampler.sample_block(cfg.master_seed, [k])[0]
        _write_sample_csv(samples_dir / f"sample_{k:05d}.csv", cfg.spatial_grid, values)
        if verbose:
            print(f"wrote sample {k} (stream {k})")
    side_lines = ["# stream id for sample_NNNNN.csv is NNNNN",
                  f"master_seed = {cfg.master_seed}",
                  f"density = {density.label}",
                  f"frequency_grid = {cfg.frequency_grid.grid_id}",
                  f"spatial_grid = {cfg.spatial_grid.grid_id}"]
    _write_text(samples_dir / "metadata.txt", "\n".join(side_lines) + "\n")
    lines = [f"replicas = {cfg.replicas}",
             f"density = {density.label}"] + _sampler_lines((("main", sampler.describe()),))
    return EXIT_OK, lines


def _run_covariance(cfg: RunConfig, outdir: Path, verbose: bool):
    density = cfg.densities["main"]
    if cfg.points:
        points = np.asarray(cfg.points, dtype=float)[:, None]
        matrix = covariance_matrix(density, points, cfg.frequency_grid)
    else:
        points = cfg.spatial_grid.points
        matrix = covariance_matrix(density, cfg.spatial_grid, cfg.frequency_grid)
    _write_csv(outdir / "points.csv", "index,x" if points.shape[1] == 1 else "index,x0,x1",
               ([str(i), *map(_fmt, point)] for i, point in enumerate(points)))
    _write_csv(outdir / "covariance.csv", "i,j,value",
               ((str(i), str(j), repr(value)) for i, entries in enumerate(matrix.tolist())
                for j, value in enumerate(entries)))
    lines = [f"density = {density.label}",
             f"size = {len(matrix)}",
             f"max_diagonal = {_fmt(np.max(np.diag(matrix)))}"]
    return EXIT_OK, lines


def _run_verify_anderson(cfg: RunConfig, outdir: Path, verbose: bool):
    mc = _mc_config(cfg, cfg.radii)
    if cfg.anderson_kind == "shift":
        density = cfg.densities["main"]
        if cfg.shift_kind == "zero":
            shift = np.zeros(cfg.spatial_grid.size)
        else:
            shift = cfg.shift_slope * np.sum(cfg.spatial_grid.points, axis=1)
        report = verify_anderson_shift(density, shift, cfg.norm, mc)
    else:
        report = verify_anderson_sum(cfg.densities["x"], cfg.densities["y"],
                                     cfg.norm, mc)
    _write_inequality_csv(outdir / "report.csv", report)
    if verbose:
        print(f"{report.name}: {report.worst_verdict}")
    return _VERDICT_EXIT[report.worst_verdict], _inequality_summary_lines(report)


def _run_verify_coupling(cfg: RunConfig, outdir: Path, verbose: bool):
    constant, certificate = _resolve_constant(cfg)
    mc = _mc_config(cfg)
    report = verify_coupling_law(cfg.densities["x"], cfg.densities["y"],
                                 constant, mc, certificate)
    tables = (report.empirical.tolist(), report.reference.tolist(), report.cross.tolist())
    _write_csv(outdir / "coupling.csv", "i,j,empirical,reference,cross",
               ([str(i), str(j), *map(repr, entries)] for i, row in enumerate(zip(*tables))
                for j, entries in enumerate(zip(*row))))
    lines = [f"constant = {_fmt(constant)}",
             f"covariance_match = {_fmt(report.covariance_match)}",
             f"covariance_match_passed = {str(report.covariance_match_passed).lower()}",
             f"cross_orthogonality = {_fmt(report.cross_orthogonality)}",
             f"cross_orthogonality_passed = "
             f"{str(report.cross_orthogonality_passed).lower()}"]
    lines += _sampler_lines(report.samplers)
    if verbose:
        print(f"coupling law: match {report.covariance_match:.3f} "
              f"cross {report.cross_orthogonality:.3f}")
    return (EXIT_OK if report.passed else EXIT_VIOLATED), lines


def _run_verify_comparison(cfg: RunConfig, outdir: Path, verbose: bool):
    constant, certificate = _resolve_constant(cfg)
    coupler = CouplingSynthesizer(cfg.densities["x"], cfg.densities["y"], constant,
                                  certificate, cfg.frequency_grid, cfg.spatial_grid)
    radii = cfg.radii
    if cfg.radii_auto:
        radii = coupling_norm_quantiles(coupler, cfg.norm, _mc_config(cfg), cfg.radii_count,
                                        cfg.radii_span, cfg.pilot_replicas)
    report = verify_comparison(coupler, cfg.norm, _mc_config(cfg, radii))
    _write_inequality_csv(outdir / "report.csv", report)
    lines = [f"constant = {_fmt(constant)}"]
    lines.extend(_inequality_summary_lines(report))
    if verbose:
        print(f"comparison: {report.worst_verdict}")
    return _VERDICT_EXIT[report.worst_verdict], lines


def _run_estimate_hurst(cfg: RunConfig, outdir: Path, verbose: bool):
    density = cfg.densities["main"]
    mc = _mc_config(cfg)
    estimate = estimate_holder_exponent(density, mc)
    _write_csv(outdir / "variation.csv", "scale,lag,mean_log2_variation",
               ((str(j), str(1 << j), _fmt(value))
                for j, value in zip(estimate.scales, estimate.mean_log2_variation)))
    lines = [f"density = {density.label}",
             f"estimate = {_fmt(estimate.estimate)}",
             f"stderr = {_fmt(estimate.stderr)}",
             f"ci_lower = {_fmt(estimate.ci_lower)}",
             f"ci_upper = {_fmt(estimate.ci_upper)}",
             f"confidence = {_fmt(estimate.confidence)}",
             f"n_replicas = {estimate.n_replicas}"] + _sampler_lines(estimate.samplers)
    return EXIT_OK, lines


_RUNNERS = {"density-check": _run_density_check,
            "simulate": _run_simulate,
            "covariance": _run_covariance,
            "verify-anderson": _run_verify_anderson,
            "verify-coupling": _run_verify_coupling,
            "verify-comparison": _run_verify_comparison,
            "estimate-hurst": _run_estimate_hurst}


def run(cfg: RunConfig, output_dir=None, verbose: bool = False) -> int:
    """Execute one validated RunConfig; returns the exit status."""
    outdir = Path(output_dir if output_dir is not None
                  else (cfg.output or "specfield-run"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_metadata(outdir, cfg)
        started = time.perf_counter()
        exit_code, summary_lines = _RUNNERS[cfg.command](cfg, outdir, verbose)
        if verbose:
            print(f"{cfg.command}: {time.perf_counter() - started:.1f} s")
        _write_summary(outdir, cfg, summary_lines, exit_code)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return exit_code


def console_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specfield",
        description="Simulate Gaussian fields with stationary increments and "
                    "verify ball-probability inequalities.")
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--output", default=None,
                        help="output directory (default: the config's output key, "
                             "or ./specfield-run)")
    parser.add_argument("--verbose", action="store_true",
                        help="print progress and runtimes to stdout")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for line in exc.format_errors():
            print(f"error: {line}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run(cfg, args.output, args.verbose)


if __name__ == "__main__":
    sys.exit(console_main())
