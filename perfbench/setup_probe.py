"""Build everything a campaign needs before its first replica, then report.

Usage: python setup_probe.py <config>

Imports specfield, parses the config (which builds the grids), resolves the
domination constant and certificate for coupled commands, builds the
synthesizer, and for verify-coupling the reference covariance matrix, all
through the names the CLI path looks up.  Prints "ready" when done; the
caller times launch to that line.
"""

import sys
from pathlib import Path

from specfield import cli, verification

COUPLED = ("verify-coupling", "verify-comparison")


def build(cfg):
    if cfg.command not in COUPLED:
        density = cfg.densities["main"]
        return cli.SpectralSynthesizer(density, cfg.frequency_grid, cfg.spatial_grid)
    density_x, density_y = cfg.densities["x"], cfg.densities["y"]
    constant = cfg.constant
    if cfg.constant_auto:
        constant = (cli.estimate_min_C(density_x, density_y, cfg.frequency_grid)
                    * (1.0 + cli.AUTO_CONSTANT_HEADROOM))
    certificate = cli.check_domination(density_x, density_y, constant,
                                       cfg.frequency_grid)
    built = [verification.CouplingSynthesizer(density_x, density_y, constant, certificate,
                                              cfg.frequency_grid, cfg.spatial_grid)]
    if cfg.command == "verify-coupling":
        built.append(cli.covariance_matrix(density_y, cfg.spatial_grid.points,
                                           cfg.frequency_grid))
    return built


if __name__ == "__main__":
    # held until after "ready", so that freeing them is not timed as set-up
    built = build(cli.parse_config(Path(sys.argv[1]).read_text(encoding="utf-8")))
    print("ready", flush=True)
