"""Command line interface: identities, sweep, moser, sigma, constants."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .operators import critical_exponent
from .tent import K_q, solve_sigma


def _add_common(parser: argparse.ArgumentParser, config_required: bool) -> None:
    parser.add_argument("--config", required=config_required,
                        help="path to a key=value run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracneumann",
        description="Nonlocal Neumann workbench: operator identities, "
                    "mountain-pass scaling sweeps, and sup-bound ladders.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the operator identity checks")
    _add_common(p, config_required=True)

    p = sub.add_parser("sweep", help="mountain-pass solve over eps_list")
    _add_common(p, config_required=True)

    p = sub.add_parser("moser", help="norm-ladder check of a stored solution")
    _add_common(p, config_required=True)
    p.add_argument("--solution", required=True, help="solution snapshot file")

    p = sub.add_parser("sigma", help="print the half-mass level sigma(N)")
    _add_common(p, config_required=False)

    p = sub.add_parser("constants", help="print the tent mass constants K_q")
    _add_common(p, config_required=False)

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "identities":
            from .runners import run_identity_suite

            ok = run_identity_suite(cfg, args.out)
            print(f"identity suite: {'PASS' if ok else 'FAIL'} "
                  f"(report in {args.out}/identities.json)")
            return 0 if ok else 1

        if args.command == "sweep":
            from .runners import run_scaling_sweep

            result = run_scaling_sweep(cfg, args.out)
            ratio = result.summary["level_over_epsN"]["ratio"]
            print(f"sweep: converged={result.all_converged} "
                  f"level/eps^N ratio={ratio:.3f} "
                  f"certificates={'PASS' if result.certificates_ok else 'FAIL'} "
                  f"(reports in {args.out})")
            return 0 if result.certificates_ok else 1

        if args.command == "moser":
            from .runners import run_moser_check

            ok = run_moser_check(cfg, args.solution, args.out)
            print(f"moser check: {'PASS' if ok else 'FAIL'} "
                  f"(report in {args.out}/moser_summary.json)")
            return 0 if ok else 1

        if args.command == "sigma":
            print(f"sigma({cfg.dim}) = {solve_sigma(cfg.dim):.12f}")
            return 0

        if args.command == "constants":
            dim = cfg.dim
            two_star = critical_exponent(dim, cfg.s)
            print(f"# tent mass constants, N={dim} "
                  f"(s={cfg.s}, p={cfg.p}, 2*_s={two_star:.6g})")
            qs = sorted({1.0, 2.0, cfg.p, two_star})
            for q in qs:
                print(f"K_q(N={dim}, q={q:g}) = {K_q(dim, q):.12f}")
            return 0
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        # a numerical certificate failed: same exit code as a FAIL verdict
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
