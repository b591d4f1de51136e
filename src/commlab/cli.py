"""Command line front end for the experiment runner.

Exit codes: 0 when every requested check passes, 1 when a check fails, and 2
for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .runner import STAGES, render_report, run_experiment


def _add_out(parser: argparse.ArgumentParser):
    parser.add_argument("--out", required=True, metavar="DIR", help="directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Deterministic experiments with operator tuples, gauge "
                    "norms, approximate units, and functional decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        p.add_argument("--config", required=True, metavar="PATH", help="experiment config (JSON)")
        _add_out(p)
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="parallel workers where a stage supports them")
    # report reads only the artifacts in --out
    _add_out(sub.add_parser("report", help="render plot-ready data files from existing artifacts"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            result = render_report(args.out)
            for notice in result["notices"]:
                print(f"notice: {notice}")
            print(f"report: wrote {len(result['written'])} data files")
            return 0
        if args.seed is not None and args.seed < 0:
            print("config error: --seed must be nonnegative", file=sys.stderr)
            return 2
        if args.jobs < 1:
            print("config error: --jobs must be at least one", file=sys.stderr)
            return 2
        config = load_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        summary = run_experiment(config, args.out, stages=(args.command,), jobs=args.jobs)
    except ConfigError as err:
        print(f"{'artifact' if args.command == 'report' else 'config'} error: {err}",
              file=sys.stderr)
        return 2
    for name, info in summary["stages"].items():
        print(f"{name}: {'pass' if info['passed'] else 'FAIL'}")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
