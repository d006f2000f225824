"""Command-line entry point.

Exit codes: 0 when every checked threshold is met, 2 on a threshold
violation, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reporting, scenarios


# the scenario configs behind `pplab verify --suite mecke|glauber`
VERIFY_CONFIGS = {
    "mecke": {"scenario": "mecke-verify", "d": 2, "t_grid": [50.0], "reps": 10_000,
              "params": {"n": 50}},
    "glauber": {"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "reps": 100_000,
                "params": {"mass": 5.0, "commutation_reps": 100_000}},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pplab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON scenario config")
    run_p.add_argument("--format", default="csv", choices=reporting.FORMATS)
    run_p.add_argument("--output", default=None, help="output path (default: <scenario>.<ext>)")

    verify_p = sub.add_parser("verify", help="run a built-in verification suite")
    verify_p.add_argument("--suite", required=True, choices=("mecke", "glauber", "ot"))
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--reps", type=int, default=None, help="override replication count")

    sub.add_parser("list-scenarios", help="print the known scenario names")
    return parser


def _report(result) -> int:
    """Print each row and the summary of a scenario run; return its exit code."""
    for row in result.rows:
        status = "ok " if row.passed else "FAIL"
        bound = "" if row.bound is None else f" bound={row.bound:.6g}"
        print(
            f"[{status}] {row.scenario} t={row.t:g} {row.statistic} "
            f"{row.distance_name}={row.distance:.6g} (se={row.stderr:.3g}){bound}"
        )
    print("summary:", json.dumps(result.summary, default=str))
    return 0 if result.passed else 2


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
        cfg = scenarios.ScenarioConfig.from_dict(data)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = scenarios.run(cfg)
    except ValueError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    ext = {"csv": "csv", "json": "json", "gnuplot-dat": "dat"}[args.format]
    out_path = args.output or f"{cfg.scenario}.{ext}"
    reporting.emit(result.rows, args.format, out_path)
    print(f"wrote {out_path}")
    return _report(result)


def _cmd_verify(args) -> int:
    try:
        if args.suite == "ot":
            from .verify_ot import run_ot_verification

            # --reps counts the random instances of the KR-surrogate check
            instances = 200 if args.reps is None else args.reps
            report = run_ot_verification(seed=args.seed, instances=instances)
            print(report["text"])
            return 0 if report["passed"] else 2
        data = {**VERIFY_CONFIGS[args.suite], "seed": args.seed}
        if args.reps is not None:
            data["reps"] = args.reps
        result = scenarios.run(scenarios.ScenarioConfig.from_dict(data))
    except ValueError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    return _report(result)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    for name in scenarios.SCENARIO_NAMES:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
