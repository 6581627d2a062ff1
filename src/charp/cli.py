"""Verification CLI.

    charp list
    charp run <id> [--p N] [--dim N] [--seed N] [--out FILE] [--json]
    charp run-all [--tag T] [--out FILE] [--json]

Exit codes: 0 all pass, 1 any failure, 2 usage error.  Budget overruns
are reported as skipped and do not fail the run.
"""

import argparse
import json
import sys

from . import __version__
from .config import load_config
from .rings import is_prime
from . import scenarios


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="charp",
        description="machine-checked scenarios for the characteristic-p "
                    "homological algebra engine")
    parser.add_argument("--config", help="budget config file (flat "
                        "`key = value` lines; unknown keys are a usage "
                        "error)")
    parser.add_argument("--profile", choices=["fast", "full"],
                        help="budget profile (default from "
                        "CHARP_BUDGET_PROFILE)")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list registered scenarios")
    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("id")
    runp.add_argument("--p", type=int)
    runp.add_argument("--dim", type=int)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out")
    runp.add_argument("--json", action="store_true")
    alls = sub.add_parser("run-all", help="run every registered scenario")
    alls.add_argument("--tag", default="")
    alls.add_argument("--out")
    alls.add_argument("--json", action="store_true")
    return parser


def _report_line(r):
    status = "SKIP" if r["skipped"] else ("PASS" if r["pass"] else "FAIL")
    extra = f" ({r.get('skip_reason', '')})" if r["skipped"] else ""
    return f"{status:4}  {r['id']:28} {r['runtime_ms']:7} ms{extra}"


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        budget = load_config(args.config, args.profile)
    except (ValueError, OSError) as exc:
        print(f"charp: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        for id_ in sorted(scenarios.REGISTRY):
            sc = scenarios.REGISTRY[id_]
            tags = ",".join(sc.tags)
            print(f"{id_:28} [{tags}] {sc.title}")
        return 0
    if args.command == "run":
        if args.id not in scenarios.REGISTRY:
            print(f"unknown scenario {args.id!r}", file=sys.stderr)
            return 2
        sc, params = scenarios.REGISTRY[args.id], {}
        for key in ("p", "dim", "seed"):
            val = getattr(args, key, None)
            if val is not None:
                if key not in sc.defaults and key != "seed":
                    print(f"scenario {args.id} does not take --{key}",
                          file=sys.stderr)
                    return 2
                params[key] = val
        if "p" in params and not is_prime(params["p"]):
            print(f"--p {params['p']} is not prime", file=sys.stderr)
            return 2
        if params.get("p", sc.min_p) < sc.min_p:
            print(f"scenario {args.id} needs --p >= {sc.min_p}",
                  file=sys.stderr)
            return 2
        if params.get("dim", 0) < 0:
            print(f"--dim {params['dim']} is negative", file=sys.stderr)
            return 2
        report = scenarios.run(args.id, params, budget=budget)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_report_line(report))
        return scenarios.exit_code([report])
    if args.command == "run-all":
        reports = scenarios.run_all(args.tag, budget=budget)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(reports, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if args.json:
            print(json.dumps(reports, indent=2, sort_keys=True))
        else:
            for r in reports:
                print(_report_line(r))
            npass = sum(1 for r in reports if r["pass"])
            nskip = sum(1 for r in reports if r["skipped"])
            nfail = len(reports) - npass - nskip
            print(f"{npass} passed, {nfail} failed, {nskip} skipped "
                  f"(charp {__version__})")
        return scenarios.exit_code(reports)
    return 2


if __name__ == "__main__":
    sys.exit(main())
