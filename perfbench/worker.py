"""One benchmark pass, or one set-up sample, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass --workload NAME --seed N [--spans FILE]

``run.py`` starts it from the repository root with ``src`` on PYTHONPATH and
the BLAS thread count pinned.  The last line of stdout is one JSON object.
A fresh interpreter per pass means every pass pays what a ``charp`` user pays
on each invocation: empty ``rings._CACHE`` and empty ``lru_cache``s.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time

import spans
from workloads import WORKLOADS, entry_key

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Address-space cap of a worker, so that a blow-up raises MemoryError and is
# counted as a failed scenario instead of an OOM kill.  The largest VmPeak
# measured on a workload is 0.9 GiB (derived-powers).
MEM_CAP_BYTES = 3 << 30

PROBE_STEPS = 2000
PROBE_REPEATS = 5


def probe():
    """Seconds a fixed mix of Python and small numpy work takes now.

    The machine's CPU speed drifts by up to 1.7x.  run.py scales each
    set-up sample by the probe taken right after it in the same worker,
    which cancels that drift for samples this short.
    """
    import numpy as np
    a = np.arange(64, dtype=np.int64)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_STEPS):
            acc += int(((a * (i % 7) + 3) % 5)[i % 64]) + i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cap_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEM_CAP_BYTES if hard == resource.RLIM_INFINITY \
        else min(MEM_CAP_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def set_up():
    """Import charp as the CLI does and resolve the budget and registry.

    The modules the CLI imports lazily are imported here too, so that
    import-time work anywhere in the package counts as set-up, not as pass
    time.  Returns the seconds taken.
    """
    t0 = time.perf_counter()
    from charp import config, scenarios
    config.load_config()
    len(scenarios.REGISTRY)
    spans.import_package()
    return time.perf_counter() - t0


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(key, report, reference):
    """Outcome of one scenario run against the stored computed block."""
    if report["skipped"]:
        error = f"skipped: {report.get('skip_reason', '')}"
    elif not report["pass"]:
        error = "scenario reported pass=false"
    elif key not in reference:
        error = "no reference entry"
    elif report["computed"] != reference[key]:
        error = "computed block differs from the reference"
    else:
        error = None
    return {"key": key, "ok": error is None, "error": error}


def run_pass(entries, seed, reference, tracer=None):
    """Run each (id, params) once, in order.  Returns (outcomes, wall_s).

    ``scenarios.run`` lets every exception except ``BudgetExceeded``
    escape, so each is caught here, counted as a failure, and the pass
    goes on.
    """
    from charp import scenarios
    outcomes = []
    t0 = time.perf_counter()
    for i, (id_, params) in enumerate(entries):
        key = entry_key(id_, params)
        try:
            if tracer is None:
                report = scenarios.run(id_, dict(params, seed=seed))
            else:
                with tracer.root(f"{id_}#{i}"):
                    report = scenarios.run(id_, dict(params, seed=seed))
        except Exception as exc:
            outcomes.append({"key": key, "ok": False,
                             "error": f"{type(exc).__name__}: {exc}"})
            continue
        outcomes.append(check(key, report, reference))
    return outcomes, time.perf_counter() - t0


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass (overhead and CPU come later)."""
    totals = tracer.layer_totals()
    out = {}
    for layer, fields in spans.LAYER_FIELDS.items():
        for field in fields:
            out[f"{layer}.{field}"] = totals.get(layer, {}).get(field, 0)
    phi_calls = totals.get(spans.PHI, {}).get("calls", 0)
    out["gcoh.periodic.phi.hit_ratio"] = \
        (phi_calls - tracer.phi_misses) / phi_calls if phi_calls else 0.0
    out["scenarios.glue.self_s"] = totals.get(spans.ROOT, {}).get("self_s", 0)
    named = sum(t["self_s"] for name, t in totals.items()
                if name != spans.ROOT)
    out["trace.coverage"] = named / wall_s
    return out


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent, cells, trace_id in tracer.spans:
            fh.write(json.dumps([trace_id, name, start, end, parent, cells]))
            fh.write("\n")


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "pass"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the pass; write spans here")
    args = parser.parse_args(argv)
    cap_memory()
    setup_s = set_up()
    probe_s = probe()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0
    if args.workload is None:
        parser.error("pass needs --workload")
    reference = load_reference()
    entries = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.spans else None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is None:
        outcomes, wall_s = run_pass(entries, args.seed, reference)
    else:
        with tracer:
            outcomes, wall_s = run_pass(entries, args.seed, reference, tracer)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "probe_s": probe_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall_s)
        result["spans"] = len(tracer.spans)
        write_spans(tracer, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
