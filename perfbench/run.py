"""charp benchmark: time to a verified result on fixed scenario workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It needs nothing but the sources: charp
is imported from ``src``.  One client drives ``charp.scenarios.run`` in a
closed loop, one scenario at a time, each pass of the workload in a fresh
interpreter (``worker.py``).  Passes repeat while the next one is expected
to end within ``--seconds``; there is always at least one.  Every
scenario's ``computed`` block is checked against ``reference.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over passes and set-up samples).  With
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  Details, per-pass outcomes and the environment stamp
go to ``.perfbench_out/``; spans of traced passes go there too.  See
README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import per_layer_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"

# Set-up samples per run, each a fresh interpreter, besides the one every
# pass gives.  Single samples vary by 2x, so many are needed for a median.
SETUP_SAMPLES = 12
# Hard stop for the whole run; a worker still going then is killed and its
# scenarios count as failed.
DEADLINE_S = 170.0

# Set-up samples are reported at a fixed machine speed: the one at which
# worker.probe() takes REF_PROBE_S, the build machine in its fast phase.
# Each sample is scaled by REF_PROBE_S / (probe time right after it).
REF_PROBE_S = 0.006

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "pass_frac": "ratio"}


class WorkerFailed(Exception):
    pass


def blas_threads():
    """BLAS threads per worker: 2, or fewer if fewer CPUs are available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env, timeout):
    """Run worker.py with ``args``; returns its JSON result."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"worker {args} exited {proc.returncode}: "
                           + " | ".join(tail))
    return json.loads(lines[-1])


def git_revision(root):
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root):
    """sha256 over src/charp/*.py, to identify the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "charp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, env, deadline):
    """Set-up samples around passes that fill ``seconds``."""
    out_dir = os.path.join(os.getcwd(), OUT_DIR)

    def sample_setup(n):
        return [run_worker(["setup"], env, deadline - time.monotonic())
                for _ in range(n)]

    # the first worker in a fresh checkout also compiles bytecode: discard it
    sample_setup(1)
    # half the samples before the passes and half after, so that a slow
    # phase of the machine does not hit them all
    setups = sample_setup(SETUP_SAMPLES // 2)
    n_entries = len(WORKLOADS[workload])
    passes, errors = [], []
    begin = time.monotonic()
    cycle_start = begin
    while True:
        # with tracing, an untraced and a traced pass alternate as one cycle
        traced = trace and len(passes) % 2 == 1
        args = ["pass", "--workload", workload, "--seed", str(seed)]
        if traced:
            args += ["--spans", os.path.join(
                out_dir, f"spans-{workload}-seed{seed}-pass{len(passes)}"
                         ".jsonl.gz")]
        try:
            res = run_worker(args, env, deadline - time.monotonic())
        except WorkerFailed as exc:
            errors.append(str(exc))
            res = {"outcomes": [{"key": "*", "ok": False, "error": str(exc)}]
                   * n_entries}
        res["traced"] = traced
        passes.append(res)
        if errors:
            break
        if trace and not traced:
            continue
        now = time.monotonic()
        cycle, cycle_start = now - cycle_start, now
        # stop before a pass (or cycle) that would end after ``seconds``
        if now + cycle - begin > seconds or now + cycle > deadline:
            break
    if deadline - time.monotonic() > 10 * max(s["setup_s"] for s in setups):
        setups += sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    return setups, passes, errors


def summarize(setups, passes, trace):
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = sum(1 for o in outcomes if not o["ok"])
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    setups = setups + [p for p in passes if "setup_s" in p]
    metrics = {
        "wall_s": median([p["wall_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "setup_s": median([s["setup_s"] * REF_PROBE_S / s["probe_s"]
                           for s in setups]),
        "pass_frac": (len(outcomes) - failed) / len(outcomes),
    }
    units = END_TO_END_UNITS
    if trace:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        units = per_layer_units()
        layers = {name: median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]} if traced else {}
        layers["trace.overhead_s"] = \
            median([p["wall_s"] for p in traced]) - metrics["wall_s"] \
            if traced else 0.0
        layers["process.cpu_s"] = median([p["cpu_s"] for p in plain])
        metrics = {name: layers.get(name, 0.0) for name in units}
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="charp benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker instead of leaving it orphaned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "charp", "__init__.py")):
        print("perfbench: src/charp not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    try:
        setups, passes, errors = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace), env,
                                         start + DEADLINE_S)
    except WorkerFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    result = summarize(setups, passes, bool(args.trace))
    stamp = {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        **next((p["env"] for p in passes if "env" in p), {}),
    }
    detail = {"args": vars(args), "env": stamp, "result": result,
              "setup_samples": setups, "errors": errors,
              "passes": [{k: v for k, v in p.items() if k != "env"}
                         for p in passes]}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    for err in errors:
        print(f"error: {err}")
    print(f"env: {json.dumps(stamp)}")
    print(f"workload={args.workload} passes={len(passes)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_frac={result['failed'] / result['attempted']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
