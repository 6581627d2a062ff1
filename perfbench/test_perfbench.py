"""Tests of the benchmark harness itself (not part of the Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The traced-pass test runs every workload once under the tracer (about a
minute, most of it alpha-classes).
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, entry_key  # noqa: E402

REFERENCE = worker.load_reference()


def _bindings():
    """Every charp attribute that a tracer target is reachable through."""
    spans.import_package()
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("charp.") or mod_name == "charp":
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(mod_name, attr)] = val
                if isinstance(val, type):
                    for name, member in vars(val).items():
                        out[(mod_name, attr, name)] = member
    return out


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.per_layer_units()


def test_reference_covers_every_entry():
    keys = {entry_key(i, p) for entries in WORKLOADS.values()
            for i, p in entries}
    assert keys == set(REFERENCE)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_keeps_every_computed_block(workload):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        outcomes, wall_s = worker.run_pass(WORKLOADS[workload], 5, REFERENCE,
                                           tracer)
    assert [o for o in outcomes if not o["ok"]] == []
    assert _bindings() == before
    layers = worker.layer_metrics(tracer, wall_s)
    assert 0.9 <= layers["trace.coverage"] <= 1.0
    roots = [s for s in tracer.spans if s[0] == spans.ROOT]
    assert len(roots) == len(WORKLOADS[workload])
    assert all(s[5] is not None for s in tracer.spans)


def test_corrupted_reference_entry_is_a_failure():
    entries = [("borel-3", {}), ("weights-2", {})]
    bad = copy.deepcopy(REFERENCE)
    bad[entry_key("borel-3", {})]["count"] += 1
    outcomes, _ = worker.run_pass(entries, 0, bad)
    assert [o["ok"] for o in outcomes] == [False, True]
    assert "differs" in outcomes[0]["error"]


def test_exception_is_a_failure_and_the_pass_goes_on():
    entries = [("decalage", {"p": 4}), ("borel-3", {})]
    ref = dict(REFERENCE, **{entry_key(*entries[0]): {}})
    outcomes, _ = worker.run_pass(entries, 0, ref)
    assert [o["ok"] for o in outcomes] == [False, True]
    assert outcomes[0]["error"] == "RingConstructionError: 4 is not prime"


def test_memory_cap_turns_a_blowup_into_memory_error():
    code = ("import worker, numpy\n"
            "worker.cap_memory()\n"
            "try:\n"
            "    numpy.empty(worker.MEM_CAP_BYTES + (1 << 30), numpy.uint8)\n"
            "except MemoryError:\n"
            "    print('capped')\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "capped"


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_run_reports_every_end_to_end_metric():
    out = _run_bench(ROOT, "--workload", "registry-fast", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(WORKLOADS["registry-fast"]) == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(tmp_path, "--workload", "registry-fast", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
