"""Record the computed block of every workload entry into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it from the repository root only when a scenario's output is meant to
change; every benchmark pass compares against this file.  Entries whose
scenario does not pass are not written, and the script exits 1.
"""

import json
import sys

from charp import scenarios
from worker import REFERENCE
from workloads import WORKLOADS, entry_key


def main():
    reference, bad = {}, []
    for entries in WORKLOADS.values():
        for id_, params in entries:
            key = entry_key(id_, params)
            if key in reference:
                continue
            report = scenarios.run(id_, dict(params, seed=0))
            if report["pass"] and not report["skipped"]:
                reference[key] = report["computed"]
            else:
                bad.append(key)
            print(f"{'ok' if key in reference else 'FAIL':4} {key}")
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(reference[k], sort_keys=True)}"
            for k in sorted(reference)) + "\n}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
