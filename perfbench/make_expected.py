"""Record the expected stdout of every benchmark invocation into expected.json.

Usage, from the repository root::

    python3 perfbench/make_expected.py

Runs each distinct invocation of the workloads in ``run.py`` once and
writes its stdout only if every outcome passes the independent checks in
``oracle.py`` (b-file counts, criterion-3 prefixes, the connected
valuation gap, the published grids and their exit codes).  Run it only
when an output is meant to change; the benchmark reads the file.
"""

from __future__ import annotations

import json
import sys
import time

import oracle
from run import ROOT, Harness, WORKLOADS


def main() -> int:
    harness = Harness(ROOT, time.perf_counter(), {})
    try:
        invocations = {}
        for workload in WORKLOADS.values():
            for inv in workload.fill + workload.invocations:
                invocations.setdefault(inv.key, inv)
        recorded, codes = {}, {}
        for key, inv in invocations.items():
            argv = [sys.executable, "-m", "regasym", *harness.args(inv)]
            codes[key], _, _, _, recorded[key] = harness.spawn(argv)
    finally:
        harness.close()
    bad = {key: oracle.check(key, codes[key], out, recorded) for key, out in recorded.items()}
    bad = {key: problems for key, problems in bad.items() if problems}
    if bad:
        print(json.dumps(bad, indent=1), file=sys.stderr)
        return 1
    oracle.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} expected outputs to {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
