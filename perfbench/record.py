"""Record the outputs ``run.py`` checks against, into ``expected.json``.

Runs one unit of every workload for every input variant with the layer
wrappers installed (so messages and faults are counted too) and writes
the per-unit totals, digest and exact counts.  Re-record only when a
change is meant to alter outputs or counts, and say so in its review::

    python3 perfbench/record.py [WORKLOAD ...]

Named workloads are re-recorded; the others keep their recorded values.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from layers import Recorder, instrument  # noqa: E402
from run import EXPECTED, WORK, WORKLOADS, exact_counts, setup  # noqa: E402


def record_unit(workload: str, variant: int, workdir: Path) -> dict:
    plan = setup(workload, variant, workdir)
    rec = Recorder()
    with instrument(rec):
        if workload == "sweep-e1":
            result = workloads.sweep_pass(plan, 0.0, rec, units=1)
        else:
            result = workloads.serve_pass(
                plan, None, len(plan.specs), workdir / "ledger", rec
            )
    workloads.settle_checks(plan, result, workdir / "ledger")
    if result.failed or result.problems or len(result.units) != 1:
        raise RuntimeError(f"{workload} variant {variant}: {result.problems}")
    unit = result.units[0]
    counts = exact_counts(result, rec)
    if counts["emitted"] != unit.events:
        raise RuntimeError(f"{workload} variant {variant}: emitted {counts['emitted']} != certified events {unit.events}")
    return {
        "runs": unit.runs,
        "achieved": unit.achieved,
        "rounds": unit.rounds,
        "switches": unit.switches,
        "bad_prefixes": unit.bad_prefixes,
        "digest": unit.digest,
        "events": unit.events,
        "trace_bytes": unit.trace_bytes,
        "messages": counts["messages"],
        "faults": counts["faults"],
    }


def main(names: list) -> int:
    recorded: dict = {"variants": workloads.VARIANTS}
    if names and EXPECTED.exists():
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for workload in names or WORKLOADS:
        recorded[workload] = {}
        for variant in range(workloads.VARIANTS):
            workdir = WORK / f"record-{workload}-{variant}-{os.getpid()}"
            try:
                recorded[workload][str(variant)] = record_unit(workload, variant, workdir)
            finally:
                workloads.remove_tree(workdir)
            print(workload, variant, recorded[workload][str(variant)], flush=True)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
