"""Gate a change on the repository benchmark, run as parent/candidate pairs.

    python .github/scripts/perfbench_gate.py PARENT_DIR CANDIDATE_DIR

Both directories are checkouts: the parent commit and the change.  The
command, the workloads, the run length and each end-to-end metric's
``better`` direction and regression ``bound`` come from the candidate's
``BENCHMARK.json``, so the bounds live in one place.

For each workload the benchmark runs ``PAIRS`` times on each side,
untraced (``--trace 0``).  Both runs of a pair use the same ``--seed``,
and the side that runs first alternates from pair to pair, so a drift of
the host's speed over the job lands on both sides alike.  Each run's
last line of standard output is its result::

    {"correct": true, "attempted": 7600, "failed": 0, "metrics": {...}}

The gate fails (exit 1) when any run exits non-zero, prints no result,
reports ``"correct": false`` or ``failed > 0``, or when the median over
the pairs of a metric's candidate/parent ratio is worse than that
metric's bound in its ``better`` direction.  It prints one table per
workload with each side's median and quartiles.  Exit 2 is a usage
error.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Pairs per workload.  Raised, never a bound widened, when a
#: parent-vs-parent run of this gate fails on the CI host.
PAIRS = 5

Result = Dict[str, Any]


def result_of(returncode: int, stdout: str) -> Result:
    """The run's result line, or a stand-in holding why there is none."""
    lines = stdout.strip().splitlines()
    if returncode != 0:
        return {"error": f"exit {returncode}"}
    if not lines:
        return {"error": "no output"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": "last line of output is not JSON"}
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return {"error": "result line has no metrics"}
    return result


def run_problem(result: Result) -> Optional[str]:
    """Why a run counts as failed, or None."""
    if "error" in result:
        return str(result["error"])
    if result.get("correct") is not True:
        return "correct: false"
    if result.get("failed", 0) > 0:
        return f"failed: {result['failed']} of {result.get('attempted')}"
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def compare(
    end_to_end: Sequence[Dict[str, Any]],
    pairs: Sequence[Tuple[Result, Result]],
) -> Tuple[List[List[str]], List[str]]:
    """Table rows and failures for one workload's (parent, candidate) pairs."""
    failures = []
    for number, pair in enumerate(pairs):
        for side, result in zip(("parent", "candidate"), pair):
            problem = run_problem(result)
            if problem is not None:
                failures.append(f"pair {number} {side}: {problem}")
    good = [pair for pair in pairs if not any(map(run_problem, pair))]
    rows = []
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], float(metric["bound"])
        try:
            values = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in good
            ]
        except KeyError:
            failures.append(f"{name}: missing from a result line")
            continue
        if not values:
            continue
        _, median, _ = quartiles([c / p for p, c in values])
        worse = median < 1 - bound if better == "higher" else median > 1 + bound
        if worse:
            failures.append(
                f"{name}: median candidate/parent ratio {median:.3f} is worse "
                f"than its bound {bound:.2f} ({better} is better)"
            )
        sides = [quartiles([pair[i] for pair in values]) for i in (0, 1)]
        rows.append(
            [name, better, f"{bound:.2f}"]
            + [f"{mid:.4g} [{low:.4g}, {high:.4g}]" for low, mid, high in sides]
            + [f"{median:.3f}", "FAIL" if worse else "ok"]
        )
    return rows, failures


def format_table(title: str, rows: List[List[str]]) -> str:
    header = ["metric", "better", "bound", "parent p50 [q1, q3]",
              "candidate p50 [q1, q3]", "ratio p50", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    lines = [title]
    for row in [header, ["-" * width for width in widths]] + rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def run_once(
    command: List[str], checkout: Path, workload: str, seed: int, seconds: float
) -> Result:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    return result_of(done.returncode, done.stdout)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: perfbench_gate.py PARENT_DIR CANDIDATE_DIR", file=sys.stderr)
        return 2
    parent, candidate = (Path(arg).resolve() for arg in argv)
    spec = json.loads((candidate / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        pairs = []
        for seed in range(PAIRS):
            pair: List[Result] = [{}, {}]
            order = [(0, parent), (1, candidate)]
            for side, checkout in order if seed % 2 == 0 else order[::-1]:
                pair[side] = run_once(spec["command"], checkout, workload, seed,
                                      spec["run_seconds"])
            pairs.append((pair[0], pair[1]))
        rows, failures = compare(spec["end_to_end"], pairs)
        print(format_table(f"== {workload}: {PAIRS} pairs ==", rows))
        for failure in failures:
            print(f"FAIL {workload}: {failure}")
        print(flush=True)
        failed = failed or bool(failures)
    print("perfbench gate:", "FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
