"""The CI perfbench gate's verdicts, on synthetic result lines.

The gate script is not a package module, so it is loaded by path.  Each
test builds (parent, candidate) result lines the way ``perfbench/run.py``
prints them and checks what :func:`compare` makes of them against the
repository's own ``BENCHMARK.json`` bounds.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "perfbench_gate", ROOT / ".github" / "scripts" / "perfbench_gate.py"
)
assert SPEC is not None and SPEC.loader is not None
gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "end_to_end"
]
BASE = {
    "setup_s": 0.4,
    "runs_per_s": 20.0,
    "latency_p50_ms": 50.0,
    "cpu_ms_per_session": 48.0,
    "peak_rss_mb": 30.0,
}
#: Run-to-run wobble within every bound, one factor per pair.
WOBBLE = (1.0, 1.04, 0.97, 1.02, 0.99)


def line(correct=True, failed=0, **metrics):
    """One run's stdout: a host line, then the result line."""
    values = {**BASE, **metrics}
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": ""} for name, v in values.items()},
    }
    return gate.result_of(0, '{"host": {}}\n' + json.dumps(result) + "\n")


def scaled(factor, **overrides):
    return {name: value * factor for name, value in {**BASE, **overrides}.items()}


def verdict(candidate_factors, **candidate_change):
    """Failures for pairs whose candidate moves ``candidate_change`` metrics."""
    changed = {name: BASE[name] * f for name, f in candidate_change.items()}
    pairs = [
        (line(**scaled(w)), line(**scaled(w * c, **changed)))
        for w, c in zip(WOBBLE, candidate_factors)
    ]
    _rows, failures = gate.compare(END_TO_END, pairs)
    return failures


def test_parent_against_itself_passes():
    pairs = [(line(**scaled(w)), line(**scaled(w))) for w in WOBBLE]
    rows, failures = gate.compare(END_TO_END, pairs)
    assert failures == []
    assert [row[0] for row in rows] == [metric["name"] for metric in END_TO_END]
    assert all(row[-1] == "ok" for row in rows)


def test_noise_inside_the_bounds_passes():
    assert verdict((1.08, 0.93, 1.05, 0.96, 1.02)) == []


def test_a_30_percent_drop_in_a_higher_metric_fails():
    failures = verdict((1.0,) * 5, runs_per_s=0.7)
    assert len(failures) == 1
    assert failures[0].startswith("runs_per_s:")


def test_a_30_percent_rise_in_a_lower_metric_fails():
    failures = verdict((1.0,) * 5, cpu_ms_per_session=1.3)
    assert len(failures) == 1
    assert failures[0].startswith("cpu_ms_per_session:")


def test_the_median_pair_decides_not_the_worst():
    pairs = [
        (line(), line(latency_p50_ms=BASE["latency_p50_ms"] * f))
        for f in (2.0, 1.9, 1.0, 1.0, 1.0)
    ]
    assert gate.compare(END_TO_END, pairs)[1] == []


def test_incorrect_run_fails_even_with_better_medians():
    better = {"runs_per_s": BASE["runs_per_s"] * 2}
    pairs = [(line(), line(**better)) for _ in WOBBLE]
    pairs[3] = (line(), line(correct=False, **better))
    failures = gate.compare(END_TO_END, pairs)[1]
    assert failures == ["pair 3 candidate: correct: false"]


def test_failed_sessions_fail_even_with_better_medians():
    better = {"cpu_ms_per_session": BASE["cpu_ms_per_session"] / 2}
    pairs = [(line(), line(failed=2, **better)) for _ in WOBBLE]
    failures = gate.compare(END_TO_END, pairs)[1]
    assert len(failures) == len(WOBBLE)
    assert failures[0] == "pair 0 candidate: failed: 2 of 100"


def test_a_run_without_a_result_line_fails():
    crashed = gate.result_of(1, "Traceback ...\n")
    assert gate.run_problem(crashed) == "exit 1"
    garbled = gate.result_of(0, "not json\n")
    assert gate.run_problem(garbled) == "last line of output is not JSON"
    failures = gate.compare(END_TO_END, [(line(), crashed), (line(), line())])[1]
    assert failures == ["pair 0 candidate: exit 1"]


def test_peak_rss_uses_its_own_tighter_bound():
    bounds = {metric["name"]: metric["bound"] for metric in END_TO_END}
    assert bounds["peak_rss_mb"] == 0.10
    # +15% is inside every other metric's 0.25 bound but outside 0.10.
    assert verdict((1.0,) * 5, peak_rss_mb=1.15) == [
        "peak_rss_mb: median candidate/parent ratio 1.150 is worse than "
        "its bound 0.10 (lower is better)"
    ]
    assert verdict((1.0,) * 5, cpu_ms_per_session=1.15) == []
    assert verdict((1.0,) * 5, peak_rss_mb=1.08) == []
