"""The ``python -m repro.obs`` command line — trace analysis.

Subcommands (all stdlib-only, mirroring ``python -m repro.lint``):

* ``summarize <trace.jsonl ...>`` — per-event-kind counts and headline
  figures for each trace;
* ``overhead <trace.jsonl ...>`` — the enumeration-overhead decomposition
  (:mod:`repro.obs.overhead`) of each trace;
* ``timeline <trace.jsonl>`` — one plain-text line per event;
* ``certify <trace.jsonl>`` — re-derive the run's claims from the trace
  alone (:mod:`repro.obs.certify`), optionally cross-checked against a
  manifest (``--manifest``, or the sibling ``.json`` when present);
  ``--fragment`` certifies a flight dump's surviving invariants;
* ``top <source>`` — live serve metrics: tail a ``metrics.jsonl`` file
  or scrape a running engine's admin endpoint (``--follow`` refreshes);
* ``diff <old> <new>`` — compare two traces (``.jsonl``) or two ledger
  manifests (``.json``).  ``--fail-on METRIC`` (repeatable,
  comma-separable) plus ``--tolerance PCT`` configure which increases
  count as regressions.

Exit codes: 0 clean, 1 configured regression (``diff``) or failed /
uncertifiable certificate (``certify``), 2 usage errors / malformed
inputs.  ``--format json`` swaps the text rendering for a
machine-readable document.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.analyze import (
    compute_diff,
    metrics_for,
    render_timeline,
    summarize_events,
)
from repro.obs.overhead import compute_overhead
from repro.obs.sinks import iter_trace, read_trace


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Trace analysis for repro JSONL traces and ledger manifests: "
            "summaries, overhead accounting, timelines, regression diffs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="per-event-kind counts and headline figures"
    )
    summarize.add_argument("traces", nargs="+", metavar="TRACE")
    _add_format(summarize)

    overhead = sub.add_parser(
        "overhead", help="enumeration-overhead decomposition of a trace"
    )
    overhead.add_argument("traces", nargs="+", metavar="TRACE")
    _add_format(overhead)

    timeline = sub.add_parser(
        "timeline", help="one plain-text line per event, in stream order"
    )
    timeline.add_argument("trace", metavar="TRACE")
    timeline.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the first N events",
    )

    certify = sub.add_parser(
        "certify",
        help="re-derive a recorded run's claims from its trace",
    )
    certify.add_argument("trace", metavar="TRACE")
    certify.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="manifest to cross-check (default: the sibling .json, if any)",
    )
    certify.add_argument(
        "--fragment", action="store_true",
        help="certify a flight dump: check only the invariants that "
        "survive a missing prefix and a missing end",
    )
    _add_format(certify)

    top = sub.add_parser(
        "top",
        help="live serve metrics: tail a metrics.jsonl file or scrape "
        "an admin endpoint",
    )
    top.add_argument(
        "source", metavar="SOURCE",
        help="metrics.jsonl path, HOST:PORT, or admin .sock path",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="refresh continuously instead of rendering one frame",
    )
    top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="with --follow, stop after N frames (default: unbounded)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval with --follow (default: 2.0)",
    )

    diff = sub.add_parser("diff", help="compare two traces or two manifests")
    diff.add_argument(
        "inputs", nargs=2, metavar="FILE",
        help="OLD and NEW: two .jsonl traces or two .json manifests",
    )
    diff.add_argument(
        "--fail-on", action="append", metavar="METRIC",
        help="exit 1 if this metric increased beyond the tolerance "
        "(repeatable, comma-separable)",
    )
    diff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="PCT",
        help="allowed increase for --fail-on metrics, in percent "
        "(default: 0)",
    )
    _add_format(diff)
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )


def _split_metrics(values: Optional[List[str]]) -> List[str]:
    metrics: List[str] = []
    for value in values or ():
        metrics.extend(part.strip() for part in value.split(",") if part.strip())
    return metrics


def _cmd_summarize(options: argparse.Namespace) -> int:
    documents: List[Dict[str, Any]] = []
    for path in options.traces:
        header, events = iter_trace(path)
        summary = summarize_events(events, path=path, header=header or None)
        if options.format == "json":
            documents.append(summary.to_dict())
        else:
            print(summary.format())
            print()
    if options.format == "json":
        print(json.dumps(documents, indent=2))
    return 0


def _cmd_overhead(options: argparse.Namespace) -> int:
    documents: List[Dict[str, Any]] = []
    for path in options.traces:
        _, events = read_trace(path)
        report = compute_overhead(events)
        if options.format == "json":
            documents.append({"path": path, **report.to_dict()})
        else:
            print(f"trace: {path}")
            print(report.format())
            print()
    if options.format == "json":
        print(json.dumps(documents, indent=2))
    return 0


def _cmd_timeline(options: argparse.Namespace) -> int:
    _, events = iter_trace(options.trace)
    print(render_timeline(events, limit=options.limit))
    return 0


def _cmd_certify(options: argparse.Namespace) -> int:
    # Lazy import: the checker (and the fault-channel module it pulls in)
    # only loads when certification is actually requested.
    from repro.obs.certify import certify_trace

    report = certify_trace(
        options.trace,
        manifest_path=options.manifest,
        fragment=options.fragment,
    )
    if options.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_top(options: argparse.Namespace) -> int:
    # Lazy import: the live-telemetry module only loads when asked for.
    from repro.obs.live import top_frames

    top_frames(
        options.source,
        frames=options.frames,
        interval_s=options.interval,
        follow=options.follow,
    )
    return 0


def _cmd_diff(options: argparse.Namespace) -> int:
    old_path, new_path = options.inputs
    report = compute_diff(
        metrics_for(old_path),
        metrics_for(new_path),
        old_source=old_path,
        new_source=new_path,
        fail_on=_split_metrics(options.fail_on),
        tolerance_pct=options.tolerance,
    )
    if options.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    options = parser.parse_args(argv)
    try:
        if options.command == "summarize":
            return _cmd_summarize(options)
        if options.command == "overhead":
            return _cmd_overhead(options)
        if options.command == "timeline":
            return _cmd_timeline(options)
        if options.command == "certify":
            return _cmd_certify(options)
        if options.command == "top":
            return _cmd_top(options)
        return _cmd_diff(options)
    except (OSError, ValueError, KeyError, TypeError) as error:
        # ValueError covers JSONDecodeError, TraceSchemaError, and
        # LedgerSchemaError; KeyError/TypeError cover malformed events.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
