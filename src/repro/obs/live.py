"""Live telemetry: the in-flight observability plane for long runs.

Everything in :mod:`repro.obs` before this module is *post-hoc*: traces,
ledgers, and certificates are written while a run executes but read after
it ends.  A long-running :class:`~repro.serve.engine.ServeEngine` needs
the complementary live half — what is the service doing *right now*, and
what was it doing just before it died — without giving up the repo's
determinism discipline (no wall clocks in payloads, injectable monotonic
clocks, schema-versioned files).

Three pieces live here:

* :class:`MetricsSampler` — periodically samples a
  :class:`~repro.obs.counters.CounterSet` plus caller-supplied gauges to
  a ``metrics.jsonl`` stream: a ``{"metrics_schema": 1}`` header line,
  then one sample object per tick with a monotonic ``seq``, counter
  *deltas* since the previous tick, gauge *levels*, and *cumulative*
  histogram bucket state.  Every tick is flushed, so a SIGKILL loses at
  most one interval; :func:`read_metrics` tolerates (and drops) a
  half-written final line.  Summing the deltas of a complete stream
  reproduces the final counter totals exactly.

* :class:`AdminServer` — a deliberately tiny HTTP/1.0 scrape endpoint
  bound to loopback or a UNIX socket, serving caller-registered routes
  (for the serve engine: ``/status`` and ``/sessions`` as JSON and
  ``/metrics`` as Prometheus text exposition,
  :func:`render_prometheus`).  One request per connection, no keep-alive,
  no external dependencies.

* ``top`` — :func:`render_top` and friends turn a metrics stream (or a
  live ``/status`` scrape) into the refreshing rates/quantiles table
  behind ``python -m repro.obs top``.

:func:`write_metrics` also lives here: the compose-don't-clobber JSON
summary writer used for ``engine.json`` (merge onto whatever is already
in the file, stamp ``metrics_schema`` and the git SHA), replacing the
silently-overwriting summary write the serve engine started with.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.counters import (
    CounterSet,
    Histogram,
    HistogramSnapshot,
    bucket_upper,
)

#: The metrics-stream schema major this build writes and understands.
METRICS_SCHEMA = 1

#: The serve engine's metric contract, mirrored by a static-vs-runtime
#: self-check in the tests: every counter/histogram the engine touches
#: and every gauge the sampler and admin plane report must appear here,
#: so dashboards and scrape configs can be written against a fixed list.
SERVE_COUNTERS = (
    "serve.sessions_submitted",
    "serve.sessions_rejected",
    "serve.sessions_parked",
    "serve.sessions_settled",
    "serve.sessions_achieved",
    "serve.sessions_failed",
    "serve.rounds",
)
SERVE_HISTOGRAMS = (
    "serve.open_sessions",
    "serve.queue_depth",
    "serve.session_rounds",
    "serve.session_wall_ms",
)
SERVE_GAUGES = (
    "open_sessions",
    "queue_depth",
    "draining",
)

#: Gauge levels are read on demand from a zero-argument callable so the
#: sampler never holds a reference into engine internals.
GaugeReader = Callable[[], Mapping[str, float]]


class MetricsSchemaError(ValueError):
    """A metrics stream cannot be interpreted by this build."""


class MetricsSampler:
    """Periodic counter/gauge/histogram snapshots to a JSONL stream.

    The sampler owns its file handle: the header line is written at
    construction, :meth:`tick` appends one flushed sample, and
    :meth:`close` writes a final tick (capturing the tail deltas) before
    releasing the handle — so the stream's counter deltas always sum to
    the accumulator's final totals.  :meth:`run` is the asyncio driver
    the serve engine spawns; :meth:`tick` stays callable directly so
    tests (and synchronous callers) need no event loop.

    The clock is injectable and monotonic; nothing wall-clock-derived is
    written, keeping the stream free of ambient nondeterminism beyond
    the inherently timing-shaped ``uptime_s``.
    """

    def __init__(
        self,
        counters: CounterSet,
        path: Union[str, Path],
        *,
        interval_s: float = 1.0,
        gauges: Optional[GaugeReader] = None,
        header: Optional[Mapping[str, Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.path = Path(path)
        self.interval_s = interval_s
        self._counters = counters
        self._gauges = gauges
        self._clock = clock
        self._started = clock()
        self._seq = 0
        self._last: Dict[str, int] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8")
        head: Dict[str, Any] = {
            "metrics_schema": METRICS_SCHEMA,
            "interval_s": interval_s,
        }
        for key, value in (header or {}).items():
            if key not in head:
                head[key] = value
        self._file.write(json.dumps(head, separators=(",", ":")))
        self._file.write("\n")
        self._file.flush()

    @property
    def closed(self) -> bool:
        return self._file.closed

    @property
    def seq(self) -> int:
        """Sequence number of the most recently written sample."""
        return self._seq

    def tick(self) -> Dict[str, Any]:
        """Write one sample: counter deltas, gauge levels, histograms.

        Returns the sample object (handy in tests).  The write is
        flushed before returning — the at-most-one-interval loss bound.
        """
        snapshot = self._counters.snapshot()
        deltas: Dict[str, int] = {}
        histograms: Dict[str, HistogramSnapshot] = {}
        for name, value in snapshot.items():
            if isinstance(value, int):
                delta = value - self._last.get(name, 0)
                self._last[name] = value
                if delta:
                    deltas[name] = delta
            else:
                histograms[name] = value
        self._seq += 1
        sample: Dict[str, Any] = {
            "seq": self._seq,
            "uptime_s": round(self._clock() - self._started, 6),
            "counters": deltas,
            "gauges": dict(self._gauges()) if self._gauges is not None else {},
            "histograms": histograms,
        }
        self._file.write(json.dumps(sample, separators=(",", ":")))
        self._file.write("\n")
        self._file.flush()
        return sample

    async def run(self) -> None:
        """Tick every ``interval_s`` until cancelled (the engine's task)."""
        while True:
            await asyncio.sleep(self.interval_s)
            # Deliberate inline I/O on the loop: one small flushed write
            # per interval, the same single-threaded write path as the
            # session ledger (docs/SERVING.md).
            self.tick()  # reprolint: disable=RL101

    def close(self) -> None:
        """Final tick (tail deltas) and release the handle.  Idempotent."""
        if self._file.closed:
            return
        self.tick()
        self._file.close()


def read_metrics(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a metrics stream into ``(header, samples)``.

    A half-written *final* line — the SIGKILL case the flush contract
    allows — is dropped silently; a malformed line anywhere else raises
    :class:`MetricsSchemaError`, as does a missing or unsupported schema
    header.
    """
    resolved = Path(path)
    lines = resolved.read_text(encoding="utf-8").splitlines()
    records: List[Dict[str, Any]] = []
    for number, text in enumerate(lines, start=1):
        stripped = text.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break  # torn final write: the allowed one-interval loss
            raise MetricsSchemaError(
                f"{resolved}:{number}: not valid JSON: {exc.msg}"
            ) from exc
        if not isinstance(record, dict):
            raise MetricsSchemaError(
                f"{resolved}:{number}: metrics line is not a JSON object"
            )
        records.append(record)
    if not records or "metrics_schema" not in records[0]:
        raise MetricsSchemaError(f"{resolved}: missing metrics_schema header")
    header = records[0]
    declared = header["metrics_schema"]
    if not isinstance(declared, int) or declared <= 0:
        raise MetricsSchemaError(
            f"{resolved}: malformed metrics_schema value {declared!r}"
        )
    if declared > METRICS_SCHEMA:
        raise MetricsSchemaError(
            f"{resolved}: metrics_schema {declared} is newer than the "
            f"supported major {METRICS_SCHEMA}"
        )
    return header, records[1:]


def cumulative_counters(samples: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    """Sum per-tick counter deltas back into cumulative totals."""
    totals: Dict[str, int] = {}
    for sample in samples:
        for name, delta in sample.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + int(delta)
    return totals


def final_histograms(
    samples: Iterable[Mapping[str, Any]],
) -> Dict[str, HistogramSnapshot]:
    """The last (cumulative) histogram snapshot seen for each name."""
    last: Dict[str, HistogramSnapshot] = {}
    for sample in samples:
        for name, snap in sample.get("histograms", {}).items():
            last[name] = snap
    return last


def write_metrics(
    path: Union[str, Path],
    payload: Mapping[str, Any],
    *,
    git_sha: Optional[str] = None,
) -> Dict[str, Any]:
    """Compose-don't-clobber JSON summary write with provenance stamps.

    Merges ``payload`` over whatever object the file already holds (so a
    re-run refreshes its own fields without erasing keys another tool
    parked there), then stamps
    ``metrics_schema`` and the ``git_sha`` (pass a pre-computed SHA to
    avoid the ``git rev-parse`` subprocess — the serve engine hands over
    its warmed cache).  Returns the merged object as written.
    """
    if git_sha is None:
        from repro.obs.ledger import git_sha as _current_git_sha

        git_sha = _current_git_sha()
    resolved = Path(path)
    merged: Dict[str, Any] = {}
    if resolved.exists():
        try:
            existing = json.loads(resolved.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            merged.update(existing)
    merged.update(payload)
    merged["metrics_schema"] = METRICS_SCHEMA
    merged["git_sha"] = git_sha
    resolved.parent.mkdir(parents=True, exist_ok=True)
    resolved.write_text(
        json.dumps(merged, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return merged


# ----------------------------------------------------------------------
# Prometheus text exposition


def _prom_name(name: str) -> str:
    """``serve.session_wall_ms`` → ``repro_serve_session_wall_ms``."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


def _prom_float(value: float) -> str:
    """Float formatting per the exposition format (Go-style specials)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def render_prometheus(
    stats: Mapping[str, Any], gauges: Optional[Mapping[str, float]] = None
) -> str:
    """A counters snapshot (+ gauge levels) as Prometheus text exposition.

    Counters become ``<name>_total`` counter samples; histogram
    snapshots become native Prometheus histograms — cumulative
    ``_bucket{le="..."}`` series at the fixed-log boundaries (the low
    bucket surfaces as ``le="0"``), plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name, value in stats.items():
        metric = _prom_name(name)
        if isinstance(value, int):
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {value}")
        elif isinstance(value, Mapping):
            lines.append(f"# TYPE {metric} histogram")
            cumulative = int(value.get("low", 0))
            if cumulative:
                lines.append(f'{metric}_bucket{{le="0"}} {cumulative}')
            buckets = value.get("buckets", {})
            if isinstance(buckets, Mapping):
                for key in sorted(buckets, key=int):
                    cumulative += int(buckets[key])
                    edge = _prom_float(bucket_upper(int(key)))
                    lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
            count = int(value.get("count", 0))
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {_prom_float(float(value.get('total', 0.0)))}")
            lines.append(f"{metric}_count {count}")
    for name, level in (gauges or {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_float(float(level))}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Text exposition → ``{sample_name_with_labels: value}``.

    The inverse of :func:`render_prometheus`, shared by the tests and the
    CI smoke so "the scrape parses and agrees with ``engine.json``" is
    checked with the same tokenizer everywhere.
    """
    samples: Dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise MetricsSchemaError(f"unparseable exposition line: {raw!r}")
        try:
            samples[name] = float(value)
        except ValueError as exc:
            raise MetricsSchemaError(
                f"unparseable exposition value: {raw!r}"
            ) from exc
    return samples


# ----------------------------------------------------------------------
# Admin plane

#: A route returns ``(content_type, body)``; the server adds the rest.
AdminRoute = Callable[[], Tuple[str, str]]

_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})


def json_route(provider: Callable[[], Any]) -> AdminRoute:
    """Wrap a payload provider as a JSON admin route."""

    def route() -> Tuple[str, str]:
        return (
            "application/json",
            json.dumps(provider(), indent=2, sort_keys=False) + "\n",
        )

    return route


class AdminServer:
    """A minimal localhost/UNIX-socket HTTP scrape endpoint.

    One request per connection, ``GET`` only, routes registered as
    callables returning ``(content_type, body)`` — enough surface for a
    Prometheus scraper, ``curl``, and ``repro.obs top``, and small
    enough to audit at a glance.  TCP specs must name a loopback host:
    the admin plane is an operator's side door, never a public API.
    """

    def __init__(self, routes: Mapping[str, AdminRoute]) -> None:
        self._routes = dict(routes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._unix_path: Optional[Path] = None
        self.address: Optional[str] = None

    async def start(self, spec: str) -> str:
        """Bind per ``spec`` and return the resolved address.

        ``spec`` containing ``/`` is a UNIX socket path; otherwise
        ``[host:]port`` on loopback (port ``0`` picks an ephemeral port,
        and the resolved address reports the real one).
        """
        if self._server is not None:
            raise RuntimeError("admin server already started")
        if "/" in spec:
            self._unix_path = Path(spec)
            self._unix_path.parent.mkdir(parents=True, exist_ok=True)
            if self._unix_path.exists():
                # One stale-socket unlink at bind time: startup-budget
                # metadata I/O, before any session is being served.
                self._unix_path.unlink()  # reprolint: disable=RL101
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(self._unix_path)
            )
            self.address = str(self._unix_path)
            return self.address
        host, _, port_text = spec.rpartition(":")
        host = host or "127.0.0.1"
        if host not in _LOOPBACK_HOSTS:
            raise ValueError(f"admin plane binds loopback only, got {host!r}")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(f"malformed admin spec {spec!r}") from exc
        self._server = await asyncio.start_server(self._handle, host, port)
        bound = self._server.sockets[0].getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        return self.address

    async def aclose(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._unix_path is not None and self._unix_path.exists():
            # Teardown-time metadata I/O: the engine has already drained.
            self._unix_path.unlink()  # reprolint: disable=RL101

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            parts = request.decode("latin-1").split()
            # Drain request headers (bounded: readline caps line length).
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) < 2 or parts[0] != "GET":
                await self._respond(writer, 405, "text/plain", "GET only\n")
                return
            route = self._routes.get(parts[1].rstrip("/") or "/")
            if route is None:
                known = " ".join(sorted(self._routes))
                await self._respond(
                    writer, 404, "text/plain", f"unknown path; routes: {known}\n"
                )
                return
            content_type, body = route()
            await self._respond(writer, 200, content_type, body)
        finally:
            writer.close()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}.get(
            status, "Error"
        )
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


async def fetch_admin(spec: str, path: str = "/status") -> str:
    """Async in-process scrape of an :class:`AdminServer` route body."""
    if "/" in spec.split(":", 1)[0] or ":" not in spec:
        reader, writer = await asyncio.open_unix_connection(spec)
    else:
        host, _, port = spec.rpartition(":")
        reader, writer = await asyncio.open_connection(host or "127.0.0.1", int(port))
    writer.write(f"GET {path} HTTP/1.0\r\nHost: admin\r\n\r\n".encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return _http_body(raw)


def scrape_admin(spec: str, path: str = "/status", timeout_s: float = 5.0) -> str:
    """Blocking scrape for out-of-process callers (CLI, CI smoke)."""
    if "/" in spec.split(":", 1)[0] or ":" not in spec:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(timeout_s)
        conn.connect(spec)
    else:
        host, _, port = spec.rpartition(":")
        conn = socket.create_connection(
            (host or "127.0.0.1", int(port)), timeout=timeout_s
        )
    try:
        conn.sendall(f"GET {path} HTTP/1.0\r\nHost: admin\r\n\r\n".encode("latin-1"))
        chunks: List[bytes] = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        conn.close()
    return _http_body(b"".join(chunks))


def _http_body(raw: bytes) -> str:
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        raise MetricsSchemaError("malformed admin response (no header break)")
    status = head.split(b"\r\n", 1)[0].decode("latin-1")
    if " 200 " not in f"{status} ":
        raise MetricsSchemaError(f"admin scrape failed: {status}")
    return body.decode("utf-8")


# ----------------------------------------------------------------------
# top: the refreshing rates/quantiles table


def build_view(
    counters: Mapping[str, Any],
    gauges: Mapping[str, float],
    *,
    uptime_s: float = 0.0,
    seq: int = 0,
) -> Dict[str, Any]:
    """Normalise either telemetry source into the shape ``render_top`` eats."""
    plain: Dict[str, int] = {}
    histograms: Dict[str, HistogramSnapshot] = {}
    for name, value in counters.items():
        if isinstance(value, int):
            plain[name] = value
        elif isinstance(value, Mapping):
            histograms[name] = dict(value)
    return {
        "seq": seq,
        "uptime_s": uptime_s,
        "counters": plain,
        "histograms": histograms,
        "gauges": dict(gauges),
    }


def view_from_samples(samples: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold a metrics stream's samples into the latest cumulative view."""
    if not samples:
        return build_view({}, {})
    last = samples[-1]
    counters: Dict[str, Any] = dict(cumulative_counters(samples))
    counters.update(final_histograms(samples))
    return build_view(
        counters,
        last.get("gauges", {}),
        uptime_s=float(last.get("uptime_s", 0.0)),
        seq=int(last.get("seq", 0)),
    )


def render_top(
    view: Mapping[str, Any], previous: Optional[Mapping[str, Any]] = None
) -> str:
    """One ``top`` frame: gauges, counter rates, histogram quantiles.

    Rates come from the difference against ``previous`` (another view,
    typically one refresh earlier); without one, rates average over the
    whole uptime.
    """
    lines: List[str] = []
    uptime = float(view.get("uptime_s", 0.0))
    lines.append(f"uptime {uptime:8.1f}s   seq {int(view.get('seq', 0))}")
    gauges = view.get("gauges", {})
    if gauges:
        levels = "   ".join(f"{k}={g:g}" for k, g in gauges.items())
        lines.append(f"gauges: {levels}")
    lines.append("")
    lines.append(f"{'counter':<32}{'total':>12}{'rate/s':>12}")
    prev_counters: Mapping[str, int] = (previous or {}).get("counters", {})
    prev_uptime = float((previous or {}).get("uptime_s", 0.0))
    span = uptime - prev_uptime
    for name, total in view.get("counters", {}).items():
        delta = total - prev_counters.get(name, 0)
        window = span if previous is not None and span > 0 else uptime
        rate = delta / window if window > 0 else 0.0
        lines.append(f"{name:<32}{total:>12}{rate:>12.1f}")
    histograms = view.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append(
            f"{'histogram':<32}{'count':>10}{'p50':>10}{'p95':>10}{'p99':>10}"
            f"{'max':>10}"
        )
        for name, snap in histograms.items():
            h = Histogram.from_snapshot(name, snap)
            if not h.count:
                continue
            lines.append(
                f"{name:<32}{h.count:>10}"
                f"{h.quantile(0.5):>10.1f}{h.quantile(0.95):>10.1f}"
                f"{h.quantile(0.99):>10.1f}{h.maximum:>10.1f}"
            )
    return "\n".join(lines) + "\n"


def top_frames(
    source: str,
    *,
    frames: int = 0,
    interval_s: float = 2.0,
    follow: bool = False,
    write: Callable[[str], None] = lambda text: print(text, end=""),
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Drive ``repro.obs top``: render frames from a file or endpoint.

    ``source`` is a ``metrics.jsonl`` path unless it looks like an admin
    endpoint (``host:port`` or a ``.sock`` path), in which case each
    frame scrapes ``/status``.  ``follow`` keeps refreshing (ANSI clear
    between frames) until ``frames`` is exhausted — ``frames=0`` with
    ``follow`` runs until interrupted, and without ``follow`` renders a
    single frame.
    """
    endpoint = source.endswith(".sock") or (
        ":" in source and "/" not in source.split(":", 1)[0]
    )
    previous: Optional[Dict[str, Any]] = None
    remaining = frames if frames > 0 else (None if follow else 1)
    rendered = 0
    while remaining is None or rendered < remaining:
        if endpoint:
            status = json.loads(scrape_admin(source, "/status"))
            view = build_view(
                status.get("counters", {}),
                status.get("gauges", {}),
                uptime_s=float(status.get("uptime_s", 0.0)),
                seq=int(status.get("seq", 0)),
            )
        else:
            _, samples = read_metrics(source)
            view = view_from_samples(samples)
        frame = render_top(view, previous)
        if follow:
            write("\x1b[2J\x1b[H")
        write(frame)
        previous = view
        rendered += 1
        if remaining is None or rendered < remaining:
            sleep(interval_s)
    return 0
