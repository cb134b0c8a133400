"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, terminal summary.

The Chrome format (the "JSON Array Format" of the Trace Event spec) is
what Perfetto and ``chrome://tracing`` load directly: complete ``"X"``
spans for kernels and buckets, ``"C"`` counter tracks for the per-round
series (Δ_i, ADWL histograms, async drain progress), ``"i"`` instants
for faults/recovery/marks, and ``"M"`` metadata records naming the
tracks.  Timestamps are microseconds; device events use the simulated
clock (pid = device ordinal), host events a separate "host" process.

The JSONL format is one :meth:`TraceEvent.to_dict` object per line with
a leading ``{"schema": "repro.trace/1", ...}`` meta line — the stable
machine-readable form for ad-hoc analysis (``jq``, pandas).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from .tracer import TraceEvent, Tracer

__all__ = [
    "to_chrome",
    "write_chrome",
    "write_jsonl",
    "load_trace",
    "format_summary",
]

SCHEMA = "repro.trace/1"

#: trace-event tracks (tid) per simulated device
_TID_KERNELS = 0
_TID_BUCKETS = 1
_TID_EVENTS = 2

_HOST_PID = 1000
#: host-process track carrying serve-request spans (simulated clock)
_TID_SERVE = 1


def _events_of(trace) -> list[TraceEvent]:
    if isinstance(trace, Tracer):
        return trace.snapshot()
    return list(trace)


def _meta_of(trace) -> dict:
    if isinstance(trace, Tracer):
        return dict(trace.meta, dropped=trace.dropped)
    return {}


def to_chrome(trace) -> dict:
    """Build the Chrome ``trace_event`` document (a JSON-able dict)."""
    events = _events_of(trace)
    out: list[dict] = []
    seen_pids: set[int] = set()
    serve_track_named = False

    def thread_meta(pid: int, tid: int, name: str) -> dict:
        return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name}}

    for e in events:
        if e.device >= 0:
            pid = e.device
            if pid not in seen_pids:
                seen_pids.add(pid)
                out.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "args": {"name": f"gpu{pid} (simulated)"}})
                out.append(thread_meta(pid, _TID_KERNELS, "kernels"))
                out.append(thread_meta(pid, _TID_BUCKETS, "buckets"))
                out.append(thread_meta(pid, _TID_EVENTS, "events"))
        else:
            pid = _HOST_PID
            if pid not in seen_pids:
                seen_pids.add(pid)
                out.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "args": {"name": "host"}})
        ts = e.ts_ms * 1e3  # ms -> µs
        if e.kind == "kernel":
            out.append({"name": e.name, "cat": "kernel", "ph": "X",
                        "pid": pid, "tid": _TID_KERNELS, "ts": ts,
                        "dur": e.dur_ms * 1e3, "args": e.args})
        elif e.kind == "bucket":
            out.append({"name": e.name, "cat": "bucket", "ph": "X",
                        "pid": pid, "tid": _TID_BUCKETS, "ts": ts,
                        "dur": e.dur_ms * 1e3, "args": e.args})
        elif e.kind == "serve":
            # one span per served request on the simulated arrival clock
            if not serve_track_named:
                serve_track_named = True
                out.append(thread_meta(pid, _TID_SERVE, "serve requests"))
            out.append({"name": e.name, "cat": "serve", "ph": "X",
                        "pid": pid, "tid": _TID_SERVE, "ts": ts,
                        "dur": e.dur_ms * 1e3, "args": e.args})
        elif e.kind == "host":
            out.append({"name": e.name, "cat": "host", "ph": "X",
                        "pid": pid, "tid": 0, "ts": ts,
                        "dur": e.dur_ms * 1e3, "args": e.args})
        elif e.kind == "counter":
            numeric = {k: v for k, v in e.args.items()
                       if isinstance(v, (int, float))
                       and not isinstance(v, bool)}
            out.append({"name": e.name, "cat": "counter", "ph": "C",
                        "pid": pid, "tid": _TID_EVENTS, "ts": ts,
                        "args": numeric or {"value": 1}})
        else:  # fault / recovery / alloc / mark
            out.append({"name": f"{e.kind}:{e.name}", "cat": e.kind,
                        "ph": "i", "s": "p",
                        "pid": pid,
                        "tid": _TID_EVENTS if e.device >= 0 else 0,
                        "ts": ts, "args": e.args})
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": dict(_meta_of(trace), schema=SCHEMA),
    }


def write_chrome(trace, path: str) -> None:
    """Write the Perfetto/``chrome://tracing``-loadable JSON file."""
    with open(path, "w") as fh:
        json.dump(to_chrome(trace), fh, indent=1)
        fh.write("\n")


def write_jsonl(trace, path: str) -> None:
    """Write one JSON object per line, preceded by a schema meta line."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": SCHEMA, **_meta_of(trace)}) + "\n")
        for e in _events_of(trace):
            fh.write(json.dumps(e.to_dict()) + "\n")


def load_trace(path: str) -> tuple[list[TraceEvent], dict]:
    """Read back a trace written by either exporter.

    Returns ``(events, meta)``.  Chrome files reconstruct only the
    span/instant structure (args survive; exact kinds are inferred from
    the ``cat`` field, so round-trips are faithful for repro-written
    files).
    """
    with open(path) as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == "{" and _looks_like_jsonl(fh):
            return _load_jsonl(fh)
        doc = json.load(fh)
    events: list[TraceEvent] = []
    meta = dict(doc.get("otherData") or {})
    for rec in doc.get("traceEvents", []):
        ph = rec.get("ph")
        if ph == "M":
            continue
        pid = int(rec.get("pid", 0))
        device = -1 if pid == _HOST_PID else pid
        kind = str(rec.get("cat", "mark"))
        name = str(rec.get("name", ""))
        if kind in ("fault", "recovery", "alloc", "mark", "chaos") and ":" in name:
            name = name.split(":", 1)[1]
        events.append(TraceEvent(
            kind=kind, name=name,
            ts_ms=float(rec.get("ts", 0.0)) / 1e3,
            dur_ms=float(rec.get("dur", 0.0)) / 1e3,
            device=device, args=dict(rec.get("args") or {}),
        ))
    return events, meta


def _looks_like_jsonl(fh) -> bool:
    pos = fh.tell()
    line = fh.readline()
    fh.seek(pos)
    try:
        head = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(head, dict) and str(head.get("schema", "")).startswith(
        "repro.trace/"
    )


def _load_jsonl(fh) -> tuple[list[TraceEvent], dict]:
    meta = json.loads(fh.readline())
    meta.pop("schema", None)
    events = [TraceEvent.from_dict(json.loads(line))
              for line in fh if line.strip()]
    return events, meta


def format_summary(trace, meta: dict | None = None) -> str:
    """Human-readable digest of a trace (the ``cli trace summary`` body)."""
    events = _events_of(trace)
    if meta is None:
        meta = _meta_of(trace)
    lines: list[str] = []
    head = " ".join(f"{k}={v}" for k, v in sorted(meta.items())
                    if k not in ("dropped",))
    lines.append(f"trace: {len(events)} event(s)" + (f"  [{head}]" if head else ""))
    dropped = meta.get("dropped", 0)
    if dropped:
        lines.append(f"  ring buffer overflowed: {dropped} event(s) dropped "
                     "(oldest first)")

    kinds = Counter(e.kind for e in events)
    lines.append("  by kind: " + ", ".join(
        f"{k}={n}" for k, n in sorted(kinds.items())))

    kernels = [e for e in events if e.kind == "kernel"]
    if kernels:
        per: dict[str, list[TraceEvent]] = defaultdict(list)
        for e in kernels:
            per[e.name].append(e)
        total = sum(e.dur_ms for e in kernels)
        host = sum(e.args.get("host_launch", True) for e in kernels)
        lines.append(f"\nkernels ({len(kernels)} segments, {host} host "
                     f"launches, {total:.3f} ms simulated):")
        rows = sorted(per.items(),
                      key=lambda kv: -sum(e.dur_ms for e in kv[1]))
        for name, evs in rows[:12]:
            ms = sum(e.dur_ms for e in evs)
            threads = sum(e.args.get("threads", 0) for e in evs)
            lines.append(f"  {name:<28} {len(evs):>5}x  {ms:>9.3f} ms"
                         f"  {threads:>10} threads")
        if len(rows) > 12:
            lines.append(f"  ... and {len(rows) - 12} more kernel(s)")

    buckets = [e for e in events if e.kind == "bucket"]
    if buckets:
        lines.append(f"\nbuckets ({len(buckets)}):")
        lines.append(f"  {'#':>4} {'lo':>9} {'hi':>9} {'Δ_i':>9} "
                     f"{'ε_i':>7} {'active':>7} {'settled':>8} {'rounds':>6}")
        for e in buckets:
            a = e.args
            delta = (float(a["hi"]) - float(a["lo"])
                     if "hi" in a and "lo" in a else 0.0)
            lines.append(
                "  {:>4} {:>9.3f} {:>9.3f} {:>9.3f} {:>7} {:>7} {:>8} {:>6}"
                .format(a.get("index", "?"), float(a.get("lo", 0.0)),
                        float(a.get("hi", 0.0)), delta,
                        _fmt(a.get("epsilon")), a.get("active", "-"),
                        _fmt_int(a.get("converged")),
                        _fmt_int(a.get("rounds"))))

    counters = Counter(e.name for e in events if e.kind == "counter")
    if counters:
        lines.append("\ncounter series: " + ", ".join(
            f"{k}×{n}" for k, n in sorted(counters.items())))

    adwl = [e for e in events if e.kind == "counter" and e.name == "adwl"]
    if adwl:
        small = sum(e.args.get("small", 0) for e in adwl)
        middle = sum(e.args.get("middle", 0) for e in adwl)
        large = sum(e.args.get("large", 0) for e in adwl)
        lines.append(f"  adwl totals: small={small} middle={middle} "
                     f"large={large}")

    faults = [e for e in events if e.kind == "fault"]
    recoveries = [e for e in events if e.kind == "recovery"]
    if faults or recoveries:
        lines.append(f"\nfaults: {len(faults)} injected, "
                     f"{len(recoveries)} recovery action(s)")
        for e in faults[:8]:
            lines.append(f"  @{e.ts_ms:9.3f} ms  {e.name}"
                         f"  kernel={e.args.get('kernel', '?')}"
                         f"  array={e.args.get('array', '?')}")
        if len(faults) > 8:
            lines.append(f"  ... and {len(faults) - 8} more")

    chaos = [e for e in events if e.kind == "chaos"]
    if chaos:
        by_name = Counter(e.name for e in chaos)
        lines.append(f"\nchaos ({len(chaos)} event(s)):")
        lines.append("  by event: " + ", ".join(
            f"{k}={n}" for k, n in sorted(by_name.items())))
        transitions = [e for e in chaos if e.name.startswith("breaker_")]
        for e in transitions[:10]:
            lines.append(f"  @{e.ts_ms:9.3f} ms  {e.name:<18}"
                         f"  shard={e.args.get('shard', '?')}")
        if len(transitions) > 10:
            lines.append(f"  ... and {len(transitions) - 10} more "
                         "breaker transition(s)")
        shed = by_name.get("shed", 0)
        if shed:
            lines.append(f"  {shed} request(s) shed at their deadline "
                         "(SLO-accounted, never answered wrong)")

    serve = [e for e in events if e.kind == "serve"]
    if serve:
        by_outcome = Counter(e.name for e in serve)
        lat = sorted(e.dur_ms for e in serve)

        def pct(q: float) -> float:
            return lat[min(len(lat) - 1, int(q * (len(lat) - 1) + 0.5))]

        lines.append(f"\nserve requests ({len(serve)}):")
        lines.append("  by outcome: " + ", ".join(
            f"{k}={n}" for k, n in sorted(by_outcome.items())))
        lines.append(f"  latency: p50 {pct(0.50):.4f} ms, "
                     f"p99 {pct(0.99):.4f} ms, max {lat[-1]:.4f} ms "
                     "(simulated)")

    host = [e for e in events if e.kind == "host"]
    if host:
        per_h: dict[str, float] = defaultdict(float)
        for e in host:
            per_h[e.name] += e.dur_ms
        lines.append("\nhost regions (wall):")
        for name, ms in sorted(per_h.items(), key=lambda kv: -kv[1])[:8]:
            lines.append(f"  {name:<32} {ms:>9.1f} ms")
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    try:
        return f"{float(v):.3f}"
    except (TypeError, ValueError):
        return str(v)


def _fmt_int(v) -> str:
    return "-" if v is None else str(v)
