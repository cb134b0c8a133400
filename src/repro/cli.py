"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     run one SSSP method on a graph and print the measurements
``compare``   run several methods on one graph, print a comparison table
``profile``   run one method and print the kernel timeline / bottlenecks,
              or ``--suite NAME`` for a host wall-time profile of a suite
``datasets``  list the bundled Table-1 surrogate datasets
``sanitize``  run one method under the hazard sanitizer and report findings
``faults``    run one method under deterministic fault injection and the
              self-healing runtime, then print the fault report
``lint``      statically check kernel-authoring rules (repro-lint)
``analyze``   static kernel effect inference: per-kernel effect
              signatures, AN3xx race proofs, async-safety verdicts, and
              the ``ANALYSIS_manifest.json`` drift gate
``bench``     continuous benchmarking: run suites, gate against baselines,
              diff trajectory files (``bench run | check | diff``)
``trace``     structured event tracing: record a run's kernel/bucket/ADWL
              timeline, summarize or convert trace files
              (``trace run | summary | export``)
``serve``     online SSSP query serving: play a deterministic traffic
              session (or a gated serve suite) against the scheduler —
              landmark oracle, distance-field LRU, sharded exact fallback
``cache``     inspect or clear the persistent artifact cache
              (``cache status | clear``)

Graphs are specified with a compact ``kind:args`` syntax::

    kron:12,16        Kronecker SCALE=12, edgefactor=16 (int weights)
    road:64,64        64x64 road grid
    pa:4000,6         preferential attachment, n=4000, 6 edges/vertex
    er:1000,8000      Erdős–Rényi, n=1000, m=8000
    road-TX           any bundled dataset name (see `datasets`)
    path/to/file.gr   DIMACS / edge-list / .npz files
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .graphs import (
    CSRGraph,
    dataset_names,
    erdos_renyi,
    grid_road_network,
    kronecker,
    largest_component_vertices,
    load,
    load_npz,
    preferential_attachment,
    read_dimacs_gr,
    read_edge_list,
)
from .faults import GPU_METHODS, plan_names
from .serve.chaos import chaos_plan_names
from .gpusim import A100, T4, V100
from .sssp import (
    METHOD_OPTIONS,
    DistanceMismatch,
    method_names,
    sssp,
    validate_distances,
)

__all__ = ["main", "parse_graph_spec", "parse_gpu_spec"]

_SPECS = {"v100": V100, "t4": T4, "a100": A100}


def parse_graph_spec(spec: str, seed: int = 0) -> CSRGraph:
    """Build a graph from the CLI's ``kind:args`` syntax (see module doc)."""
    if ":" in spec and not Path(spec).exists():
        kind, _, args = spec.partition(":")
        parts = [int(x) for x in args.split(",") if x]
        if kind == "kron":
            scale, ef = (parts + [16])[:2]
            return kronecker(scale, ef, weights="int", seed=seed)
        if kind == "road":
            w, h = (parts + [parts[0]])[:2]
            return grid_road_network(w, h, seed=seed)
        if kind == "pa":
            n, k = (parts + [4])[:2]
            return preferential_attachment(n, k, seed=seed)
        if kind == "er":
            n, m = (parts + [parts[0] * 8])[:2]
            return erdos_renyi(n, m, seed=seed)
        raise SystemExit(f"unknown graph kind {kind!r}")
    if spec in dataset_names():
        return load(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"no such dataset or file: {spec!r}")
    if path.suffix == ".npz":
        return load_npz(path)
    if path.suffix == ".gr":
        return read_dimacs_gr(path)
    return read_edge_list(path)


def parse_gpu_spec(name: str, workload_scale: float):
    """Resolve a platform name + scaled-simulation factor."""
    try:
        base = _SPECS[name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown GPU {name!r}; choose from {', '.join(_SPECS)}"
        ) from None
    return base.scaled_for_workload(workload_scale)


def _pick_source(graph: CSRGraph, arg: str) -> int:
    if arg == "auto":
        comp = largest_component_vertices(graph)
        if comp.size == 0:
            raise SystemExit("graph has no vertices")
        return int(comp[0])
    return int(arg)


def _gpu_kwargs(args, method: str, *, delta_methods_only: bool = False) -> dict:
    """The solver keywords the command line sets for ``method``.

    ``--delta`` on a method that takes no Δ exits with a one-line error,
    or, with ``delta_methods_only``, is left out for that method.
    """
    kw: dict = {}
    if method in GPU_METHODS:
        kw["spec"] = parse_gpu_spec(args.gpu, args.workload_scale)
    if args.delta is not None:
        if "delta" in METHOD_OPTIONS[method]:
            kw["delta"] = args.delta
        elif not delta_methods_only:
            raise SystemExit(f"method {method!r} takes no --delta")
    return kw


def _cmd_solve(args) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    r = sssp(graph, source, method=args.method, **_gpu_kwargs(args, args.method))
    if not args.no_validate:
        validate_distances(graph, source, r.dist)
    reached = int(np.isfinite(r.dist).sum())
    print(f"graph     : {graph}")
    print(f"method    : {r.method}")
    print(f"source    : {source}  (reached {reached}/{graph.num_vertices})")
    print(f"time      : {r.time_ms:.4f} ms (simulated)")
    print(f"throughput: {r.gteps:.3f} GTEPS")
    if r.work:
        print(f"updates   : {r.work.total_updates} total, "
              f"{r.work.valid_updates} valid (ratio {r.work.update_ratio:.2f})")
    if not args.no_validate:
        print("validated against scipy ✓")
    return 0


def _cmd_compare(args) -> int:
    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    methods = args.methods.split(",")
    unknown = [m for m in methods if m not in method_names()]
    if unknown:
        raise SystemExit(f"unknown methods: {unknown}; see `--list-methods`")
    print(f"graph: {graph}, source {source}\n")
    print(f"{'method':<16} {'time (ms)':>10} {'GTEPS':>8} {'ratio':>7}")
    for m in methods:
        r = sssp(graph, source, method=m,
                 **_gpu_kwargs(args, m, delta_methods_only=True))
        if not args.no_validate:
            validate_distances(graph, source, r.dist)
        ratio = r.work.update_ratio if r.work else float("nan")
        print(f"{m:<16} {r.time_ms:>10.4f} {r.gteps:>8.3f} {ratio:>7.2f}")
    return 0


def _primitive_breakdown(prof) -> dict:
    """The ``primitive:*`` regions of a profiler as a JSON-ready dict.

    One entry per primitive family (``sort`` / ``scan`` /
    ``multisplit``) with accumulated host seconds and call counts — the
    per-primitive breakdown ``repro profile`` prints and serializes.
    """
    out = {}
    for name in sorted(prof.seconds):
        if not name.startswith("primitive:"):
            continue
        out[name.split(":", 1)[1]] = {
            "seconds": float(prof.seconds[name]),
            "calls": int(prof.calls[name]),
        }
    return out


def _print_primitives(prims: dict) -> None:
    if not prims:
        return
    print("\nper-primitive host time:")
    for name, row in sorted(
        prims.items(), key=lambda kv: kv[1]["seconds"], reverse=True
    ):
        print(f"  {name:<12s} {row['seconds']:9.3f} s {row['calls']:8d} calls")


def _cmd_profile(args) -> int:
    if args.suite:
        return _profile_suite(args)
    if not args.graph:
        raise SystemExit("profile: provide a graph spec, or --suite NAME "
                         "for a host-time suite profile")
    from .perf.profile import profiling

    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    with profiling() as prof:
        r = sssp(
            graph, source, method=args.method,
            **_gpu_kwargs(args, args.method),
        )
    timeline = r.extra.get("timeline")
    if timeline is None:
        raise SystemExit(f"method {args.method!r} has no kernel timeline "
                         "(CPU methods are not profiled)")
    print(f"graph: {graph}, method {r.method}, "
          f"simulated {r.time_ms:.4f} ms\n")
    print(timeline.report())
    c = r.counters.totals
    print(
        f"\ncounters: loads={c.inst_executed_global_loads} "
        f"stores={c.inst_executed_global_stores} "
        f"atomics={c.inst_executed_atomics} "
        f"hit={c.global_hit_rate:.1f}% "
        f"simt_eff={c.simt_efficiency:.2f}"
    )
    prims = _primitive_breakdown(prof)
    _print_primitives(prims)
    if args.json:
        prof.write_json(
            args.json,
            extra={
                "graph": str(graph),
                "method": r.method,
                "time_ms": float(r.time_ms),
                "primitives": prims,
            },
        )
        print(f"wrote host-profile report to {args.json}")
    return 0


def _profile_suite(args) -> int:
    """Host wall-time profile of one bench suite (``profile --suite``).

    Times named host regions (generation, preprocessing, per-kernel
    accounting, solver calls) across a full suite run and reports them
    next to the artifact-cache statistics — the report that demonstrates
    the host-optimization layer's speedup.  With ``--jobs`` > 1 the cells
    run in worker processes, whose region timings stay in the workers;
    profile with the default serial run for a complete breakdown.
    """
    import time

    from .bench import run_suite
    from .perf import cache_stats
    from .perf.profile import profiling

    with profiling() as prof:
        t0 = time.perf_counter()
        records = run_suite(args.suite, jobs=args.jobs)
        wall = time.perf_counter() - t0
    solver = sum(r.host_seconds for r in records)
    print(f"suite {args.suite!r}: {len(records)} cell(s), jobs={args.jobs}")
    print(f"host wall {wall:.2f} s, solver host {solver:.2f} s\n")
    print(prof.format_table())
    prims = _primitive_breakdown(prof)
    _print_primitives(prims)
    st = cache_stats()
    s = st["session"]
    print(
        f"\nartifact cache: {st['entries']} entr(y/ies), "
        f"{st['bytes'] / 1e6:.1f} MB at {st['root']} "
        f"(session: {s['hits']} hit(s), {s['misses']} miss(es))"
    )
    if args.json:
        prof.write_json(
            args.json,
            extra={
                "suite": args.suite,
                "jobs": args.jobs,
                "suite_wall_seconds": wall,
                "solver_host_seconds": solver,
                "cache": st,
                "primitives": prims,
            },
        )
        print(f"wrote host-profile report to {args.json}")
    return 0


def _cmd_cache(args) -> int:
    """Inspect or clear the persistent artifact cache."""
    from .perf import artifacts

    store = artifacts.get_cache()
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entr(y/ies) from {store.root}")
        return 0
    st = store.status()
    print(f"root    : {st['root']}")
    print(f"enabled : {st['enabled']}")
    print(f"entries : {st['entries']} ({st['bytes'] / 1e6:.1f} MB, "
          f"cap {st['max_bytes'] / 1e6:.0f} MB)")
    for cat, n in st["categories"].items():
        print(f"  {cat:<12s} {n}")
    s = st["session"]
    print(f"session : {s['hits']} hit(s), {s['misses']} miss(es), "
          f"{s['stores']} store(s), {s['rejected']} rejected")
    return 0


def _cmd_sanitize(args) -> int:
    """Run one method under the dynamic hazard sanitizer."""
    import json

    from .analysis import sanitized_sssp

    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    r, report = sanitized_sssp(
        graph, source, method=args.method,
        strict=args.strict, **_gpu_kwargs(args, args.method),
    )
    if not args.no_validate:
        validate_distances(graph, source, r.dist)
    if args.format == "json":
        shown = report.findings if args.warnings else report.errors
        print(json.dumps({
            "graph": graph.name,
            "method": r.method,
            "kernels_checked": report.kernels_checked,
            "accesses_checked": report.accesses_checked,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "dropped": report.dropped,
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "message": f.message,
                    "kernel": f.kernel,
                    "array": f.array,
                    "count": f.count,
                }
                for f in shown
            ],
        }, indent=2))
        return 1 if report.errors else 0
    print(f"graph   : {graph}")
    print(f"method  : {r.method}")
    print(f"checked : {report.kernels_checked} window(s), "
          f"{report.accesses_checked} access(es), "
          f"{len(report.errors)} hazard(s), {len(report.warnings)} warning(s)")
    shown = report.findings if args.warnings else report.errors
    for f in shown:
        print(f"  {f}")
    if report.dropped:
        print(f"  ... {report.dropped} further finding(s) dropped")
    return 1 if report.errors else 0


def _cmd_faults(args) -> int:
    """Run one method under deterministic fault injection."""
    from .faults import InjectedKernelAbort

    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    tracer = None
    try:
        if args.trace:
            from .trace import tracing

            with tracing() as tracer:
                tracer.meta.update(
                    graph=graph.name, method=args.method, plan=args.plan
                )
                r, report = _run_faulty(args, graph, source)
        else:
            r, report = _run_faulty(args, graph, source)
    except InjectedKernelAbort as exc:
        # fail-stop: without the recovery runtime an injected abort
        # terminates the run, as it would on real hardware
        print(f"run terminated by injected fault: {exc}")
        if tracer is not None:
            _write_trace(tracer, args.trace, None)
        return 1
    print(f"graph   : {graph}")
    print(f"method  : {r.method}")
    print(f"plan    : {report.plan} (seed {report.seed}, "
          f"recovery {'off' if args.no_recovery else 'on'})")
    print(report.summary())
    if tracer is not None:
        _write_trace(tracer, args.trace, None)
    ok = report.escaped == 0 and report.verified is not False
    if not args.no_validate:
        try:
            validate_distances(graph, source, r.dist)
            print("validated against scipy ✓")
        except DistanceMismatch as exc:
            ok = False
            print(f"validation FAILED: {exc}")
    return 0 if ok else 1


def _run_faulty(args, graph, source):
    from .faults import faulty_sssp

    return faulty_sssp(
        graph, source, method=args.method,
        plan=args.plan, seed=args.seed,
        recovery=not args.no_recovery,
        **_gpu_kwargs(args, args.method),
    )


def _trace_format(path: str, fmt: str | None) -> str:
    """Resolve an export format: explicit flag, else by file suffix."""
    if fmt:
        return fmt
    return "jsonl" if str(path).endswith(".jsonl") else "chrome"


def _write_trace(tracer, path: str, fmt: str | None) -> None:
    from .trace import write_chrome, write_jsonl

    fmt = _trace_format(path, fmt)
    (write_jsonl if fmt == "jsonl" else write_chrome)(tracer, path)
    dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
    print(f"wrote {fmt} trace ({len(tracer)} event(s){dropped}) to {path}")


def _cmd_trace_run(args) -> int:
    """Run one method under the tracer and export the event timeline."""
    from .trace import DEFAULT_CAPACITY, tracing

    graph = parse_graph_spec(args.graph, seed=args.seed)
    source = _pick_source(graph, args.source)
    with tracing(capacity=args.capacity or DEFAULT_CAPACITY) as tr:
        tr.meta.update(graph=graph.name, method=args.method, source=source)
        r = sssp(
            graph, source, method=args.method,
            **_gpu_kwargs(args, args.method),
        )
    if not args.no_validate:
        validate_distances(graph, source, r.dist)
    print(f"graph  : {graph}")
    print(f"method : {r.method}  ({r.time_ms:.4f} ms simulated)")
    _write_trace(tr, args.out, args.format)
    return 0


def _load_trace_file(path: str):
    """Read a trace file back into a Tracer (meta preserved)."""
    from .trace import Tracer, load_trace

    if not Path(path).exists():
        raise SystemExit(f"no such trace file: {path!r}")
    events, meta = load_trace(path)
    tr = Tracer(capacity=max(len(events), 1))
    meta.pop("schema", None)
    tr.dropped = int(meta.pop("dropped", 0) or 0)
    tr.meta.update(meta)
    tr.events.extend(events)
    return tr


def _cmd_trace_summary(args) -> int:
    """Print the terminal digest of a recorded trace file."""
    from .trace import format_summary

    tr = _load_trace_file(args.trace_file)
    print(format_summary(tr))
    return 0


def _cmd_trace_export(args) -> int:
    """Convert a trace file between the Chrome and JSONL formats."""
    out = args.out
    if out is None:
        suffix = ".jsonl" if args.format == "jsonl" else ".chrome.json"
        out = str(Path(args.trace_file).with_suffix(suffix))
    _write_trace(_load_trace_file(args.trace_file), out, args.format)
    return 0


def _cmd_lint(args) -> int:
    """Static kernel-authoring lint over python sources."""
    import json

    from .analysis import lint_paths

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"no such file or directory: {', '.join(missing)}")
    findings = lint_paths(args.paths)
    if args.format == "json":
        print(json.dumps({
            "findings": [
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
            "count": len(findings),
        }, indent=2))
        return 1 if findings else 0
    for f in findings:
        print(f"{f.path}:{f.line}: {f.rule} {f.message}")
    n = len(findings)
    print(f"{n} finding(s)" if n else "clean ✓")
    return 1 if n else 0


def _cmd_analyze(args) -> int:
    """Static kernel effect inference + AN3xx race/async-safety audit."""
    import json

    from .analysis.static import (
        analyze_paths,
        build_manifest,
        diff_manifest,
        load_manifest,
        signature_payload,
        write_manifest,
    )

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"no such file or directory: {', '.join(missing)}")
    signatures, findings = analyze_paths(args.paths)
    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity != "error"]

    drift: list[str] = []
    if args.manifest:
        computed = build_manifest(signatures)
        if args.refresh:
            write_manifest(args.manifest, computed)
        else:
            try:
                committed = load_manifest(args.manifest)
            except FileNotFoundError:
                raise SystemExit(
                    f"manifest {args.manifest} not found; generate it with "
                    f"--refresh"
                )
            drift = diff_manifest(committed, computed)

    if args.format == "json":
        print(json.dumps({
            "kernels": {
                key: signature_payload(sig)
                for key, sig in sorted(signatures.items())
            },
            "findings": [
                {"path": f.path, "line": f.line, "code": f.code,
                 "severity": f.severity, "message": f.message,
                 "kernel": f.kernel}
                for f in findings
            ],
            "errors": len(errors),
            "warnings": len(warnings),
            "manifest_drift": drift,
        }, indent=2))
        return 1 if errors or drift else 0

    for f in findings:
        print(f"{f.path}:{f.line}: {f.code} [{f.severity}] {f.message}")
    verdicts: dict[str, int] = {}
    for sig in signatures.values():
        verdicts[sig.verdict] = verdicts.get(sig.verdict, 0) + 1
    vs = ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items()))
    print(f"{len(signatures)} kernel(s) analyzed ({vs}); "
          f"{len(errors)} error(s), {len(warnings)} warning(s)")
    if args.manifest and args.refresh:
        print(f"manifest refreshed: {args.manifest}")
    for line in drift:
        print(f"manifest drift: {line}")
    if drift:
        print(f"refresh with: python -m repro.cli analyze "
              f"{' '.join(args.paths)} --manifest {args.manifest} --refresh")
    elif args.manifest and not args.refresh:
        print(f"manifest ✓ {args.manifest}")
    if not findings and not drift:
        print("clean ✓")
    return 1 if errors or drift else 0


def _cmd_selfcheck(_args) -> int:
    """Quick end-to-end health check: every method on one small graph."""
    g = kronecker(8, 8, weights="int", seed=0)
    comp = largest_component_vertices(g)
    source = int(comp[0])
    spec = V100.scaled_for_workload(1 / 64)
    failures = 0
    for m in method_names():
        kw = {"spec": spec} if m in GPU_METHODS else {}
        try:
            r = sssp(g, source, method=m, **kw)
            validate_distances(g, source, r.dist)
            print(f"  {m:<18} ok   ({r.time_ms:.4f} ms simulated)")
        except Exception as exc:  # pragma: no cover - only on breakage
            failures += 1
            print(f"  {m:<18} FAIL ({exc})")
    if failures:
        print(f"\n{failures} method(s) failed")
        return 1
    print(f"\nall {len(method_names())} methods validated against scipy ✓")
    return 0


def _cmd_bench_run(args) -> int:
    """Run a named suite and write its ``BENCH_<suite>.json`` trajectory."""
    from .bench import run_suite, write_trajectory

    trace_path = getattr(args, "trace", None)
    if trace_path and args.jobs != 1:
        raise SystemExit(
            "bench run --trace requires --jobs 1: worker processes cannot "
            "stream their device events back to the parent's ring buffer"
        )
    print(f"running bench suite {args.suite!r} (jobs={args.jobs}) ...")
    if trace_path:
        from .trace import tracing

        with tracing() as tr:
            tr.meta.update(suite=args.suite)
            records = run_suite(args.suite, progress=print, jobs=args.jobs)
    else:
        records = run_suite(args.suite, progress=print, jobs=args.jobs)
    out = Path(args.out) if args.out else Path(f"BENCH_{args.suite}.json")
    write_trajectory(out, records, suite=args.suite)
    print(f"wrote {len(records)} record(s) to {out}")
    if trace_path:
        _write_trace(tr, trace_path, None)
    return 0


def _cmd_bench_check(args) -> int:
    """Gate a fresh (or given) run against a committed baseline."""
    from .bench import (
        SchemaVersionError,
        compare_records,
        load_trajectory,
        run_suite,
    )

    try:
        meta, baseline = load_trajectory(args.baseline)
    except SchemaVersionError as exc:
        raise SystemExit(str(exc)) from None
    if args.current:
        try:
            _, current = load_trajectory(args.current)
        except SchemaVersionError as exc:
            raise SystemExit(str(exc)) from None
        print(f"comparing {args.current} against baseline {args.baseline}")
    else:
        suite = meta.get("suite", "quick")
        print(f"running suite {suite!r} against baseline {args.baseline}")
        current = run_suite(suite, progress=print, jobs=args.jobs)
    report = compare_records(
        baseline, current,
        wall_tolerance=args.wall_tolerance,
        check_wall=not args.no_wall,
    )
    print(report.summary())
    if report.ok:
        print("bench check: clean against baseline ✓")
        return 0
    print(
        "bench check: trajectory drifted — investigate, or refresh the "
        "baseline with `python -m repro.cli bench run` if the change is "
        "intended (see docs/benchmarking.md)"
    )
    return 1


def _cmd_bench_diff(args) -> int:
    """Print a per-cell regression table between two trajectory files."""
    from .bench import SchemaVersionError, format_diff, load_trajectory

    try:
        _, a = load_trajectory(args.a)
        _, b = load_trajectory(args.b)
    except SchemaVersionError as exc:
        raise SystemExit(str(exc)) from None
    print(format_diff(a, b, labels=(Path(args.a).name, Path(args.b).name)))
    return 0


def _cmd_serve(args) -> int:
    """Online query serving: run traffic sessions and gate correctness.

    Two modes share one exit-code contract (0 clean; 1 on any wrong
    answer or escaped fault):

    * ``--suite smoke|chaos`` plays every session of a serve bench
      suite (:mod:`repro.serve.bench`) — what CI gates on every PR;
    * a graph spec plays one ad-hoc session configured by the flags.
    """
    if args.suite is None and args.graph is None:
        raise SystemExit("serve: provide a graph spec, or --suite NAME "
                         "to play a serve bench suite")
    if args.trace and args.jobs != 1:
        raise SystemExit("serve --trace requires --jobs 1: worker "
                         "processes cannot stream request spans back")
    if args.trace:
        from .trace import tracing

        with tracing() as tr:
            tr.meta.update(suite=args.suite or "custom", seed=args.seed)
            code, records, suite_label = _serve_session(args)
        _write_trace(tr, args.trace, None)
    else:
        code, records, suite_label = _serve_session(args)
    if args.out:
        from .bench import write_trajectory

        write_trajectory(args.out, records, suite=suite_label)
        # keep stdout pure JSON under --format json
        dest = sys.stderr if args.format == "json" else sys.stdout
        print(f"wrote {len(records)} record(s) to {args.out}", file=dest)
    return code


def _serve_session(args):
    """Run the requested serve session(s); returns (exit_code, records)."""
    import json

    from .serve.bench import (
        SERVE_SUITES,
        ServeCellSpec,
        play_serve_suite,
        report_to_record,
    )

    fmt = args.format
    failures = 0
    records = []
    if args.suite is not None:
        suite = f"serve-{args.suite}"
        if suite not in SERVE_SUITES:
            short = ", ".join(s.removeprefix("serve-") for s in SERVE_SUITES)
            raise SystemExit(
                f"unknown serve suite {args.suite!r}; choose from {short}"
            )
        cells = SERVE_SUITES[suite]
        if fmt == "text":
            print(f"serve suite {suite!r} "
                  f"({len(cells)} session(s), seed offset {args.seed})")
        sessions = []
        for cell, report, rec in play_serve_suite(
            suite, seed_offset=args.seed, jobs=args.jobs
        ):
            if fmt == "text":
                print(f"\n[{cell.dataset}/{cell.name}]")
                print(report.summary())
            sessions.append({
                "cell": cell.name,
                "dataset": cell.dataset,
                "ok": report.ok,
                "counters": report.counter_dict(),
            })
            records.append(rec)
            if not report.ok:
                failures += 1
        if fmt == "json":
            print(json.dumps({
                "suite": suite,
                "seed_offset": args.seed,
                "sessions": len(cells),
                "failures": failures,
                "ok": not failures,
                "reports": sessions,
            }, indent=2))
        else:
            print(f"\n{len(cells) - failures}/{len(cells)} session(s) clean"
                  + (" ✓" if not failures else " — FAILED"))
        return (1 if failures else 0), records, suite

    from .serve import ServeConfig, serve_traffic

    graph = parse_graph_spec(args.graph, seed=args.seed)
    config = ServeConfig(
        num_queries=args.queries,
        seed=args.seed,
        p2p_fraction=args.p2p_fraction,
        tolerance=args.tolerance,
        source_pool=args.pool,
        cold_fraction=args.cold_fraction,
        landmarks=args.landmarks,
        shards=args.shards,
        rate_qpms=args.rate,
        method=args.method,
        plan=args.plan,
        chaos=args.chaos_plan,
        deadline_ms=args.deadline_ms,
    )
    spec = (
        parse_gpu_spec(args.gpu, args.workload_scale)
        if args.method in GPU_METHODS else None
    )
    report = serve_traffic(
        graph, config, spec=spec, validate=not args.no_validate
    )
    if fmt == "json":
        print(json.dumps({
            "graph": graph.name,
            "seed": args.seed,
            "ok": report.ok,
            "counters": report.counter_dict(),
        }, indent=2))
    else:
        print(f"graph   : {graph}")
        print(report.summary())
    cell = ServeCellSpec(name="custom", dataset=graph.name, config=config)
    records.append(report_to_record(cell, report))
    return (0 if report.ok else 1), records, "serve-custom"


def _cmd_datasets(_args) -> int:
    print(f"{'name':<10} {'n':>8} {'m':>9} {'avg_deg':>8} {'class'}")
    from .graphs.surrogates import DATASETS

    for name, spec in DATASETS.items():
        g = load(name)
        print(
            f"{name:<10} {g.num_vertices:>8} {g.num_edges:>9} "
            f"{g.average_degree:>8.2f} stands in for {spec.stands_for}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Bucket-aware asynchronous SSSP (RDBS) reproduction",
    )
    p.add_argument(
        "--list-methods", action="store_true", help="list SSSP methods and exit"
    )
    sub = p.add_subparsers(dest="command")

    def common(sp, graph_required=True):
        if graph_required:
            sp.add_argument(
                "graph", help="graph spec (kind:args, dataset, or file)"
            )
        else:
            sp.add_argument(
                "graph", nargs="?", default=None,
                help="graph spec (kind:args, dataset, or file)",
            )
        sp.add_argument("--source", default="auto",
                        help="source vertex id or 'auto' (default)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--gpu", default="v100", help="v100 | t4 | a100")
        sp.add_argument("--workload-scale", type=float, default=1 / 64,
                        help="scaled-simulation factor (default 1/64)")
        sp.add_argument("--delta", type=float, default=None)
        sp.add_argument("--no-validate", action="store_true")

    sp = sub.add_parser("solve", help="run one method")
    common(sp)
    sp.add_argument("--method", default="rdbs", choices=method_names())
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("compare", help="run several methods")
    common(sp)
    sp.add_argument("--methods", default="bl,adds,rdbs")
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser(
        "profile",
        help="kernel timeline of one method, or --suite host-time profile",
    )
    common(sp, graph_required=False)
    sp.add_argument("--method", default="rdbs", choices=method_names())
    from .bench.suites import suite_names as _profile_suites

    sp.add_argument("--suite", default=None, choices=_profile_suites(),
                    help="profile host wall-time of a bench suite instead")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for --suite (0 = all cores)")
    sp.add_argument("--json", default=None, metavar="PATH",
                    help="also write the host-profile report "
                         "(with the per-primitive breakdown) as JSON")
    sp.set_defaults(fn=_cmd_profile)

    sp = sub.add_parser(
        "sanitize", help="run one method under the hazard sanitizer"
    )
    common(sp)
    sp.add_argument("--method", default="rdbs", choices=method_names(),
                    help="method to sanitize — any registered engine "
                         "(from the repro.sssp registry): %(choices)s")
    sp.add_argument("--strict", action="store_true",
                    help="raise on the first hazard instead of collecting")
    sp.add_argument("--warnings", action="store_true",
                    help="also print benign (warning-level) findings")
    sp.add_argument("--format", default="text", choices=["text", "json"],
                    help="output format (json for CI artifacts)")
    sp.set_defaults(fn=_cmd_sanitize)

    sp = sub.add_parser(
        "faults", help="run one method under deterministic fault injection"
    )
    common(sp)
    sp.add_argument("--method", default="rdbs", choices=sorted(GPU_METHODS))
    sp.add_argument("--plan", default="lost-updates", choices=plan_names())
    sp.add_argument("--no-recovery", action="store_true",
                    help="inject without the self-healing runtime")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="also record a structured event trace (faults and "
                         "recovery actions on the simulated timeline)")
    sp.set_defaults(fn=_cmd_faults)

    sp = sub.add_parser(
        "lint", help="static kernel-authoring lint (repro-lint)"
    )
    sp.add_argument("paths", nargs="*", default=["src/repro"],
                    help="files or directories (default: src/repro)")
    sp.add_argument("--format", default="text", choices=["text", "json"],
                    help="output format (json for CI artifacts)")
    sp.set_defaults(fn=_cmd_lint)

    sp = sub.add_parser(
        "analyze",
        help="static kernel effect inference + async-safety audit (AN3xx)",
    )
    sp.add_argument("paths", nargs="*", default=["src/repro"],
                    help="files or directories (default: src/repro)")
    sp.add_argument("--format", default="text", choices=["text", "json"],
                    help="output format (json for CI artifacts)")
    sp.add_argument("--manifest", default=None, metavar="PATH",
                    help="gate inferred effect signatures against this "
                         "committed manifest (ANALYSIS_manifest.json)")
    sp.add_argument("--refresh", action="store_true",
                    help="rewrite the --manifest file instead of gating")
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser(
        "bench", help="continuous benchmarking (JSON perf trajectory)"
    )
    bench_sub = sp.add_subparsers(dest="bench_command", required=True)

    bp = bench_sub.add_parser(
        "run", help="run a suite and write BENCH_<suite>.json"
    )
    from .bench.suites import suite_names as _suite_names

    bp.add_argument("--suite", default="quick", choices=_suite_names())
    bp.add_argument("--out", default=None,
                    help="output path (default BENCH_<suite>.json in cwd)")
    bp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for suite cells (0 = all cores)")
    bp.add_argument("--trace", default=None, metavar="PATH",
                    help="also record a structured event trace of the whole "
                         "suite run (requires --jobs 1)")
    bp.set_defaults(fn=_cmd_bench_run)

    bp = bench_sub.add_parser(
        "check", help="re-run a baseline's suite and gate on regressions"
    )
    bp.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json to gate against")
    bp.add_argument("--current", default=None,
                    help="compare this trajectory file instead of re-running")
    bp.add_argument("--wall-tolerance", type=float, default=0.25,
                    help="relative host wall-clock slack (default 0.25)")
    bp.add_argument("--no-wall", action="store_true",
                    help="skip the wall-clock tier (cross-machine gating)")
    bp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the re-run (0 = all cores)")
    bp.set_defaults(fn=_cmd_bench_check)

    bp = bench_sub.add_parser(
        "diff", help="per-cell regression table between two trajectories"
    )
    bp.add_argument("a", help="left trajectory file")
    bp.add_argument("b", help="right trajectory file")
    bp.set_defaults(fn=_cmd_bench_diff)

    sp = sub.add_parser(
        "trace", help="structured event tracing (repro.trace)"
    )
    trace_sub = sp.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser(
        "run", help="run one method under the tracer and export the timeline"
    )
    common(tp)
    tp.add_argument("--method", default="rdbs", choices=method_names())
    tp.add_argument("--out", default="trace.json",
                    help="output path (default trace.json; *.jsonl selects "
                         "the JSONL format)")
    tp.add_argument("--format", default=None, choices=("chrome", "jsonl"),
                    help="export format (default: by --out suffix)")
    tp.add_argument("--capacity", type=int, default=None,
                    help="ring-buffer capacity in events "
                         "(default 262144; oldest events drop past it)")
    tp.set_defaults(fn=_cmd_trace_run)

    tp = trace_sub.add_parser(
        "summary", help="print the terminal digest of a trace file"
    )
    tp.add_argument("trace_file", help="chrome or jsonl trace file")
    tp.set_defaults(fn=_cmd_trace_summary)

    tp = trace_sub.add_parser(
        "export", help="convert a trace file between chrome and jsonl"
    )
    tp.add_argument("trace_file", help="chrome or jsonl trace file")
    tp.add_argument("--format", required=True, choices=("chrome", "jsonl"),
                    help="target format")
    tp.add_argument("--out", default=None,
                    help="output path (default: input with matching suffix)")
    tp.set_defaults(fn=_cmd_trace_export)

    sp = sub.add_parser(
        "serve", help="online SSSP query serving (repro.serve)"
    )
    sp.add_argument("graph", nargs="?", default=None,
                    help="graph spec for one ad-hoc session "
                         "(omit with --suite)")
    sp.add_argument("--suite", default=None, metavar="NAME",
                    help="play a serve bench suite (smoke | chaos) "
                         "instead of one graph")
    sp.add_argument("--seed", type=int, default=0,
                    help="session seed (suite mode: offset added to every "
                         "cell's committed seed; 0 = the gated baseline)")
    sp.add_argument("--queries", type=int, default=100,
                    help="queries in the ad-hoc session (default 100)")
    sp.add_argument("--p2p-fraction", type=float, default=0.7,
                    help="fraction of point-to-point queries (default 0.7)")
    sp.add_argument("--tolerance", type=float, default=0.15,
                    help="relative tolerance an oracle answer must certify")
    sp.add_argument("--pool", type=int, default=8,
                    help="hot-source pool size (default 8)")
    sp.add_argument("--cold-fraction", type=float, default=0.0,
                    help="fraction of p2p queries from cold uniform sources")
    sp.add_argument("--landmarks", type=int, default=4,
                    help="ALT landmark count for the oracle (default 4)")
    sp.add_argument("--shards", type=int, default=2,
                    help="simulated GPU lanes for exact runs (default 2)")
    sp.add_argument("--rate", type=float, default=25.0,
                    help="mean arrivals per simulated ms (default 25)")
    sp.add_argument("--method", default="rdbs", choices=method_names(),
                    help="exact engine for warmup and fallbacks")
    sp.add_argument("--plan", default=None, choices=plan_names(),
                    help="inject this fault plan into every exact run "
                         "(self-healing runtime on)")
    sp.add_argument("--chaos-plan", default=None,
                    choices=chaos_plan_names(),
                    help="attack the serving tier itself with this chaos "
                         "plan (shard blackouts/slowdowns, cache "
                         "corruption, oracle outages; repro.serve.chaos)")
    sp.add_argument("--deadline-ms", type=float, default=0.0,
                    help="per-request deadline in simulated ms; late "
                         "requests walk the degradation ladder "
                         "(0 = no deadline)")
    sp.add_argument("--format", default="text", choices=["text", "json"],
                    help="output format (json emits the session counter "
                         "dict for CI artifacts)")
    sp.add_argument("--gpu", default="v100", help="v100 | t4 | a100")
    sp.add_argument("--workload-scale", type=float, default=1 / 64,
                    help="scaled-simulation factor (default 1/64)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for suite sessions (0 = all "
                         "cores)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="also write the session records as a trajectory "
                         "JSON (BENCH_serve.json schema)")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="also record request spans as a structured trace "
                         "(requires --jobs 1)")
    sp.add_argument("--no-validate", action="store_true",
                    help="skip the SciPy correctness checks (ad-hoc "
                         "sessions only; suites always validate)")
    sp.set_defaults(fn=_cmd_serve)

    sp = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache_sub = sp.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("status", help="entry counts, size, hit stats")
    cache_sub.add_parser("clear", help="delete every cache entry")
    sp.set_defaults(fn=_cmd_cache)

    sp = sub.add_parser("datasets", help="list bundled dataset surrogates")
    sp.set_defaults(fn=_cmd_datasets)

    sp = sub.add_parser(
        "selfcheck", help="validate every method on a small graph"
    )
    sp.set_defaults(fn=_cmd_selfcheck)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_methods:
        print("\n".join(method_names()))
        return 0
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed the pipe mid-report;
        # detach stdout so interpreter shutdown doesn't re-raise on flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
