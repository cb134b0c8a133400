"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload road-launchbound --seed 0 \\
        --seconds 10 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; a run
measures at least that long and at least three rounds.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (it runs the untraced pass too, to
price the tracing).  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is nonzero when any answer was wrong or a consistency check failed.

The run reads and writes only inside the checkout: the package comes from
``src/``, and the artifact cache is a fresh directory under
``.perfbench/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: BLAS / OpenMP pools stay single-threaded: one process, one core's worth
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv, declared: dict):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, declared)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    cache_parent = ROOT / ".perfbench"
    cache_parent.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=cache_parent))
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.harness import run_workload
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        units = {
            m["name"]: m["unit"]
            for m in declared["per_layer" if args.trace else "end_to_end"]
        }
        out = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            cache_dir,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}",
              file=sys.stderr)
        return 3
    for note in out.notes:
        print(f"# {note}")
    for err in out.errors:
        print(f"! {err}")
    for name, unit in units.items():
        print(f"{name} = {out.metrics[name]!r} {unit}")
    correct = out.failed == 0 and not out.errors
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
