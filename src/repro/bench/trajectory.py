"""Continuous benchmarking: machine-readable perf records + regression gate.

The paper's contribution is *performance* (Fig. 8, Fig. 9, Table 2), so the
repository keeps a machine-readable performance trajectory: every benchmark
run serializes its :class:`~repro.bench.harness.MethodRun` cells into
versioned :class:`BenchRecord` JSON documents (``BENCH_<suite>.json`` at the
repo root, plus a sidecar next to each regenerated table), and CI compares
fresh runs against the committed baseline on every pull request.

The comparison is **two-tier**, matching what the simulator guarantees:

* **deterministic tier** — device counters, simulated ``time_ms``, GTEPS and
  the update ratio come from a noise-free cost model, so they are compared
  for *exact* equality (floats up to ``DETERMINISTIC_REL_TOL`` to absorb
  last-bit libm differences across platforms).  Any drift — faster *or*
  slower — is a real behavior change and fails the gate until the baseline
  is deliberately refreshed.
* **wall-clock tier** — ``host_seconds`` measures real Python execution and
  is inherently noisy, so it gates only on *slowdowns* beyond a configurable
  tolerance (default ``WALL_TOLERANCE`` = ±25%), and only for cells that ran
  long enough to time meaningfully.

See ``docs/benchmarking.md`` for the schema and the baseline-refresh
workflow; the CLI surface is ``python -m repro.cli bench {run,check,diff}``.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sssp.result import SSSPResult

__all__ = [
    "SCHEMA_VERSION",
    "DETERMINISTIC_REL_TOL",
    "WALL_TOLERANCE",
    "MIN_WALL_SECONDS",
    "SchemaVersionError",
    "BenchRecord",
    "record_from_run",
    "record_from_result",
    "coerce_records",
    "suite_document",
    "write_trajectory",
    "load_trajectory",
    "CellCheck",
    "ComparisonReport",
    "compare_records",
    "format_counter_deltas",
    "format_diff",
    "git_sha",
]

#: bump when the record layout changes; readers reject other versions
SCHEMA_VERSION = 1

#: relative tolerance for the *deterministic* tier — wide enough to absorb
#: last-bit float differences between platforms/BLAS builds, far too tight
#: for any genuine behavior change to slip through
DETERMINISTIC_REL_TOL = 1e-9

#: default relative tolerance for the host wall-clock tier (±25%)
WALL_TOLERANCE = 0.25

#: wall-clock cells shorter than this (seconds) are never gated — their
#: variance is dominated by interpreter noise, not by the code under test
MIN_WALL_SECONDS = 0.05

#: deterministic scalar fields of a record (counters are checked key-wise)
_DETERMINISTIC_FIELDS = ("time_ms", "gteps", "update_ratio")


class SchemaVersionError(ValueError):
    """A trajectory file was written under an incompatible schema version."""


def git_sha() -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class BenchRecord:
    """One (dataset, method, device) benchmark cell, serialization-ready.

    ``time_ms``, ``gteps``, ``update_ratio`` and every ``counters`` entry
    are *deterministic* simulator quantities; ``host_seconds`` is the only
    wall-clock (noisy) field.
    """

    dataset: str
    method: str
    gpu: str = ""
    num_sources: int = 1
    time_ms: float = 0.0
    gteps: float = 0.0
    update_ratio: float = float("nan")
    counters: dict[str, float] = field(default_factory=dict)
    host_seconds: float = 0.0

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity of the cell inside a suite."""
        return (self.dataset, self.method, self.gpu)

    def as_dict(self) -> dict:
        """JSON-safe dict (NaN, which JSON lacks, becomes ``None``)."""
        ratio = None if math.isnan(self.update_ratio) else self.update_ratio
        return {
            "dataset": self.dataset,
            "method": self.method,
            "gpu": self.gpu,
            "num_sources": int(self.num_sources),
            "time_ms": float(self.time_ms),
            "gteps": float(self.gteps),
            "update_ratio": ratio,
            "counters": {k: v for k, v in self.counters.items()},
            "host_seconds": float(self.host_seconds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchRecord":
        """Inverse of :meth:`as_dict`."""
        ratio = d.get("update_ratio")
        return cls(
            dataset=d["dataset"],
            method=d["method"],
            gpu=d.get("gpu", ""),
            num_sources=int(d.get("num_sources", 1)),
            time_ms=float(d.get("time_ms", 0.0)),
            gteps=float(d.get("gteps", 0.0)),
            update_ratio=float("nan") if ratio is None else float(ratio),
            counters=dict(d.get("counters", {})),
            host_seconds=float(d.get("host_seconds", 0.0)),
        )


def record_from_run(run) -> BenchRecord:
    """Serialize a :class:`~repro.bench.harness.MethodRun` into a record."""
    counters = {}
    if run.results and run.results[0].counters is not None:
        counters = run.counters.totals.as_dict()
    return BenchRecord(
        dataset=run.dataset,
        method=run.method,
        gpu=getattr(run, "gpu", ""),
        num_sources=len(run.results),
        time_ms=float(run.time_ms),
        gteps=float(run.gteps),
        update_ratio=float(run.update_ratio),
        counters=counters,
        host_seconds=float(getattr(run, "host_seconds", 0.0)),
    )


def record_from_result(
    result: SSSPResult,
    *,
    dataset: str,
    method: str | None = None,
    gpu: str = "",
    host_seconds: float = 0.0,
) -> BenchRecord:
    """Build a record from one :class:`~repro.sssp.result.SSSPResult`.

    CPU methods carry no device counters, so their records hold none.
    """
    work = result.work
    return BenchRecord(
        dataset=dataset,
        method=method or result.method,
        gpu=gpu,
        num_sources=1,
        time_ms=float(result.time_ms),
        gteps=float(result.gteps),
        update_ratio=(
            float(work.update_ratio) if work is not None else float("nan")
        ),
        counters=(
            {} if result.counters is None
            else result.counters.totals.as_dict()
        ),
        host_seconds=float(host_seconds),
    )


def coerce_records(items) -> list[BenchRecord]:
    """Normalize a mixed iterable of records / MethodRuns into records."""
    out: list[BenchRecord] = []
    for item in items:
        if isinstance(item, BenchRecord):
            out.append(item)
        elif hasattr(item, "results"):  # MethodRun
            out.append(record_from_run(item))
        else:
            raise TypeError(
                f"cannot serialize {type(item).__name__}; pass BenchRecord "
                "or MethodRun (use record_from_result for raw results)"
            )
    return out


# ---------------------------------------------------------------------------
# trajectory documents (BENCH_<suite>.json)
# ---------------------------------------------------------------------------

def suite_document(
    records: list[BenchRecord],
    *,
    suite: str,
    tables: list[dict] | None = None,
) -> dict:
    """The versioned JSON document for one suite / bench-file run."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "git_sha": git_sha(),
        "host_seconds_total": float(
            sum(r.host_seconds for r in records)
        ),
        "records": [
            r.as_dict() for r in sorted(records, key=lambda r: r.key)
        ],
    }
    if tables:
        doc["tables"] = tables
    return doc


def _json_default(obj):
    """Fold NumPy scalars (which ``json`` rejects) into plain numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable"
    )


def write_trajectory(
    path: str | Path,
    records,
    *,
    suite: str,
    tables: list[dict] | None = None,
) -> Path:
    """Serialize ``records`` to ``path`` under the versioned schema."""
    path = Path(path)
    doc = suite_document(coerce_records(records), suite=suite, tables=tables)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
        + "\n",
        encoding="utf-8",
    )
    return path


def load_trajectory(path: str | Path) -> tuple[dict, list[BenchRecord]]:
    """Load a trajectory file; returns ``(metadata, records)``.

    Raises :class:`SchemaVersionError` for documents written under any
    other schema version — comparing across schemas silently would defeat
    the gate.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema_version {version!r} != supported "
            f"{SCHEMA_VERSION}; regenerate the file with "
            "`python -m repro.cli bench run`"
        )
    records = [BenchRecord.from_dict(d) for d in doc.get("records", [])]
    meta = {k: v for k, v in doc.items() if k != "records"}
    return meta, records


# ---------------------------------------------------------------------------
# comparison engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellCheck:
    """Outcome of one (cell, field) comparison."""

    key: tuple[str, str, str]
    field: str
    tier: str  # "deterministic" | "wall"
    baseline: float
    current: float
    ok: bool

    @property
    def delta_pct(self) -> float:
        """Relative change in percent (NaN when the baseline is zero)."""
        if self.baseline == 0:
            return float("nan") if self.current != 0 else 0.0
        return 100.0 * (self.current - self.baseline) / self.baseline

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        d, m, g = self.key
        cell = f"{d}/{m}" + (f"@{g}" if g else "")
        return (
            f"{cell} {self.field} [{self.tier}]: "
            f"{self.baseline:g} -> {self.current:g} ({self.delta_pct:+.2f}%)"
        )


@dataclass
class ComparisonReport:
    """Every check performed plus the cells that could not be paired."""

    checks: list[CellCheck] = field(default_factory=list)
    missing: list[tuple[str, str, str]] = field(default_factory=list)
    unexpected: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def failures(self) -> list[CellCheck]:
        """Checks that violate the gating policy."""
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        """True when the run is clean against the baseline."""
        return not self.failures and not self.missing and not self.unexpected

    def summary(self) -> str:
        """Human-readable verdict (one line per problem)."""
        lines = []
        for key in self.missing:
            lines.append(f"MISSING cell {key} (in baseline, not in current)")
        for key in self.unexpected:
            lines.append(
                f"UNEXPECTED cell {key} (in current, not in baseline — "
                "refresh the baseline)"
            )
        for c in self.failures:
            lines.append(f"REGRESSION {c}")
        n_det = sum(1 for c in self.checks if c.tier == "deterministic")
        n_wall = sum(1 for c in self.checks if c.tier == "wall")
        lines.append(
            f"{n_det} deterministic + {n_wall} wall-clock check(s), "
            f"{len(self.failures)} failure(s), {len(self.missing)} missing, "
            f"{len(self.unexpected)} unexpected"
        )
        return "\n".join(lines)


def _values_equal(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)


def compare_records(
    baseline: list[BenchRecord],
    current: list[BenchRecord],
    *,
    wall_tolerance: float = WALL_TOLERANCE,
    check_wall: bool = True,
    rel_tol: float = DETERMINISTIC_REL_TOL,
) -> ComparisonReport:
    """Gate ``current`` against ``baseline`` under the two-tier policy.

    Deterministic quantities must match exactly (any drift fails); wall
    clock fails only when a cell got *slower* than
    ``baseline * (1 + wall_tolerance)`` and both sides ran for at least
    :data:`MIN_WALL_SECONDS`.  Cells present on one side only are reported
    as ``missing`` / ``unexpected`` and fail the gate too: both mean the
    committed baseline no longer describes the suite.
    """
    report = ComparisonReport()
    base_by_key = {r.key: r for r in baseline}
    cur_by_key = {r.key: r for r in current}
    report.missing = sorted(k for k in base_by_key if k not in cur_by_key)
    report.unexpected = sorted(k for k in cur_by_key if k not in base_by_key)

    for key in sorted(k for k in base_by_key if k in cur_by_key):
        b, c = base_by_key[key], cur_by_key[key]
        for name in _DETERMINISTIC_FIELDS:
            bv, cv = getattr(b, name), getattr(c, name)
            report.checks.append(CellCheck(
                key, name, "deterministic", bv, cv,
                ok=_values_equal(bv, cv, rel_tol),
            ))
        for cname in sorted(set(b.counters) | set(c.counters)):
            bv = float(b.counters.get(cname, float("nan")))
            cv = float(c.counters.get(cname, float("nan")))
            report.checks.append(CellCheck(
                key, f"counters.{cname}", "deterministic", bv, cv,
                ok=_values_equal(bv, cv, rel_tol),
            ))
        if check_wall:
            gated = (
                b.host_seconds >= MIN_WALL_SECONDS
                and c.host_seconds > b.host_seconds * (1.0 + wall_tolerance)
            )
            report.checks.append(CellCheck(
                key, "host_seconds", "wall",
                b.host_seconds, c.host_seconds, ok=not gated,
            ))
    return report


# ---------------------------------------------------------------------------
# diff tables (``bench diff``)
# ---------------------------------------------------------------------------

#: counter components of the two headline totals the perf gate tracks
_INSTRUCTION_KEYS = (
    "inst_executed_global_loads",
    "inst_executed_global_stores",
    "inst_executed_atomics",
    "inst_executed_other",
    "inst_executed_ballots",
)
_TRANSACTION_KEYS = (
    "global_load_transactions",
    "global_store_transactions",
    "atomic_transactions",
)


def _counter_total(counters: dict, keys: tuple[str, ...]) -> int:
    """Sum of the named counters, absent keys counting as zero."""
    return int(sum(counters.get(k, 0) for k in keys))


def _delta_cells(old: int, new: int) -> list[str]:
    """``old -> new`` plus the relative change, table-ready."""
    pct = 100.0 * (new - old) / old if old else 0.0
    return [f"{old}", f"{new}", f"{pct:+.2f}%"]


def format_counter_deltas(
    baseline: list[BenchRecord],
    current: list[BenchRecord],
    *,
    labels: tuple[str, str] = ("baseline", "current"),
) -> str:
    """Per-cell instruction / transaction delta table.

    One row per cell paired across the two trajectories, with the two
    headline totals of the perf gate — warp instructions issued and
     32-byte DRAM transactions — as ``old -> new`` columns plus the
    relative change.  The table makes a placement change's wins (or
    regressions) visible directly in CI output without opening either
    JSON document.
    """
    from .harness import format_table  # deferred: harness imports us

    a_label, b_label = labels
    base_by_key = {r.key: r for r in baseline}
    cur_by_key = {r.key: r for r in current}
    rows = []
    for key in sorted(set(base_by_key) & set(cur_by_key)):
        b, c = base_by_key[key], cur_by_key[key]
        cell = f"{key[0]}/{key[1]}" + (f"@{key[2]}" if key[2] else "")
        rows.append(
            [cell]
            + _delta_cells(
                _counter_total(b.counters, _INSTRUCTION_KEYS),
                _counter_total(c.counters, _INSTRUCTION_KEYS),
            )
            + _delta_cells(
                _counter_total(b.counters, _TRANSACTION_KEYS),
                _counter_total(c.counters, _TRANSACTION_KEYS),
            )
        )
    return format_table(
        [
            "cell",
            f"inst ({a_label})",
            f"inst ({b_label})",
            "Δ inst",
            f"tx ({a_label})",
            f"tx ({b_label})",
            "Δ tx",
        ],
        rows,
        title=f"instruction / transaction deltas — {a_label} vs {b_label}",
    )


def format_diff(
    baseline: list[BenchRecord],
    current: list[BenchRecord],
    *,
    labels: tuple[str, str] = ("baseline", "current"),
) -> str:
    """Per-cell regression table between two trajectories.

    One row per cell with the headline quantities; counter drift is
    summarized as the number of differing counters (the full dicts live in
    the JSON files themselves).  A second table breaks the two headline
    counter totals (warp instructions, DRAM transactions) out per cell as
    ``old -> new`` deltas.
    """
    from .harness import format_table  # deferred: harness imports us

    a_label, b_label = labels
    base_by_key = {r.key: r for r in baseline}
    cur_by_key = {r.key: r for r in current}
    rows = []
    for key in sorted(set(base_by_key) | set(cur_by_key)):
        b = base_by_key.get(key)
        c = cur_by_key.get(key)
        cell = f"{key[0]}/{key[1]}" + (f"@{key[2]}" if key[2] else "")
        if b is None or c is None:
            rows.append([
                cell,
                "-" if b is None else f"{b.time_ms:.4f}",
                "-" if c is None else f"{c.time_ms:.4f}",
                "-", "-", "-",
                f"only in {b_label if b is None else a_label}",
            ])
            continue
        drifted = [
            name for name in sorted(set(b.counters) | set(c.counters))
            if not _values_equal(
                float(b.counters.get(name, float("nan"))),
                float(c.counters.get(name, float("nan"))),
                DETERMINISTIC_REL_TOL,
            )
        ]
        time_pct = (
            100.0 * (c.time_ms - b.time_ms) / b.time_ms if b.time_ms else 0.0
        )
        wall_pct = (
            100.0 * (c.host_seconds - b.host_seconds) / b.host_seconds
            if b.host_seconds else 0.0
        )
        rows.append([
            cell,
            f"{b.time_ms:.4f}",
            f"{c.time_ms:.4f}",
            f"{time_pct:+.2f}%",
            f"{len(drifted)}",
            f"{wall_pct:+.1f}%",
            "ok" if not drifted and abs(time_pct) < 1e-7 else "DRIFT",
        ])
    headline = format_table(
        [
            "cell",
            f"ms ({a_label})",
            f"ms ({b_label})",
            "Δ sim time",
            "counters Δ",
            "Δ wall",
            "verdict",
        ],
        rows,
        title=f"bench diff — {a_label} vs {b_label}",
    )
    deltas = format_counter_deltas(baseline, current, labels=labels)
    return headline + "\n\n" + deltas
