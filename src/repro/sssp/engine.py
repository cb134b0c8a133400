"""The frame every simulated-GPU SSSP engine runs inside.

RDBS, MLMQ, ADDS, Near-Far, BL and Harish–Narayanan differ in their loops
— what they drain, where they place improvements, how they pick the next
threshold — and in nothing around them (PriorityGraph, arXiv 1911.07260,
makes the same point for ordered graph algorithms).  :class:`GPUSolve` is
that surrounding frame, written once: the source check, device setup (graph
upload, then ``dist``, so every engine's own buffers follow at the same
device addresses the cache model keys on), the seeded work tally, the
solve's persistent kernel chain and the rule that ends it, the per-bucket
row store (``extra["bucket_telemetry"]``) and the :class:`SSSPResult`.  It
is the engines' one door to the fault runtime: the loop bound, epochs,
watchdog, the aborts they catch (:data:`ABORTS`) and the rollback.  The
loops, their kernels and every ``device.launch``/``segment`` call stay in
the engine modules.

**Id-space contract.**  ``source`` and the returned ``dist`` are in the
*input* graph's id space, whatever permutation that graph already
carries.  An engine that solves on a relabeled copy (RDBS under PRO)
passes it as ``work_graph``; the frame maps the source into the copy
(:attr:`GPUSolve.src`) and the distances back out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..faults.runtime import Watchdog, WatchdogTimeout, make_runtime
from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice
from ..gpusim.spec import GPUSpec
from ..metrics.workstats import WorkStats
from .errors import ConvergenceError
from .persistent import PersistentChain
from .relax import DeviceGraph
from .result import SSSPResult

__all__ = ["ABORTS", "GPUSolve"]

#: the kernel aborts every engine catches around its loop body: an
#: injected abort, or a watchdog that found a drain stalled
ABORTS = (InjectedKernelAbort, WatchdogTimeout)


def _work_to_input(graph: CSRGraph, work: CSRGraph) -> np.ndarray | None:
    """``work`` id -> ``graph`` id, or None when the ids coincide.

    Both permutations point at the same original ids, so the relative one
    composes through ``graph``'s inverse.
    """
    if work.new_to_old is None or work.new_to_old is graph.new_to_old:
        return None
    if graph.old_to_new is None:
        return work.new_to_old
    return graph.old_to_new[work.new_to_old]


class GPUSolve:
    """One simulated-GPU solve of ``graph`` from ``source``.

    Attributes the engine's loop works with: ``device``, ``dgraph`` (the
    uploaded ``work_graph``), ``dist``, ``src`` (the source in the work
    graph's ids), ``stats`` and ``chain``, the persistent kernel the
    engine's segments run on.  The fault runtime (``None`` without
    recovery) is reached only through the methods below.
    """

    def __init__(
        self,
        graph: CSRGraph,
        source: int,
        method: str,
        *,
        spec: GPUSpec,
        recovery: bool,
        work_graph: CSRGraph | None = None,
    ) -> None:
        n = graph.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for {n} vertices")
        work = graph if work_graph is None else work_graph
        self.graph = graph
        self.source = source
        self.method = method
        self._order = _work_to_input(graph, work)
        self.src = source
        if self._order is not None:
            # through the original id both permutations share
            orig = source if graph.new_to_old is None else graph.new_to_old[source]
            self.src = int(work.old_to_new[orig])
        self.device = GPUDevice(spec)
        self.dgraph = DeviceGraph(self.device, work)
        self.dist = self.device.full(n, np.inf, name="dist")
        self.device.host_store(self.dist, self.src, 0.0)
        self.stats = WorkStats()
        self.stats.record(np.array([self.src]), np.array([0.0]), np.array([True]))
        self._runtime = make_runtime(
            recovery, self.device, self.dgraph, self.dist, self.src
        )
        #: the solve's persistent kernel; every host synchronization ends it
        self.chain = PersistentChain(self.device)
        #: one row per processed bucket, in processing order
        self.bucket_telemetry: list[dict] = []
        self.work = None

    def tick(self, count: int, limit: int, reason: str,
             frontier: Callable[[], int], delta: float | None = None) -> int:
        """Count one more loop iteration: returns ``count + 1``.

        Past ``limit`` it raises :class:`ConvergenceError` instead, with
        the ``count`` iterations completed and the ``frontier()`` size;
        the engine hands it to :meth:`give_up`, or lets it escape.
        """
        count += 1
        if count > limit:
            raise ConvergenceError(
                reason, method=self.method, iterations=count - 1,
                frontier=int(frontier()), delta=delta)
        return count

    def give_up(self, exc: ConvergenceError) -> None:
        """A loop bound tripped: raise ``exc`` without a runtime.

        With one, the runtime logs it (and rolls back within its retry
        budget); the caller then stops its loop and the final repair
        sweeps of :meth:`result` restore the fixpoint.
        """
        self.rollback(exc)

    def epoch(self, work: Callable[[], int], mark=None) -> None:
        """The runtime's epoch at a loop boundary, if a runtime is attached.

        Only then is ``work()`` called, to size the pending work.  A
        synchronizing epoch (a probe or a checkpoint) ends the chain.
        """
        if self._runtime is not None and self._runtime.epoch(work(), mark=mark):
            self.chain.end()

    def quiet_epochs(self) -> float:
        """How many coming :meth:`epoch` calls synchronize nothing
        (``inf`` without a runtime)."""
        if self._runtime is None:
            return np.inf
        return self._runtime.quiet_epochs()

    def pass_epochs(self, count: int) -> None:
        """Count ``count`` quiet epochs at once (at most :meth:`quiet_epochs`)."""
        if self._runtime is not None:
            self._runtime.pass_epochs(count)

    def watchdog(self, work: int, chunk: int) -> Watchdog | None:
        """A round budget for one asynchronous drain of ``work`` items,
        ``chunk`` per round; ``None`` without a runtime."""
        if self._runtime is None:
            return None
        return self._runtime.new_watchdog(work, chunk)

    def rollback(self, exc: BaseException, fallback=None, *,
                 degrade: bool = False):
        """Recover from ``exc``: raise it without a runtime.

        With one, the runtime logs it and rolls ``dist`` back to its last
        checkpoint within its retry budget, and ``degrade`` logs the
        async-to-sync degradation.  Returns the checkpoint's mark, or
        ``fallback`` once the budget is spent.  A host synchronization, so
        it ends the chain.
        """
        if self._runtime is None:
            raise exc
        mark = self._runtime.recover(exc, fallback)
        self.chain.end()
        if degrade:
            self._runtime.note_degraded()
        return mark

    def on_abort(self, exc: BaseException) -> np.ndarray:
        """:meth:`rollback`, then every finite vertex of ``dist``.

        The engine reseeds its worklist from them; re-relaxing settled
        vertices costs work but cannot change a correct distance.
        """
        self.rollback(exc)
        return np.flatnonzero(np.isfinite(self.dist.data)).astype(np.int64)

    def close_bucket(self, row: dict) -> None:
        """Publish one processed bucket's row (``bucket_close``) and keep it."""
        self.device.annotate("bucket_close", **row)
        self.bucket_telemetry.append(row)

    def finish(self, spans: Sequence[tuple[int, int]] = ()) -> list[tuple[int, int]]:
        """End the search: the final repair sweeps, then the work tally.

        Every recorded update is classified against the converged
        distances; returns ``(updates, valid)`` per ``stats`` span in
        ``spans`` (see :meth:`WorkStats.finalize_spans`).
        """
        if self._runtime is not None:
            self._runtime.finish()
        self.work, counts = self.stats.finalize_spans(self.dist.data, spans)
        return counts

    def result(self, extra: dict) -> SSSPResult:
        """The :class:`SSSPResult`, distances in the input graph's ids.

        ``extra`` follows the device timeline into ``result.extra``; the
        bucket rows, when the engine closed any, come last.
        """
        if self.work is None:
            self.finish()
        if self._order is None:
            dist = self.dist.data.copy()
        else:
            dist = np.empty_like(self.dist.data)
            dist[self._order] = self.dist.data
        if self.bucket_telemetry:
            extra["bucket_telemetry"] = self.bucket_telemetry
        return SSSPResult(
            dist=dist,
            source=self.source,
            method=self.method,
            graph_name=self.graph.name,
            time_ms=self.device.elapsed_ms,
            work=self.work,
            counters=self.device.counters,
            num_edges=self.graph.num_edges,
            extra={"timeline": self.device.timeline, **extra},
            faults=self._runtime.report if self._runtime is not None else None,
        )
