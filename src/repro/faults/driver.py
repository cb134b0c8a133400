"""One-call fault campaigns: ``faulty_sssp(graph, source, plan=...)``.

Mirrors :func:`repro.analysis.sanitized_sssp`: attach the injector through
the global observer hook, run any GPU method, and return the result paired
with its :class:`~repro.faults.report.FaultReport`.  With ``recovery``
(the default) the engine runs its self-healing runtime and the report's
verdict comes from the runtime's final verification; with it off, the raw
damage is classified here by the same host verifier, so escaped faults are
still counted honestly.
"""

from __future__ import annotations

from .injector import FaultInjector
from .plan import FaultPlan
from .report import FaultReport
from .runtime import verify_distances_host

__all__ = ["faulty_sssp", "GPU_METHODS"]


def __getattr__(name: str):
    """Resolve ``GPU_METHODS`` lazily from the engine registry.

    The set of injectable methods is exactly the set of simulated-GPU
    engines, so it is derived from :mod:`repro.sssp.api` (single source
    of truth — a new engine cannot drift out of fault coverage).  The
    import must be deferred: the engines themselves import
    ``repro.faults`` (plan/runtime) at module load, so an eager import
    here would be circular.
    """
    if name == "GPU_METHODS":
        from ..sssp.api import GPU_METHODS

        return GPU_METHODS
    raise AttributeError(name)


def faulty_sssp(
    graph,
    source: int,
    method: str = "rdbs",
    *,
    plan: str | FaultPlan = "lost-updates",
    seed: int | None = None,
    recovery: bool = True,
    **kwargs,
):
    """Run ``method`` under fault injection; returns ``(result, report)``.

    ``plan`` is a named plan (see :func:`repro.faults.plan_names`) or a
    :class:`FaultPlan`; ``seed`` re-seeds it.  ``recovery`` enables the
    engines' self-healing runtime (its tunables are the constants of
    :mod:`repro.faults.runtime`); with ``recovery=False`` the injected
    damage is left in place and only classified, which is how the tests
    demonstrate that the faults are real.
    """
    from ..sssp import sssp  # lazy: keep repro.faults importable standalone
    from ..sssp.api import GPU_METHODS

    if method not in GPU_METHODS:
        raise ValueError(
            f"fault injection targets the simulated GPU engines; "
            f"{method!r} is not one of {sorted(GPU_METHODS)}"
        )
    injector = FaultInjector(plan, seed)
    with injector.attached():
        result = sssp(graph, source, method=method, recovery=recovery,
                      **kwargs)

    report: FaultReport = injector.report
    if result.faults is None:
        # no runtime ran (recovery off): classify the damage here
        ok = verify_distances_host(graph, source, result.dist)
        report.finalize(ok)
        result.faults = report
    return result, result.faults
