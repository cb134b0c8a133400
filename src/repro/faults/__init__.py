"""Deterministic fault injection + self-healing runtime for the simulated GPU.

See ``docs/faults.md`` for the fault taxonomy, plan format, recovery policy
and the zero-overhead-when-off guarantee.
"""

from .driver import faulty_sssp
from .injector import FaultInjector
from .plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedKernelAbort,
    get_plan,
    plan_names,
)
from .report import FaultEvent, FaultReport
from .runtime import (
    RecoveryRuntime,
    Watchdog,
    WatchdogTimeout,
    make_runtime,
    verify_distances_host,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "GPU_METHODS",
    "InjectedKernelAbort",
    "RecoveryRuntime",
    "Watchdog",
    "WatchdogTimeout",
    "faulty_sssp",
    "get_plan",
    "make_runtime",
    "plan_names",
    "verify_distances_host",
]


def __getattr__(name: str):
    """``GPU_METHODS`` resolves lazily through :mod:`repro.faults.driver`.

    It is registry-derived (see the driver), and the engines import this
    package at module load — an eager re-export here would be circular.
    """
    if name == "GPU_METHODS":
        from .driver import GPU_METHODS

        return GPU_METHODS
    raise AttributeError(name)
