"""Measurement: work efficiency and throughput."""

from .gteps import geometric_mean, gteps, speedup
from .workstats import WorkStats, WorkTally

__all__ = [
    "WorkStats",
    "WorkTally",
    "gteps",
    "speedup",
    "geometric_mean",
]
