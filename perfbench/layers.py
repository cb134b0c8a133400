"""Host-time spans around the public functions of each simulator layer.

The benchmark does not edit the package: :class:`HostTracer` wraps the
layer entry points from outside, for the duration of a ``with
tracer.attached():`` block, and restores every original on exit.  Each
span records its inclusive time and its *self* time (inclusive minus the
spans nested inside it), so the self times of all layers sum exactly to
the outermost spans the benchmark opens.  An :data:`ABSORBING` layer opens
no spans inside itself: everything it calls counts as its own time.

Layers (``host.<layer>_s`` / ``calls.<layer>``):

* ``launch``      — ``GPUDevice.launch`` blocks, kernel body included;
* ``coalesce``    — ``gpusim.memory.coalesce``;
* ``cache_stream``— ``gpusim.cachemodel.CacheStream.hit_count``, inclusive
  of the sorts it runs on its address stream;
* ``multisplit``  — ``util.scan.multisplit_order``;
* ``sort``        — ``util.scan.stable_sort_with_order`` outside the
  cache stream;
* ``atomic``      — ``util.scan.serialized_min_outcome`` and
  ``util.scan.distinct_count``;
* ``accounting``  — ``gpusim.timemodel.kernel_time``,
  ``DeviceCounters.record`` and ``Timeline.record``;
* ``pro``         — ``reorder.pipeline.apply_pro``;
* ``serve.exact`` — the serving scheduler's exact SSSP runs;
* ``validate``    — the serving scheduler's SciPy checks (excluded from
  host time).

Module-level functions are imported by name into their callers, so a
wrapper replaces the original in every loaded ``repro`` module that binds
it; the two ``serve.scheduler`` entries are wrapped in that module only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["ABSORBING", "HostTracer", "LAYERS", "SCHEDULER_HOOKS", "VALIDATION_HOOKS"]

#: layer -> module-level functions ("module:attr") or methods
#: ("module:Class.attr") it covers, patched wherever they are bound
LAYERS: dict[str, tuple[str, ...]] = {
    "coalesce": ("repro.gpusim.memory:coalesce",),
    "cache_stream": ("repro.gpusim.cachemodel:CacheStream.hit_count",),
    "multisplit": ("repro.util.scan:multisplit_order",),
    "sort": ("repro.util.scan:stable_sort_with_order",),
    "atomic": (
        "repro.util.scan:serialized_min_outcome",
        "repro.util.scan:distinct_count",
    ),
    "accounting": (
        "repro.gpusim.timemodel:kernel_time",
        "repro.gpusim.counters:DeviceCounters.record",
        "repro.gpusim.timeline:Timeline.record",
    ),
    "pro": ("repro.reorder.pipeline:apply_pro",),
}

#: layers whose span absorbs the layer calls nested inside it: the cache
#: stream's own sorts are part of the cache stream, so a change to how it
#: sorts moves ``host.cache_stream_s`` and not ``host.sort_s``
ABSORBING = frozenset({"cache_stream"})

#: layer -> names inside ``repro.serve.scheduler`` (patched there only)
SCHEDULER_HOOKS: dict[str, tuple[str, ...]] = {
    "serve.exact": ("sssp",),
    "validate": ("scipy_distances", "validate_distances"),
}

#: the hooks the untraced pass keeps, to exclude validation from host time
VALIDATION_HOOKS = {"validate": SCHEDULER_HOOKS["validate"]}


class HostTracer:
    """In-memory span accumulator with a self-time stack."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: [layer, child time so far] of each open span, innermost last
        self._open: list[list] = []

    # -- spans ------------------------------------------------------------
    def _close(self, t0: float) -> None:
        dt = time.perf_counter() - t0
        layer, child = self._open.pop()
        self.total[layer] += dt
        self.self_time[layer] += dt - child
        self.calls[layer] += 1
        if self._open:
            self._open[-1][1] += dt

    @contextmanager
    def span(self, layer: str):
        """Time the enclosed block as one call of ``layer``."""
        self._open.append([layer, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(t0)

    def wrap(self, layer: str, fn):
        """``fn`` with every call recorded as a span of ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self._open[-1][0] in ABSORBING:
                return fn(*args, **kwargs)
            self._open.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(t0)

        return traced

    def _wrap_launch(self, launch):
        @functools.wraps(launch)
        @contextmanager
        def traced(device, *args, **kwargs):
            with self.span("launch"), launch(device, *args, **kwargs) as ctx:
                yield ctx

        return traced

    # -- patching ---------------------------------------------------------
    @contextmanager
    def attached(self, layers=LAYERS, scheduler_hooks=SCHEDULER_HOOKS, *,
                 launch: bool = True):
        """Wrap the layer functions; restore the originals on exit."""
        import repro.serve.scheduler as scheduler
        import repro.sssp.api  # noqa: F401  (binds every engine module)
        from repro.gpusim.device import GPUDevice

        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for layer, targets in layers.items():
                for target in targets:
                    module_name, _, path = target.partition(":")
                    owner = sys.modules[module_name]
                    if "." in path:
                        cls_name, attr = path.split(".")
                        cls = getattr(owner, cls_name)
                        patch(cls, attr, self.wrap(layer, getattr(cls, attr)))
                        continue
                    original = getattr(owner, path)
                    wrapped = self.wrap(layer, original)
                    for name, module in list(sys.modules.items()):
                        if (
                            name.partition(".")[0] == "repro"
                            and getattr(module, path, None) is original
                        ):
                            patch(module, path, wrapped)
            for layer, names in scheduler_hooks.items():
                for name in names:
                    patch(scheduler, name, self.wrap(layer, getattr(scheduler, name)))
            if launch:
                patch(GPUDevice, "launch", self._wrap_launch(GPUDevice.launch))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
