"""One-call sanitized execution: run an SSSP method under the sanitizer.

Ties the dynamic checker to the method registry so CLIs, tests and CI can
sanitize any engine with one call::

    result, report = sanitized_sssp(graph, source, method="rdbs")
    assert report.ok, report.summary()
"""

from __future__ import annotations

import numpy as np

from .sanitizer import Sanitizer, SanitizerReport, attached

__all__ = ["sanitized_sssp"]


def sanitized_sssp(
    graph,
    source: int,
    method: str = "rdbs",
    *,
    strict: bool = False,
    **kwargs,
) -> tuple:
    """Run ``method`` with a freshly attached :class:`Sanitizer`.

    Returns ``(SSSPResult, SanitizerReport)``; the report also covers the
    final distances against the edge-relaxation invariant.
    In ``strict`` mode the first error-severity hazard raises
    :class:`~repro.analysis.sanitizer.SanitizerError` mid-run.
    """
    from ..sssp import sssp  # local import: analysis must not cycle with sssp

    with attached(strict=strict) as san:
        result = sssp(graph, source, method=method, **kwargs)
    if np.isfinite(result.dist[source]):
        san.check_result(graph, source, result.dist)
    return result, san.report()
