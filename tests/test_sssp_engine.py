"""The shared GPU-solve frame (:mod:`repro.sssp.engine`) stays the only one.

Every simulated-GPU engine builds its device, fault runtime and result
through :class:`~repro.sssp.engine.GPUSolve`; an engine module that calls
one of those constructors itself has forked the frame back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.sssp

ENGINE_FILES = sorted(Path(repro.sssp.__file__).parent.glob("gpu_*.py"))

#: constructors only the frame may call
FRAME_ONLY = {"GPUDevice", "make_runtime", "SSSPResult"}


def _called_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f.attr)
    return names


def test_engine_files_found():
    assert len(ENGINE_FILES) >= 6


@pytest.mark.parametrize("path", ENGINE_FILES, ids=lambda p: p.name)
def test_engines_do_not_fork_the_frame(path):
    forked = _called_names(path) & FRAME_ONLY
    assert not forked, f"{path.name} calls {sorted(forked)} directly"



@pytest.mark.parametrize("path", ENGINE_FILES, ids=lambda p: p.name)
def test_engines_reach_the_fault_runtime_only_through_the_frame(path):
    """No engine imports :mod:`repro.faults` or reads the frame's runtime:
    loop bounds, epochs, the watchdog and rollbacks all go through
    :class:`~repro.sssp.engine.GPUSolve`."""
    tree = ast.parse(path.read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert not {m for m in imported if "faults" in m.split(".")}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not read & {"runtime", "_runtime"}
