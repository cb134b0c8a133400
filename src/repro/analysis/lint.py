"""``repro-lint``: AST rules for the repository's kernel-authoring idiom.

The simulator only stays honest if every device-memory access flows through
the counted :class:`~repro.gpusim.device.KernelContext` choke point — a raw
``arr.data[...]`` poke computes the right numbers while silently corrupting
the cost model.  These rules enforce that discipline statically, the way
PriorityGraph's compiler enforces ordered-algorithm structure:

``AN101`` device-storage mutation outside a kernel
    ``arr.data[...] = ...`` (or ``np.add.at(arr.data, ...)``) outside a
    ``with dev.launch(...)`` block.  Host staging must use
    ``device.host_store`` / ``device.host_copy`` so observers see it.
``AN102`` un-counted device access inside a kernel
    any ``.data`` touch lexically inside a ``with dev.launch(...)`` block —
    reads and writes there must go through ``KernelContext`` (``gather`` /
    ``scatter`` / ``atomic_min`` / ``atomic_add``) to be counted.
``AN103`` scalar device read-back in a hot loop
    ``float(arr.data[i])`` / ``int(...)`` / ``bool(...)`` — including an
    element read buried in a larger expression — or ``(...).item()``
    inside a ``for``/``while`` loop: a per-iteration D2H round-trip that
    real GPU code hoists.
``AN201`` mutable default argument
    ``def f(x=[])`` and friends (generic hygiene).
``AN202`` missing ``__all__``
    every *library* module — a file inside a package (a directory with an
    ``__init__.py``) — declares its public surface.  Top-level scripts
    (``benchmarks/``, ``examples/``) have no import surface and are
    exempt, as is ``__main__.py``.

Suppressions: a line containing ``repro-lint: disable=AN1xx`` silences that
rule on that line; ``gpusim/device.py`` (which *implements* the storage) is
exempt from AN101/AN102.

Run via ``python -m repro.cli lint [paths...]`` or :func:`lint_paths`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from .static.builder import KERNEL_SCOPES

__all__ = ["LintFinding", "lint_source", "lint_paths", "DEFAULT_EXEMPT"]

#: files allowed to touch DeviceArray.data directly (they implement it)
DEFAULT_EXEMPT = ("gpusim/device.py",)

_DISABLE_RE = re.compile(r"repro-lint:\s*disable=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _is_data_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _contains_data_attr(node: ast.AST) -> bool:
    return any(_is_data_attr(n) for n in ast.walk(node))


#: reductions that legitimately collapse a device slice to one transfer
_AGGREGATIONS = frozenset({"min", "max", "sum", "any", "all", "mean", "prod"})


def _contains_data_subscript(node: ast.AST, in_agg: bool = False) -> bool:
    """True when ``node`` contains an element read like ``arr.data[i]``.

    Subscripts feeding an aggregation (``dist.data[mask].min()``) are
    exempt: that is one reduction transfer per iteration — the idiom a
    real implementation expresses as a device reduction — not the
    per-element round-trip AN103 exists to catch.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _AGGREGATIONS
    ):
        in_agg = True
    if isinstance(node, ast.Subscript) and _is_data_attr(node.value) and not in_agg:
        return True
    return any(
        _contains_data_subscript(c, in_agg) for c in ast.iter_child_nodes(node)
    )


def _is_launch_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KERNEL_SCOPES
    )


_MUTABLE_DEFAULTS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, exempt_device_rules: bool) -> None:
        self.path = path
        self.exempt_device_rules = exempt_device_rules
        self.findings: list[LintFinding] = []
        self._launch_depth = 0
        self._loop_depth = 0
        self._flagged: set[int] = set()  # .data nodes already reported

    # -- plumbing ------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(self.path, getattr(node, "lineno", 0), rule, message)
        )

    # -- context tracking ----------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        in_launch = any(_is_launch_call(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if in_launch:
            self._launch_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if in_launch:
            self._launch_depth -= 1

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop

    # -- AN101 / AN102: DeviceArray storage discipline -------------------
    def _check_data_write(self, target: ast.AST, node: ast.AST) -> None:
        if self.exempt_device_rules:
            return
        attr = (
            target.value
            if isinstance(target, ast.Subscript) and _is_data_attr(target.value)
            else (target if _is_data_attr(target) else None)
        )
        if attr is None:
            return
        self._flagged.add(id(attr))
        if self._launch_depth:
            self._emit(
                node, "AN102",
                "device storage written directly inside a kernel; use "
                "KernelContext.scatter/atomic_* so the store is counted",
            )
        else:
            self._emit(
                node, "AN101",
                "device storage mutated outside a launch; use "
                "device.host_store/host_copy for host staging writes",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_data_write(t, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_data_write(node.target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # np.add.at(arr.data, ...) style in-place mutation
        if (
            not self.exempt_device_rules
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
            and node.args
            and _contains_data_attr(node.args[0])
        ):
            self._check_data_write(node.args[0], node)
        # AN103: float/int/bool(... arr.data[i] ...) in a loop — covers
        # direct element reads and element reads buried in an expression
        # (``float(dist.data[u] + w)``); applies to for AND while bodies
        # (self._loop_depth counts both)
        if (
            self._loop_depth
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "int", "bool")
            and node.args
            and _contains_data_subscript(node.args[0])
        ):
            self._emit(
                node, "AN103",
                f"scalar device read-back ({node.func.id}(arr.data[i])) "
                "inside a loop; hoist it or keep the value device-resident",
            )
        # AN103: (... .data ...).item() in a loop
        if (
            self._loop_depth
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "item"
            and _contains_data_attr(node.func.value)
        ):
            self._emit(
                node, "AN103",
                "scalar .item() device read-back inside a loop; hoist it "
                "or keep the value device-resident",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.exempt_device_rules
            and self._launch_depth
            and _is_data_attr(node)
            and id(node) not in self._flagged
        ):
            self._emit(
                node, "AN102",
                "device memory accessed via .data inside a kernel; every "
                "access must go through KernelContext (gather/scatter/"
                "atomic_*)",
            )
        self.generic_visit(node)

    # -- AN201: mutable default arguments --------------------------------
    def _check_defaults(self, node) -> None:
        for d in list(node.args.defaults) + list(node.args.kw_defaults):
            if d is None:
                continue
            if isinstance(d, _MUTABLE_DEFAULTS) or (
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Name)
                and d.func.id in ("list", "dict", "set")
            ):
                self._emit(
                    d, "AN201",
                    f"mutable default argument in {node.name}(); use None "
                    "and create inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(
    source: str, path: str = "<string>", *, require_all: bool = True
) -> list[LintFinding]:
    """Lint one module's source text; returns its findings."""
    name = Path(path).name
    rel = str(path).replace("\\", "/")
    exempt = any(rel.endswith(e) for e in DEFAULT_EXEMPT)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 0, "AN000",
                            f"syntax error: {exc.msg}")]
    visitor = _Visitor(path, exempt_device_rules=exempt)
    visitor.visit(tree)
    findings = visitor.findings

    # AN202: module declares __all__
    if require_all and name != "__main__.py":
        has_all = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets
            )
            for stmt in tree.body
        )
        if not has_all:
            findings.append(
                LintFinding(path, 1, "AN202",
                            "module does not declare __all__")
            )

    # line-level suppressions
    lines = source.splitlines()
    kept = []
    for f in findings:
        if 1 <= f.line <= len(lines):
            m = _DISABLE_RE.search(lines[f.line - 1])
            if m and f.rule in {c.strip() for c in m.group(1).split(",")}:
                continue
        kept.append(f)
    return kept


def lint_paths(paths: list[str | Path]) -> list[LintFinding]:
    """Lint files / directory trees; returns all findings sorted by location."""
    findings: list[LintFinding] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(
                lint_source(
                    f.read_text(encoding="utf-8"),
                    str(f),
                    # AN202 is about a module's *import* surface: it applies
                    # inside packages only, not to standalone scripts
                    require_all=(f.parent / "__init__.py").exists(),
                )
            )
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
