"""AST → kernel IR: launch discovery, device-function registry, CFG build.

Two passes over the analyzed tree:

1. **Registry pass** — collect every function definition, then compute
   (by fixpoint) which formals carry a ``KernelContext``: a formal is a
   context either because the body calls a device op on it directly
   (``ctx.scatter(...)``) or because it is forwarded into the context
   slot of an already-known device function.  Each such function becomes
   a ``device_fn`` :class:`~.ir.Fragment`.

2. **Kernel pass** — every ``with device.launch("label", ...) as k:``
   (or ``device.segment(...)``, a persistent kernel's segment) statement
   becomes a ``kernel`` :class:`~.ir.Fragment`.  The builder
   walks the *enclosing* function from its first statement so that host
   bindings established before the launch (frontier compaction, mask
   construction) are visible to the index-provenance environment; ops
   are recorded only inside the target ``with`` block.

The CFG is structured: ``if`` forks and rejoins, loops get a back edge
plus a bypass edge, and everything else is linear.  ``break`` /
``continue`` edges are not modelled — the loop approximation already
keeps a loop body inside one synchronization window, which is the
conservative direction for race windows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from . import dataflow as df
from .ir import MEMORY_OPS, STRUCTURE_OPS, Fragment, KernelOp

__all__ = ["Corpus", "build_corpus", "discover_files", "JUSTIFICATION"]

#: the in-source annotation that vouches for an unverifiable scatter
JUSTIFICATION = "repro-static: assume-disjoint"

_CTX_METHODS = frozenset(MEMORY_OPS) | frozenset(STRUCTURE_OPS)


def discover_files(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(q for q in p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def _norm_path(p: Path) -> str:
    """Path relative to the CWD when possible — the manifest key prefix."""
    try:
        return p.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return p.as_posix()


def _launch_label(call: ast.Call) -> str:
    """Kernel label from the first ``device.launch`` argument."""
    if not call.args:
        return "<unlabeled>"
    a = call.args[0]
    if isinstance(a, ast.Constant) and isinstance(a.value, str):
        return a.value
    return df.expr_text(a)


#: device methods whose ``with`` block is a kernel body
KERNEL_SCOPES = frozenset({"launch", "segment"})


def _is_launch_with(node: ast.With) -> ast.withitem | None:
    """The withitem of a ``device.launch(...)`` or ``device.segment(...)``
    context, if present."""
    for item in node.items:
        c = item.context_expr
        if (
            isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute)
            and c.func.attr in KERNEL_SCOPES
        ):
            return item
    return None


# ----------------------------------------------------------------------
# registry pass
# ----------------------------------------------------------------------

@dataclass
class _FnInfo:
    node: ast.FunctionDef
    qualname: str
    path: str
    src_lines: list[str]
    is_method: bool
    #: formal names known to carry a KernelContext
    ctx_params: set[str] = field(default_factory=set)

    @property
    def params(self) -> tuple:
        names = [a.arg for a in self.node.args.args]
        if self.is_method and names and names[0] == "self":
            names = names[1:]
        names += [a.arg for a in self.node.args.kwonlyargs]
        return tuple(names)


def _collect_functions(tree: ast.AST, path: str, src_lines: list[str]):
    """Every function def with its qualname and method-ness."""
    out: list[_FnInfo] = []

    def visit(node: ast.AST, scope: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{scope}.{child.name}" if scope else child.name
                out.append(_FnInfo(child, q, path, src_lines, in_class))
                visit(child, q, False)
            elif isinstance(child, ast.ClassDef):
                q = f"{scope}.{child.name}" if scope else child.name
                visit(child, q, True)
            else:
                visit(child, scope, in_class)

    visit(tree, "", False)
    return out


def _direct_ctx_params(fn: _FnInfo) -> set[str]:
    """Formals on which the body calls a device op directly."""
    formals = set(fn.params)
    found: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CTX_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in formals
        ):
            found.add(node.func.value.id)
    return found


def _forwarded_ctx_params(fn: _FnInfo, registry: dict[str, "_FnInfo"]) -> set[str]:
    """Formals forwarded into the context slot of a known device fn."""
    formals = set(fn.params)
    found: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee = registry.get(_bare_callee(node))
        if callee is None or not callee.ctx_params:
            continue
        params = callee.params
        for pos, a in enumerate(node.args):
            if (
                isinstance(a, ast.Name)
                and a.id in formals
                and pos < len(params)
                and params[pos] in callee.ctx_params
            ):
                found.add(a.id)
        for kw in node.keywords:
            if (
                kw.arg in callee.ctx_params
                and isinstance(kw.value, ast.Name)
                and kw.value.id in formals
            ):
                found.add(kw.value.id)
    return found


def _bare_callee(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Attribute):
        return f.attr
    if isinstance(f, ast.Name):
        return f.id
    return ""


# ----------------------------------------------------------------------
# fragment builder
# ----------------------------------------------------------------------

class _FragmentBuilder:
    """Walk one scope, maintaining the dataflow env and emitting IR ops."""

    def __init__(
        self,
        frag: Fragment,
        env: df.Env,
        ctx_names: set[str],
        registry: dict[str, _FnInfo],
        src_lines: list[str],
        target_with: ast.With | None,
    ) -> None:
        self.frag = frag
        self.env = env
        self.ctx_names = set(ctx_names)
        self.registry = registry
        self.src_lines = src_lines
        self.target_with = target_with
        #: record ops immediately for device fns; kernels arm on entry
        self.recording = target_with is None
        self.cur = frag.cfg.entry

    # -- op emission ----------------------------------------------------

    def _emit(self, op: KernelOp) -> None:
        if not self.recording:
            return
        idx = len(self.frag.ops)
        self.frag.ops.append(op)
        self.frag.cfg.blocks[self.cur].ops.append(idx)

    def _justified(self, line: int) -> bool:
        for ln in (line, line - 1):
            if 1 <= ln <= len(self.src_lines) and JUSTIFICATION in self.src_lines[ln - 1]:
                return True
        return False

    # -- expression scan ------------------------------------------------

    def _scan_expr(self, node: ast.AST | None) -> None:
        """Record device ops / device-fn calls inside ``node``, inner-first."""
        if node is None:
            return
        for child in ast.iter_child_nodes(node):
            # do not descend into nested lambdas / comprehensions' functions
            if isinstance(child, (ast.Lambda,)):
                continue
            self._scan_expr(child)
        if isinstance(node, ast.Call):
            self._scan_call(node)

    def _scan_call(self, node: ast.Call) -> None:
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in self.ctx_names
            and f.attr in _CTX_METHODS
        ):
            self._emit_device_op(f.attr, node)
            return
        name = _bare_callee(node)
        info = self.registry.get(name)
        if info is not None and info.ctx_params and self._passes_ctx(node, info):
            receiver = None
            if isinstance(f, ast.Attribute):
                receiver = df.expr_text(f.value)
            self._emit(
                KernelOp(
                    kind="call",
                    line=node.lineno,
                    callee=name,
                    args=tuple(df.expr_text(a) for a in node.args),
                    arg_provenance=tuple(
                        df.eval_provenance(a, self.env) for a in node.args
                    ),
                    arg_values=tuple(
                        df.value_class(a, self.env) for a in node.args
                    ),
                    kwargs=tuple(
                        (
                            kw.arg,
                            df.expr_text(kw.value),
                            df.eval_provenance(kw.value, self.env),
                            df.value_class(kw.value, self.env),
                        )
                        for kw in node.keywords
                        if kw.arg is not None
                    ),
                    receiver=receiver,
                    justified=self._justified(node.lineno),
                )
            )

    def _passes_ctx(self, node: ast.Call, info: _FnInfo) -> bool:
        params = info.params
        for pos, a in enumerate(node.args):
            if (
                isinstance(a, ast.Name)
                and a.id in self.ctx_names
                and pos < len(params)
                and params[pos] in info.ctx_params
            ):
                return True
        for kw in node.keywords:
            if (
                kw.arg in info.ctx_params
                and isinstance(kw.value, ast.Name)
                and kw.value.id in self.ctx_names
            ):
                return True
        return False

    def _emit_device_op(self, kind: str, node: ast.Call) -> None:
        if kind not in MEMORY_OPS:
            self._emit(KernelOp(kind=kind, line=node.lineno))
            return
        arr = node.args[0] if node.args else None
        idx = node.args[1] if len(node.args) > 1 else None
        op = KernelOp(
            kind=kind,
            line=node.lineno,
            array=df.expr_text(arr) if arr is not None else None,
            array_name=df.canonical_array(arr) if arr is not None else None,
            index=df.expr_text(idx) if idx is not None else None,
            provenance=(
                df.eval_provenance(idx, self.env) if idx is not None else df.UNKNOWN
            ),
            justified=self._justified(node.lineno),
        )
        if kind in ("scatter", "atomic_min", "atomic_add"):
            val = node.args[2] if len(node.args) > 2 else None
            op.value = df.value_class(val, self.env) if val is not None else "unknown"
        self._emit(op)

    # -- statement walk -------------------------------------------------

    def walk_body(self, stmts) -> None:
        for s in stmts:
            self._walk_stmt(s)

    def _new_cur(self) -> int:
        b = self.frag.cfg.new_block()
        return b.id

    def _walk_stmt(self, s: ast.stmt) -> None:
        cfg = self.frag.cfg
        if isinstance(s, ast.Assign):
            self._scan_expr(s.value)
            for t in s.targets:
                self._note_target(t, s.value)
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self._scan_expr(s.value)
                self._note_target(s.target, s.value)
        elif isinstance(s, ast.AugAssign):
            self._scan_expr(s.value)
            if isinstance(s.target, ast.Name):
                self.env.prov[s.target.id] = df.UNKNOWN
                self.env.masks.discard(s.target.id)
                self.env.uniform.discard(s.target.id)
        elif isinstance(s, ast.Expr):
            self._scan_expr(s.value)
        elif isinstance(s, ast.Return):
            self._scan_expr(s.value)
        elif isinstance(s, ast.If):
            self._scan_expr(s.test)
            if not self.recording:
                # host-level control flow around a launch: walk linearly —
                # kernel windows only care about structure *inside* the
                # launch body (each host iteration is a separate launch)
                self.walk_body(s.body)
                self.walk_body(s.orelse)
                return
            fork = self.cur
            then_id = self._new_cur()
            cfg.add_edge(fork, then_id)
            self.cur = then_id
            self.walk_body(s.body)
            then_end = self.cur
            if s.orelse:
                else_id = self._new_cur()
                cfg.add_edge(fork, else_id)
                self.cur = else_id
                self.walk_body(s.orelse)
                else_end = self.cur
                join = self._new_cur()
                cfg.add_edge(then_end, join)
                cfg.add_edge(else_end, join)
            else:
                join = self._new_cur()
                cfg.add_edge(then_end, join)
                cfg.add_edge(fork, join)
            self.cur = join
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            self._scan_expr(s.iter)
            self._note_target(s.target, None)
            if not self.recording:
                self.walk_body(s.body)
                self.walk_body(s.orelse)
                return
            self._walk_loop(s.body, s.orelse)
        elif isinstance(s, ast.While):
            self._scan_expr(s.test)
            if not self.recording:
                self.walk_body(s.body)
                self.walk_body(s.orelse)
                return
            self._walk_loop(s.body, s.orelse, test=s.test)
        elif isinstance(s, (ast.With, ast.AsyncWith)):
            self._walk_with(s)
        elif isinstance(s, ast.Try):
            self.walk_body(s.body)
            for h in s.handlers:
                self.walk_body(h.body)
            self.walk_body(s.orelse)
            self.walk_body(s.finalbody)
        elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are separate fragments, not inline ops
        elif isinstance(s, (ast.Assert, ast.Raise, ast.Delete)):
            pass
        elif isinstance(s, (ast.Pass, ast.Break, ast.Continue, ast.Global,
                            ast.Nonlocal, ast.Import, ast.ImportFrom)):
            pass

    def _walk_loop(self, body, orelse, *, test: ast.AST | None = None) -> None:
        cfg = self.frag.cfg
        entry = self.cur
        head = self._new_cur()
        cfg.add_edge(entry, head)
        self.cur = head
        self.walk_body(body)
        tail = self.cur
        cfg.add_edge(tail, head)  # back edge: the body repeats in-window
        exit_id = self._new_cur()
        cfg.add_edge(tail, exit_id)
        cfg.add_edge(entry, exit_id)  # zero-iteration bypass
        self.cur = exit_id
        if orelse:
            self.walk_body(orelse)

    def _walk_with(self, s: ast.With) -> None:
        launch_item = _is_launch_with(s)
        if s is self.target_with:
            # the kernel we are building: arm recording, bind the ctx var
            assert launch_item is not None
            if isinstance(launch_item.optional_vars, ast.Name):
                self.ctx_names.add(launch_item.optional_vars.id)
                self.frag.ctx_names = tuple(sorted(self.ctx_names))
            self._scan_launch_args(launch_item)
            self.recording = True
            self.walk_body(s.body)
            self.recording = False
            return
        if launch_item is not None and self.target_with is not None:
            # a *different* launch in the same scope: its ops belong to
            # its own fragment — track env effects only
            was = self.recording
            self.recording = False
            self.walk_body(s.body)
            self.recording = was
            return
        for item in s.items:
            self._scan_expr(item.context_expr)
            if item.optional_vars is not None:
                self._note_target(item.optional_vars, item.context_expr)
        self.walk_body(s.body)

    def _scan_launch_args(self, item: ast.withitem) -> None:
        call = item.context_expr
        if isinstance(call, ast.Call):
            for a in call.args[1:]:
                self._scan_expr(a)

    def _note_target(self, target: ast.AST, value: ast.AST | None) -> None:
        if value is None:
            if isinstance(target, ast.Name):
                self.env.prov[target.id] = df.UNKNOWN
                self.env.masks.discard(target.id)
                self.env.uniform.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for t in target.elts:
                    self._note_target(t, None)
            return
        df.note_assignment(target, value, self.env)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

@dataclass
class Corpus:
    """Everything the effect/rule passes need: kernels + device fns."""

    kernels: list[Fragment] = field(default_factory=list)
    #: bare function name → device-function fragment
    device_fns: dict[str, Fragment] = field(default_factory=dict)
    #: files that failed to parse: path → error message
    errors: dict[str, str] = field(default_factory=dict)


def build_corpus(paths) -> Corpus:
    """Parse ``paths`` and lift every launch block into the kernel IR."""
    corpus = Corpus()
    parsed: list[tuple[str, ast.AST, list[str]]] = []
    functions: list[_FnInfo] = []
    for f in discover_files(paths):
        path = _norm_path(f)
        try:
            src = f.read_text()
            tree = ast.parse(src)
        except (OSError, SyntaxError) as e:  # pragma: no cover - bad input
            corpus.errors[path] = str(e)
            continue
        lines = src.splitlines()
        parsed.append((path, tree, lines))
        functions.extend(_collect_functions(tree, path, lines))

    # fixpoint: direct ctx use, then forwarding through known device fns
    registry: dict[str, _FnInfo] = {}
    for fn in functions:
        fn.ctx_params = _direct_ctx_params(fn)
        if fn.ctx_params:
            registry[fn.node.name] = fn
    changed = True
    while changed:
        changed = False
        for fn in functions:
            extra = _forwarded_ctx_params(fn, registry) - fn.ctx_params
            if extra:
                fn.ctx_params |= extra
                registry[fn.node.name] = fn
                changed = True

    # device-function fragments
    for fn in registry.values():
        frag = Fragment(
            kind="device_fn",
            label=fn.qualname,
            path=fn.path,
            line=fn.node.lineno,
            ctx_names=tuple(sorted(fn.ctx_params)),
            params=fn.params,
        )
        env = df.Env()
        env.bind_params(fn.params)
        b = _FragmentBuilder(
            frag, env, fn.ctx_params, registry, fn.src_lines, target_with=None
        )
        b.walk_body(fn.node.body)
        corpus.device_fns[fn.node.name] = frag

    # kernel fragments: one per launch site, walked from the enclosing scope
    for path, tree, lines in parsed:
        for scope_q, scope_params, scope_body, node in _launch_sites(tree):
            item = _is_launch_with(node)
            call = item.context_expr
            frag = Fragment(
                kind="kernel",
                label=_launch_label(call),
                path=path,
                line=node.lineno,
                owner=scope_q or None,
            )
            env = df.Env()
            env.bind_params(scope_params)
            b = _FragmentBuilder(
                frag, env, set(), registry, lines, target_with=node
            )
            b.walk_body(scope_body)
            corpus.kernels.append(frag)

    corpus.kernels.sort(key=lambda k: (k.path, k.line))
    return corpus


def _launch_sites(tree: ast.AST):
    """Yield ``(scope_qualname, scope_params, scope_body, With)`` per launch.

    The scope is the innermost enclosing function (or the module body),
    whose statements are replayed so pre-launch host bindings feed the
    provenance environment.
    """
    def visit(node: ast.AST, scope_q: str, scope_params: tuple, scope_body):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = f"{scope_q}.{child.name}" if scope_q else child.name
                params = tuple(
                    a.arg
                    for a in child.args.args + child.args.kwonlyargs
                    if a.arg != "self"
                )
                yield from visit(child, q, params, child.body)
            elif isinstance(child, ast.ClassDef):
                q = f"{scope_q}.{child.name}" if scope_q else child.name
                yield from visit(child, q, scope_params, scope_body)
            else:
                if isinstance(child, (ast.With, ast.AsyncWith)) and _is_launch_with(
                    child
                ):
                    yield (scope_q, scope_params, scope_body, child)
                yield from visit(child, scope_q, scope_params, scope_body)

    yield from visit(
        tree, "", (), tree.body if isinstance(tree, ast.Module) else []
    )
