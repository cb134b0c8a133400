"""Kernel IR: the operation/effect vocabulary of the static analyzer.

The simulator's kernel DSL is tiny — every device-memory effect flows
through one of a handful of :class:`~repro.gpusim.device.KernelContext`
methods — so a kernel body reduces to a short list of :class:`KernelOp`
nodes hung off a structured control-flow graph (:class:`CFG` of
:class:`Block`).  Two kinds of *fragments* carry ops:

* **kernel fragments** — the body of one ``with device.launch("name")``
  block (the unit the dynamic sanitizer calls a launch window); and
* **device functions** — helpers like ``relax_batch`` /
  ``compact_multisplit`` that receive a ``KernelContext`` parameter and
  are inlined into every launch that calls them.

The IR is deliberately *effect-oriented*: host arithmetic between ops is
not modelled, only (a) which device arrays are touched, by which op
kind, with which index expression, and (b) the barrier / branch / loop
structure needed to reason about synchronization windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "OP_KINDS",
    "MEMORY_OPS",
    "STRUCTURE_OPS",
    "KernelOp",
    "Block",
    "CFG",
    "Fragment",
]

#: KernelContext methods that touch device memory
MEMORY_OPS = ("gather", "scatter", "atomic_min", "atomic_add")

#: KernelContext methods that shape execution without touching memory
#: (``multisplit`` moves data only through shared memory, never DRAM)
STRUCTURE_OPS = (
    "alu",
    "branch",
    "device_barrier",
    "async_round",
    "child_launch",
    "multisplit",
)

#: every op kind the IR carries (``call`` is a device-function call site)
OP_KINDS = MEMORY_OPS + STRUCTURE_OPS + ("call",)


@dataclass
class KernelOp:
    """One IR node: a counted device operation or a device-function call."""

    #: one of :data:`OP_KINDS`
    kind: str
    #: source line of the call (for findings)
    line: int
    #: device-array expression text (memory ops only), e.g. ``dgraph.adj``
    array: str | None = None
    #: canonical array name — last dotted segment of ``array``
    array_name: str | None = None
    #: index-expression text (memory ops only)
    index: str | None = None
    #: inferred index provenance tag (filled by the dataflow pass)
    provenance: str = "unknown"
    #: ``uniform`` / ``varied`` / ``unknown`` — value classification of a
    #: scatter's stored values (same-value stores cannot corrupt state)
    value: str | None = None
    #: line carries a ``repro-static: assume-disjoint`` justification
    justified: bool = False
    #: call ops: callee name; others: None
    callee: str | None = None
    #: call ops: argument expression texts, positionally
    args: tuple = ()
    #: call ops: caller-side provenance per argument, positionally
    arg_provenance: tuple = ()
    #: call ops: caller-side value class per argument, positionally
    arg_values: tuple = ()
    #: call ops: keyword args as ``(name, text, provenance, value)`` tuples
    kwargs: tuple = ()
    #: call ops: receiver expression text for method calls (``flags.push``)
    receiver: str | None = None


@dataclass
class Block:
    """One basic block: a run of ops with CFG successor edges."""

    id: int
    #: indices into the owning fragment's op list, in program order
    ops: list[int] = field(default_factory=list)
    #: successor block ids
    succ: list[int] = field(default_factory=list)


class CFG:
    """A structured control-flow graph over a fragment's ops."""

    def __init__(self) -> None:
        self.blocks: list[Block] = [Block(0)]
        self.entry = 0

    def new_block(self) -> Block:
        """Append an empty block and return it."""
        b = Block(len(self.blocks))
        self.blocks.append(b)
        return b

    def add_edge(self, src: int, dst: int) -> None:
        """Add a successor edge (idempotent)."""
        if dst not in self.blocks[src].succ:
            self.blocks[src].succ.append(dst)

    # ------------------------------------------------------------------
    # window reachability
    # ------------------------------------------------------------------
    def barrier_free_reach(self, ops: list[KernelOp]) -> list[set[int]]:
        """Per-op set of ops reachable through barrier-free CFG paths.

        Two memory ops belong to one *synchronization window* — and may
        therefore race — when one can reach the other along a path that
        crosses no ``device_barrier`` op.  This mirrors exactly how the
        dynamic sanitizer closes windows at ``on_device_barrier``.  An op
        contained in a barrier-free cycle reaches itself (a loop body
        re-executes inside one window).
        """
        # op-level adjacency: chains inside blocks, block tails to the
        # first ops of successors (threading through op-less blocks)
        first_ops = self._first_ops()
        adj: dict[int, set[int]] = {i: set() for i in range(len(ops))}
        for b in self.blocks:
            for i, j in zip(b.ops, b.ops[1:]):
                adj[i].add(j)
            tail = b.ops[-1] if b.ops else None
            if tail is not None:
                for s in b.succ:
                    adj[tail] |= first_ops[s]
        reach: list[set[int]] = []
        for i in range(len(ops)):
            visible: set[int] = set()
            stack = list(adj[i])
            while stack:
                j = stack.pop()
                if j in visible:
                    continue
                visible.add(j)
                if ops[j].kind == "device_barrier":
                    continue  # the window closes here; do not pass through
                stack.extend(adj[j])
            reach.append(
                {j for j in visible if ops[j].kind != "device_barrier"}
            )
        return reach

    def _first_ops(self) -> dict[int, set[int]]:
        """Per block: the first op(s) reachable without crossing any op."""
        memo: dict[int, set[int]] = {}

        def first(bid: int, trail: frozenset) -> set[int]:
            if bid in memo:
                return memo[bid]
            if bid in trail:
                return set()
            b = self.blocks[bid]
            if b.ops:
                out = {b.ops[0]}
            else:
                out = set()
                for s in b.succ:
                    out |= first(s, trail | {bid})
            memo[bid] = out
            return out

        for bid in range(len(self.blocks)):
            first(bid, frozenset())
        return memo


@dataclass
class Fragment:
    """One analyzable unit: a launch block or a device function body."""

    #: ``kernel`` (a ``with device.launch(...)`` block) or ``device_fn``
    kind: str
    #: kernel label (launch string literal) or function qualname
    label: str
    #: source path the fragment lives in
    path: str
    #: first source line of the fragment
    line: int
    #: context-variable names carrying the KernelContext in this scope
    ctx_names: tuple = ()
    #: formal parameter names (device functions only, ``self`` excluded)
    params: tuple = ()
    ops: list[KernelOp] = field(default_factory=list)
    cfg: CFG = field(default_factory=CFG)
    #: enclosing function qualname (kernels only; None at module level)
    owner: str | None = None

    @property
    def key(self) -> str:
        """Stable identifier used by findings and the manifest."""
        return f"{self.path}::{self.label}"

    def count(self, kind: str) -> int:
        """Number of ops of ``kind`` lexically in this fragment."""
        return sum(1 for op in self.ops if op.kind == kind)
