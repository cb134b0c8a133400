#!/usr/bin/env python3
"""Documentation checker: keep the docs true as the code moves.

Five checks, run over ``README.md``, ``EXPERIMENTS.md``, ``ROADMAP.md``
and every page under ``docs/``:

1. **Cross-links** — every relative markdown link ``[...](path)`` must
   resolve to an existing file (anchors stripped, prose only — fenced
   code blocks are ignored).
2. **Index completeness** — every ``docs/*.md`` page must be linked
   from ``docs/index.md``, so the landing page cannot silently fall
   behind a new document.
3. **CLI commands** — every ``python -m repro[.cli] ...`` command quoted
   in a fenced block or inline code span is parsed against the real
   argparse tree (``repro.cli.build_parser()``).  A renamed subcommand,
   a dropped flag or a stale ``--method`` choice fails here instead of
   in a reader's terminal.  Commands containing placeholders
   (``<m>``, ``[paths]``, ``…``) are skipped.
4. **Environment knobs** — every ``REPRO_*`` variable a page names must
   appear as a string literal under ``src/repro/``, so the docs never
   advertise a knob the code no longer reads.  ``ROADMAP.md`` is history
   and may name retired ones.
5. **Result keys** — every ``extra["key"]`` a page names must likewise
   appear as a string literal under ``src/repro/``, so the docs never
   point at a result key the engines no longer write (same exemption).

Exit status 0 when every check passes; 1 otherwise, with one line per
problem.  Run it locally with ``python tools/check_docs.py``; CI runs it
in the lint job.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import build_parser  # noqa: E402

DOC_FILES = ["README.md", "EXPERIMENTS.md", "ROADMAP.md"]
#: history pages: they may name retired environment knobs
HISTORY_FILES = {"ROADMAP.md"}
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
ENV_KNOB_RE = re.compile(r"\bREPRO_[A-Z_]+\b")
EXTRA_KEY_RE = re.compile(r"""\bextra\[["']([^"']+)["']\]""")
ENV_ASSIGN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
PLACEHOLDER_CHARS = "<>[]…"


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def doc_paths() -> list[Path]:
    paths = [REPO / name for name in DOC_FILES]
    paths.extend(sorted((REPO / "docs").glob("*.md")))
    return [p for p in paths if p.exists()]


def iter_prose_and_code(text: str):
    """Yield ``(lineno, line, in_code_block)`` with fence tracking."""
    fenced = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        yield lineno, line, fenced


# ----------------------------------------------------------------------
# check 1: cross-links
# ----------------------------------------------------------------------

def check_links(path: Path) -> list[str]:
    problems = []
    for lineno, line, fenced in iter_prose_and_code(path.read_text()):
        if fenced:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not (path.parent / rel).exists():
                problems.append(
                    f"{_rel(path)}:{lineno}: broken link -> {target}"
                )
    return problems


# ----------------------------------------------------------------------
# check 2: index completeness
# ----------------------------------------------------------------------

def check_index() -> list[str]:
    index = REPO / "docs" / "index.md"
    if not index.exists():
        return ["docs/index.md: missing (the docs landing page)"]
    linked = set(LINK_RE.findall(index.read_text()))
    problems = []
    for page in sorted((REPO / "docs").glob("*.md")):
        if page.name == "index.md":
            continue
        if page.name not in linked:
            problems.append(
                f"docs/index.md: does not link docs/{page.name}"
            )
    return problems


# ----------------------------------------------------------------------
# check 3: CLI commands against the real parser
# ----------------------------------------------------------------------

def extract_commands(path: Path) -> list[tuple[int, str]]:
    commands = []
    for lineno, line, fenced in iter_prose_and_code(path.read_text()):
        if fenced:
            candidate = line.strip()
            if candidate.startswith("$ "):
                candidate = candidate[2:]
            if "python -m repro" in candidate and candidate.startswith(
                ("python ", "PYTHONPATH")
            ):
                commands.append((lineno, candidate))
        else:
            for span in INLINE_CODE_RE.findall(line):
                if "python -m repro" in span:
                    commands.append((lineno, span.strip()))
    return commands


def validate_command(cmd: str) -> str | None:
    """Return an error string, or None when the command parses (or is
    skipped as a placeholder/non-CLI line)."""
    if any(ch in cmd for ch in PLACEHOLDER_CHARS):
        return None  # illustrative template, not a literal command
    try:
        tokens = shlex.split(cmd, comments=True)
    except ValueError as exc:
        return f"unparseable shell syntax ({exc})"
    while tokens and ENV_ASSIGN_RE.match(tokens[0]):
        tokens.pop(0)
    if tokens[:2] != ["python", "-m"] or len(tokens) < 3:
        return None
    if tokens[2] not in ("repro", "repro.cli"):
        return None  # pytest, pip, ... — not ours to validate
    args = tokens[3:]
    parser = build_parser()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
            io.StringIO()
        ):
            parser.parse_args(args)
    except SystemExit as exc:
        if exc.code not in (0, None):  # --help exits 0
            detail = stderr.getvalue().strip().splitlines()
            return detail[-1] if detail else "rejected by argparse"
    return None


def check_commands(path: Path) -> list[str]:
    problems = []
    for lineno, cmd in extract_commands(path):
        error = validate_command(cmd)
        if error is not None:
            problems.append(
                f"{_rel(path)}:{lineno}: bad CLI command `{cmd}` — {error}"
            )
    return problems


# ----------------------------------------------------------------------
# check 4: environment knobs the code still reads
# ----------------------------------------------------------------------

def source_string_literals(root: Path = REPO / "src" / "repro") -> set[str]:
    """Every string constant in the Python sources under ``root``."""
    literals: set[str] = set()
    for src in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


def check_env_knobs(path: Path, literals: set[str]) -> list[str]:
    if path.name in HISTORY_FILES:
        return []
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for knob in ENV_KNOB_RE.findall(line):
            if knob not in literals:
                problems.append(
                    f"{_rel(path)}:{lineno}: names {knob}, which no "
                    f"string literal under src/repro/ reads"
                )
    return problems


# ----------------------------------------------------------------------
# check 5: result keys the engines still write
# ----------------------------------------------------------------------

def check_extra_keys(path: Path, literals: set[str]) -> list[str]:
    if path.name in HISTORY_FILES:
        return []
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for key in EXTRA_KEY_RE.findall(line):
            if key not in literals:
                problems.append(
                    f"{_rel(path)}:{lineno}: names extra[{key!r}], which "
                    f"no string literal under src/repro/ writes"
                )
    return problems


def main() -> int:
    problems: list[str] = []
    paths = doc_paths()
    literals = source_string_literals()
    n_commands = 0
    for path in paths:
        problems.extend(check_links(path))
        problems.extend(check_commands(path))
        problems.extend(check_env_knobs(path, literals))
        problems.extend(check_extra_keys(path, literals))
        n_commands += len(extract_commands(path))
    problems.extend(check_index())
    for problem in problems:
        print(problem)
    status = "FAILED" if problems else "ok"
    print(
        f"check_docs: {len(paths)} file(s), {n_commands} CLI command(s) "
        f"checked, {len(problems)} problem(s) — {status}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
