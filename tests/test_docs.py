"""Tests for tools/check_docs.py and the documentation invariants it
guards: resolvable cross-links, an index that names every docs page,
quoted CLI commands that the real argparse tree still accepts, and
environment knobs the code still reads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from check_docs import (  # noqa: E402
    check_env_knobs,
    check_extra_keys,
    check_index,
    check_links,
    doc_paths,
    extract_commands,
    source_string_literals,
    validate_command,
)


class TestRepoDocsPass:
    def test_checker_exits_zero_on_the_repo(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_docs.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 problem(s)" in proc.stdout

    def test_every_docs_page_scanned(self):
        scanned = {p.name for p in doc_paths()}
        for page in (REPO / "docs").glob("*.md"):
            assert page.name in scanned

    def test_commands_are_actually_found(self):
        """Guard against the extractor silently matching nothing."""
        total = sum(len(extract_commands(p)) for p in doc_paths())
        assert total >= 30

    def test_index_links_every_page(self):
        assert check_index() == []


class TestValidator:
    @pytest.mark.parametrize("cmd", [
        "python -m repro.cli trace run kron:9,8 --method rdbs --out t.json",
        "python -m repro.cli sanitize kron:9,8 --method rdbs",
        "python -m repro.cli bench check --baseline BENCH_quick.json --no-wall",
        "python -m repro solve kron:12,16 --method rdbs",
        "PYTHONPATH=src python -m repro.cli lint src/repro",
    ])
    def test_real_commands_pass(self, cmd):
        assert validate_command(cmd) is None

    @pytest.mark.parametrize("cmd", [
        "python -m repro.cli trace frobnicate t.json",
        "python -m repro.cli sanitize kron:9,8 --method nosuch",
        "python -m repro.cli bench run --no-such-flag",
        "python -m repro.cli trace export t.json",  # missing required --format
    ])
    def test_stale_commands_fail(self, cmd):
        assert validate_command(cmd) is not None

    @pytest.mark.parametrize("cmd", [
        "python -m repro.cli sanitize kron:9,8 --method <m>",  # placeholder
        "python -m pytest -x -q",                              # not our CLI
        "python -m repro.cli lint [paths]",                    # placeholder
    ])
    def test_templates_and_foreign_commands_skipped(self, cmd):
        assert validate_command(cmd) is None


class TestLinkCheck:
    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "page.md"
        doc.write_text("see [here](no-such-file.md) for more\n")
        problems = check_links(doc)
        assert len(problems) == 1
        assert "no-such-file.md" in problems[0]

    def test_good_link_and_url_and_anchor_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("x\n")
        doc = tmp_path / "page.md"
        doc.write_text(
            "[a](other.md) [b](https://example.com) [c](#section) "
            "[d](other.md#part)\n"
        )
        assert check_links(doc) == []

    def test_fenced_code_blocks_ignored(self, tmp_path):
        doc = tmp_path / "page.md"
        doc.write_text("```\n[x](missing.md)\n```\n")
        assert check_links(doc) == []


class TestExtractor:
    def test_fenced_console_and_inline(self, tmp_path):
        doc = tmp_path / "page.md"
        doc.write_text(
            "Run `python -m repro.cli cache status` first.\n"
            "```console\n"
            "$ python -m repro.cli sanitize kron:9,8 --method rdbs\n"
            "output line, not a command\n"
            "```\n"
        )
        cmds = [c for _, c in extract_commands(doc)]
        assert "python -m repro.cli cache status" in cmds
        assert "python -m repro.cli sanitize kron:9,8 --method rdbs" in cmds
        assert len(cmds) == 2


class TestEnvKnobCheck:
    @pytest.fixture(scope="class")
    def literals(self):
        return source_string_literals()

    def test_unread_knob_detected(self, tmp_path, literals):
        doc = tmp_path / "page.md"
        doc.write_text("set `REPRO_NOT_A_KNOB=1` to disable it\n")
        problems = check_env_knobs(doc, literals)
        assert len(problems) == 1
        assert "REPRO_NOT_A_KNOB" in problems[0]

    def test_read_knob_passes(self, tmp_path, literals):
        doc = tmp_path / "page.md"
        doc.write_text("`REPRO_CACHE_DIR` moves the artifact cache\n")
        assert check_env_knobs(doc, literals) == []

    def test_history_page_exempt(self, tmp_path, literals):
        doc = tmp_path / "ROADMAP.md"
        doc.write_text("retired `REPRO_NOT_A_KNOB`\n")
        assert check_env_knobs(doc, literals) == []


class TestExtraKeyCheck:
    @pytest.fixture(scope="class")
    def literals(self):
        return source_string_literals()

    def test_unwritten_key_detected(self, tmp_path, literals):
        doc = tmp_path / "page.md"
        doc.write_text('see `result.extra["not_a_key"]` and '
                       '`result.extra["bucket_telemetry"]`\n')
        problems = check_extra_keys(doc, literals)
        assert len(problems) == 1
        assert "not_a_key" in problems[0]
