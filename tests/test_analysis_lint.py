"""Tests for the static kernel-authoring lint (repro.analysis.lint)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def rules(findings):
    return [f.rule for f in findings]


class TestOwnSources:
    def test_src_repro_is_clean(self):
        findings = lint_paths([str(SRC)])
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )

    def test_benchmarks_and_examples_are_clean(self):
        findings = lint_paths(
            [str(REPO / "benchmarks"), str(REPO / "examples")]
        )
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )

    def test_an202_scoped_to_packages(self, tmp_path):
        # AN202 (missing __all__) is about a module's import surface: it
        # applies inside packages, not to standalone scripts
        script = tmp_path / "bench_x.py"
        script.write_text("def f(arr):\n    return arr\n")
        assert rules(lint_paths([tmp_path])) == []
        (tmp_path / "__init__.py").write_text("__all__ = []\n")
        assert rules(lint_paths([tmp_path])) == ["AN202"]


class TestKernelContextRules:
    def test_an101_data_write_outside_launch(self):
        src = (
            "__all__ = []\n"
            "def f(arr):\n"
            "    arr.data[3] = 1.0\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN101"]

    def test_an101_ufunc_at_on_data(self):
        src = (
            "import numpy as np\n"
            "__all__ = []\n"
            "def f(arr):\n"
            "    np.add.at(arr.data, [1], 2.0)\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN101"]

    def test_an102_data_access_inside_launch(self):
        """The acceptance fixture: raw backing-storage access inside a
        kernel context is un-counted device traffic."""
        src = (
            "__all__ = []\n"
            "def f(dev, arr):\n"
            "    with dev.launch('k') as k:\n"
            "        x = arr.data[2]\n"
        )
        found = lint_source(src, "x.py")
        assert rules(found) == ["AN102"]
        assert found[0].line == 4

    def test_an102_data_access_inside_segment(self):
        """A persistent kernel's continuation segment is a kernel body."""
        src = (
            "__all__ = []\n"
            "def f(dev, arr):\n"
            "    with dev.segment('k', resume=True) as k:\n"
            "        x = arr.data[2]\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN102"]

    def test_counted_gather_is_clean(self):
        src = (
            "__all__ = []\n"
            "def f(dev, arr, idx, a):\n"
            "    with dev.launch('k') as k:\n"
            "        x = k.gather(arr, idx, a)\n"
        )
        assert lint_source(src, "x.py") == []

    def test_an103_scalar_device_read_in_loop(self):
        src = (
            "__all__ = []\n"
            "def f(arr):\n"
            "    for i in range(10):\n"
            "        x = float(arr.data[i])\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN103"]

    def test_an103_not_flagged_outside_loop(self):
        src = (
            "__all__ = []\n"
            "def f(arr):\n"
            "    return float(arr.data[0])\n"
        )
        assert lint_source(src, "x.py") == []

    def test_an103_while_loop_body(self):
        # regression: while bodies are hot loops too
        src = (
            "__all__ = []\n"
            "def f(arr, n):\n"
            "    i = 0\n"
            "    while i < n:\n"
            "        x = float(arr.data[i])\n"
            "        i += 1\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN103"]

    def test_an103_int_and_bool_conversions(self):
        src = (
            "__all__ = []\n"
            "def f(arr, flags, n):\n"
            "    while n:\n"
            "        i = int(arr.data[0])\n"
            "        b = bool(flags.data[i])\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN103", "AN103"]

    def test_an103_element_read_inside_expression(self):
        src = (
            "__all__ = []\n"
            "def f(dist, u, w, n):\n"
            "    while n:\n"
            "        nd = float(dist.data[u] + w)\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN103"]

    def test_an103_masked_reduction_is_exempt(self):
        # one reduction transfer per iteration is the device-reduction
        # idiom, not a per-element round-trip
        src = (
            "__all__ = []\n"
            "def f(dist, mask, n):\n"
            "    while n:\n"
            "        lo = float(dist.data[mask].min())\n"
        )
        assert lint_source(src, "x.py") == []

    def test_an103_item_in_while_loop(self):
        src = (
            "__all__ = []\n"
            "def f(arr, n):\n"
            "    while n:\n"
            "        x = arr.data[0].item()\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN103"]


class TestGeneralRules:
    def test_an201_mutable_default(self):
        src = "__all__ = []\ndef f(x=[]):\n    return x\n"
        assert rules(lint_source(src, "x.py")) == ["AN201"]

    def test_an202_missing_all(self):
        src = "def f():\n    pass\n"
        assert rules(lint_source(src, "x.py")) == ["AN202"]

    def test_an202_not_required_when_disabled(self):
        src = "def f():\n    pass\n"
        assert lint_source(src, "x.py", require_all=False) == []


class TestSuppression:
    def test_disable_comment_silences_the_line(self):
        src = (
            "__all__ = []\n"
            "def f(arr):\n"
            "    arr.data[3] = 1.0  # repro-lint: disable=AN101\n"
        )
        assert lint_source(src, "x.py") == []

    def test_disable_of_other_rule_does_not_silence(self):
        src = (
            "__all__ = []\n"
            "def f(arr):\n"
            "    arr.data[3] = 1.0  # repro-lint: disable=AN103\n"
        )
        assert rules(lint_source(src, "x.py")) == ["AN101"]


class TestCli:
    def test_lint_command_clean_on_src(self, capsys):
        from repro.cli import main

        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_fails_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "__all__ = []\n"
            "def f(dev, arr):\n"
            "    with dev.launch('k') as k:\n"
            "        arr.data[0] = 1.0\n"
        )
        from repro.cli import main

        assert main(["lint", str(bad)]) == 1
        assert "AN102" in capsys.readouterr().out
