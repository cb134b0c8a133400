"""Tests for the static effect analyzer (repro.analysis.static)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.static import (
    analyze_paths,
    build_corpus,
    build_manifest,
    diff_manifest,
    load_manifest,
    write_manifest,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: kernels that push onto a device worklist
WORKLIST_KERNELS = {"phase1_async", "adds_async", "mlmq_init", "mlmq_drain",
                    "mlmq_advance"}

#: (kernel, array) of the one-lane decision-cell resets a worklist kernel
#: also runs (``repro.sssp.persistent.controller_step``)
DECISION_CELL_RESETS = {("mlmq_drain", "level_min"), ("adds_async", "promoted"),
                        ("phase1_async", "next_min")}

#: every launch label the engine corpus must produce a signature for
EXPECTED_KERNELS = {
    "phase1_async", "phase1_sync", "phase23_fused",   # rdbs
    "adds_split", "adds_async",                        # adds
    "bl_relax",                                        # baseline
    "hn_relax",                                        # harish
    "nearfar_split", "nearfar_relax",                  # near-far
    "resplit_offsets",                                 # shared relax layer
    "bfs_expand", "cc_propagate", "pagerank_push",     # graphalgs
    "recovery_probe", "recovery_verify", "recovery_relax",  # faults
    "mg_relax_g{}",                                    # multi-GPU
}


def analyze_src(tmp_path, source: str):
    """Write one module and analyze it."""
    mod = tmp_path / "engine.py"
    mod.write_text(source)
    return analyze_paths([str(mod)])


def codes(findings, severity=None):
    return [
        f.code for f in findings if severity is None or f.severity == severity
    ]


class TestProvenance:
    def test_segment_block_is_a_kernel(self, tmp_path):
        """A persistent kernel's segment is analyzed like a launch."""
        sigs, _ = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, resident):\n"
            "    with device.segment('seg', resume=resident) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, np.arange(4), vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["class"] == "disjoint"

    def test_affine_scatter_is_disjoint(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, np.arange(4), vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["class"] == "disjoint"
        assert sig.scatters[0]["index_provenance"] == "affine"
        assert findings == []

    def test_offset_plus_arange_stays_affine(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, offset):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, offset + np.arange(4), vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["class"] == "disjoint"
        assert findings == []

    def test_flatnonzero_is_unique(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, mask):\n"
            "    fresh = np.flatnonzero(mask)\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, fresh, vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["index_provenance"] == "unique"
        assert sig.scatters[0]["class"] == "disjoint"
        assert findings == []

    def test_union1d_is_unique(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, a_ids, b_ids):\n"
            "    ids = np.union1d(a_ids, b_ids)\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, ids, vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["index_provenance"] == "unique"
        assert findings == []

    def test_mask_subscript_preserves_injectivity(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, flags):\n"
            "    cand = np.arange(10)\n"
            "    keep = flags > 0\n"
            "    sel = cand[keep]\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, sel, vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["index_provenance"] == "unique"
        assert findings == []

    def test_gathered_index_is_tracked(self, tmp_path):
        sigs, _ = analyze_src(tmp_path, (
            "def f(device, dgraph, vals, frontier):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        targets = k.gather(dgraph.adj, frontier, a)\n"
            "        k.atomic_min(dgraph.dist, targets, vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.arrays["dist"]["atomic_min"] == ["gathered"]

    def test_fancy_index_loses_injectivity(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, vals, perm):\n"
            "    base = np.arange(10)\n"
            "    twisted = base[perm]\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, twisted, vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["class"] == "unknown"
        assert codes(findings, "error") == ["AN302"]


class TestRaceRules:
    RACY = (
        "def f(device, dgraph, dist, frontier):\n"
        "    with device.launch('racy', 4) as k:\n"
        "        a = object()\n"
        "        targets = k.gather(dgraph.adj, frontier, a)\n"
        "        nd = k.gather(dist, frontier, a)\n"
        "        k.scatter(dist, targets, nd, a)\n"
    )

    def test_an301_overlapping_nonatomic_scatter_is_error(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, self.RACY)
        assert "AN301" in codes(findings, "error")
        (sig,) = sigs.values()
        assert sig.scatters[0]["class"] == "racy"

    def test_an301_not_silenced_by_justification(self, tmp_path):
        src = self.RACY.replace(
            "k.scatter(dist, targets, nd, a)",
            "k.scatter(dist, targets, nd, a)  # repro-static: assume-disjoint",
        )
        _, findings = analyze_src(tmp_path, src)
        assert "AN301" in codes(findings, "error")

    def test_uniform_values_make_gathered_scatter_benign(self, tmp_path):
        _, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, dgraph, flags, frontier):\n"
            "    with device.launch('mark', 4) as k:\n"
            "        a = object()\n"
            "        targets = k.gather(dgraph.adj, frontier, a)\n"
            "        k.scatter(flags, targets, np.ones(4), a)\n"
        ))
        assert codes(findings, "error") == []

    def test_an302_justification_silences_unknown(self, tmp_path):
        _, findings = analyze_src(tmp_path, (
            "def f(device, out, vals, perm):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        # repro-static: assume-disjoint -- perm is a permutation\n"
            "        k.scatter(out, perm, vals, a)\n"
        ))
        assert findings == []

    def test_an304_atomic_plain_mix_needs_barrier(self, tmp_path):
        mix = (
            "import numpy as np\n"
            "def f(device, dist, targets, nd):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.atomic_min(dist, targets, nd, a)\n"
            "        k.scatter(dist, np.arange(4), np.zeros(4), a)\n"
        )
        _, findings = analyze_src(tmp_path, mix)
        assert "AN304" in codes(findings, "error")

    def test_an304_silenced_by_device_barrier(self, tmp_path):
        split = (
            "import numpy as np\n"
            "def f(device, dist, targets, nd):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.atomic_min(dist, targets, nd, a)\n"
            "        k.device_barrier()\n"
            "        k.scatter(dist, np.arange(4), np.zeros(4), a)\n"
        )
        _, findings = analyze_src(tmp_path, split)
        assert "AN304" not in codes(findings)

    def test_an305_two_plain_sites_same_window(self, tmp_path):
        _, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, x, y):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, np.arange(4), x, a)\n"
            "        k.scatter(out, 2 + np.arange(4), y, a)\n"
        ))
        assert "AN305" in codes(findings, "error")

    def test_an305_split_by_barrier(self, tmp_path):
        _, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, out, x, y):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, np.arange(4), x, a)\n"
            "        k.device_barrier()\n"
            "        k.scatter(out, 2 + np.arange(4), y, a)\n"
        ))
        assert "AN305" not in codes(findings)

    def test_loop_back_edge_keeps_ops_in_one_window(self, tmp_path):
        # the barrier inside the loop body does NOT protect the
        # wrap-around path tail -> head, so the mix is still flagged
        _, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, dist, targets, nd, rounds):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        for _ in range(rounds):\n"
            "            k.scatter(dist, np.arange(4), np.zeros(4), a)\n"
            "            k.device_barrier()\n"
            "            k.atomic_min(dist, targets, nd, a)\n"
        ))
        assert "AN304" in codes(findings, "error")

    def test_host_loop_around_launch_is_not_a_window(self, tmp_path):
        # separate launches per host iteration: no wrap-around window
        _, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, dist, targets, nd, rounds):\n"
            "    for _ in range(rounds):\n"
            "        with device.launch('k', 4) as k:\n"
            "            a = object()\n"
            "            k.scatter(dist, np.arange(4), np.zeros(4), a)\n"
            "            k.device_barrier()\n"
            "            k.atomic_min(dist, targets, nd, a)\n"
        ))
        assert "AN304" not in codes(findings)


class TestAsyncSafety:
    def test_plain_dist_store_sync_kernel_warns(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, dist, vals):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(dist, np.arange(4), vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.verdict == "requires-barrier"
        assert codes(findings, "warning") == ["AN303"]
        assert codes(findings, "error") == []

    def test_plain_dist_store_async_kernel_errors(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def f(device, dist, vals, rounds):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        for _ in range(rounds):\n"
            "            k.scatter(dist, np.arange(4), vals, a)\n"
            "            k.async_round(4)\n"
        ))
        (sig,) = sigs.values()
        assert sig.verdict == "unsafe"
        assert "AN303" in codes(findings, "error")

    def test_atomic_min_dist_is_async_safe(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "def f(device, dist, targets, nd, rounds):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        for _ in range(rounds):\n"
            "            k.atomic_min(dist, targets, nd, a)\n"
            "            k.async_round(4)\n"
        ))
        (sig,) = sigs.values()
        assert sig.verdict == "async-safe"
        assert findings == []

    def test_atomic_add_on_dist_warns_an306(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "def f(device, dist, targets, nd):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.atomic_add(dist, targets, nd, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.verdict == "requires-barrier"
        assert codes(findings, "warning") == ["AN306"]


class TestInlining:
    HELPER = (
        "import numpy as np\n"
        "def relax(ctx, arrays, dist, vertices, nd, assignment):\n"
        "    targets = ctx.gather(arrays.adj, vertices, assignment)\n"
        "    ctx.atomic_min(dist, targets, nd, assignment)\n"
        "\n"
        "def engine(device, arrays, dev_dist, frontier, nd):\n"
        "    with device.launch('eng', 4) as k:\n"
        "        a = object()\n"
        "        relax(k, arrays, dev_dist, frontier, nd, a)\n"
    )

    def test_device_fn_effects_inlined_into_kernel(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, self.HELPER)
        (sig,) = sigs.values()
        # the formal name `dist` is substituted with the caller arg
        assert "dev_dist" in sig.arrays
        assert sig.arrays["dev_dist"]["atomic_min"] == ["gathered"]
        assert sig.verdict == "async-safe"
        assert findings == []

    def test_racy_helper_scatter_reported_through_call(self, tmp_path):
        src = self.HELPER.replace("ctx.atomic_min", "ctx.scatter")
        sigs, findings = analyze_src(tmp_path, src)
        assert "AN301" in codes(findings, "error")
        (sig,) = sigs.values()
        assert sig.verdict == "unsafe" or sig.verdict == "requires-barrier"

    def test_param_provenance_resolved_at_call_site(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "def store(ctx, out, idx, vals, assignment):\n"
            "    ctx.scatter(out, idx, vals, assignment)\n"
            "\n"
            "def engine(device, out, vals):\n"
            "    with device.launch('eng', 4) as k:\n"
            "        a = object()\n"
            "        store(k, out, np.arange(4), vals, a)\n"
        ))
        (sig,) = sigs.values()
        assert sig.scatters[0]["index_provenance"] == "affine"
        assert findings == []

    def test_method_self_array_resolved_through_receiver(self, tmp_path):
        sigs, findings = analyze_src(tmp_path, (
            "import numpy as np\n"
            "class Flags:\n"
            "    def push(self, ctx, targets, assignment):\n"
            "        ctx.scatter(self.bits, targets, np.ones(4), assignment)\n"
            "\n"
            "def engine(device, frontier_flags, targets):\n"
            "    with device.launch('eng', 4) as k:\n"
            "        a = object()\n"
            "        frontier_flags.push(k, targets, a)\n"
        ))
        (sig,) = sigs.values()
        # ``self.bits`` canonicalizes to the attribute name; the uniform
        # np.ones value keeps the gathered-index scatter benign
        assert "bits" in sig.arrays
        assert sig.scatters[0]["value"] == "uniform"
        assert codes(findings, "error") == []


class TestCorpus:
    def test_every_engine_kernel_has_a_signature(self):
        sigs, _ = analyze_paths([str(SRC)])
        labels = {s.label for s in sigs.values()}
        missing = EXPECTED_KERNELS - labels
        assert not missing, f"kernels silently skipped: {missing}"

    def test_corpus_has_zero_error_findings(self):
        _, findings = analyze_paths([str(SRC)])
        errors = [f for f in findings if f.severity == "error"]
        assert errors == [], "\n".join(str(f) for f in errors)

    def test_all_sssp_kernels_async_safe(self):
        sigs, _ = analyze_paths([str(SRC / "sssp")])
        for sig in sigs.values():
            assert sig.verdict == "async-safe", f"{sig.key}: {sig.verdict}"

    def test_findings_deterministically_ordered(self, tmp_path):
        # two files, several findings each: order is (path, line, code)
        (tmp_path / "b.py").write_text(
            "def f(device, out, vals, p, q):\n"
            "    with device.launch('k2', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, q, vals, a)\n"
            "        k.scatter(out, p, vals, a)\n"
        )
        (tmp_path / "a.py").write_text(
            "def f(device, out, vals, p):\n"
            "    with device.launch('k1', 4) as k:\n"
            "        a = object()\n"
            "        k.scatter(out, p, vals, a)\n"
        )
        _, findings = analyze_paths([str(tmp_path)])
        keys = [(f.path, f.line, f.code) for f in findings]
        assert keys == sorted(keys)
        assert len(findings) >= 3

    def test_device_fn_registry_finds_shared_helpers(self):
        corpus = build_corpus([str(SRC)])
        for helper in ("relax_batch", "compact_multisplit", "push"):
            assert helper in corpus.device_fns, helper


class TestManifest:
    def test_round_trip_and_clean_diff(self, tmp_path):
        sigs, _ = analyze_paths([str(SRC / "sssp")])
        manifest = build_manifest(sigs)
        path = tmp_path / "m.json"
        write_manifest(path, manifest)
        assert diff_manifest(load_manifest(path), manifest) == []

    def test_drift_detected_on_changed_kernel(self, tmp_path):
        sigs, _ = analyze_paths([str(SRC / "sssp")])
        manifest = build_manifest(sigs)
        mutated = json.loads(json.dumps(manifest))
        key = sorted(mutated["kernels"])[0]
        mutated["kernels"][key]["verdict"] = "unsafe"
        drift = diff_manifest(mutated, manifest)
        assert len(drift) == 1 and "changed kernel" in drift[0]

    def test_drift_detected_on_added_and_removed(self, tmp_path):
        sigs, _ = analyze_paths([str(SRC / "sssp")])
        manifest = build_manifest(sigs)
        mutated = json.loads(json.dumps(manifest))
        key = sorted(mutated["kernels"])[0]
        moved = mutated["kernels"].pop(key)
        mutated["kernels"]["ghost.py::ghost"] = moved
        drift = diff_manifest(mutated, manifest)
        assert any("removed kernel: ghost.py::ghost" in d for d in drift)
        assert any(f"new kernel: {key}" in d for d in drift)

    def test_committed_manifest_matches_tree(self):
        # the acceptance gate: the committed ANALYSIS_manifest.json must
        # reproduce exactly from the current sources
        committed = load_manifest(REPO / "ANALYSIS_manifest.json")
        sigs, _ = analyze_paths([str(SRC)])
        drift = diff_manifest(committed, build_manifest(sigs))
        assert drift == [], "\n".join(drift)

    def test_worklist_stores_are_proven_disjoint(self):
        # every worklist store goes through repro.sssp.worklist: a dense
        # cursor append the analyzer proves without an in-source escape.
        # The other stores are the persistent controller's one-lane
        # resets of decision cells (repro.sssp.persistent): MLMQ's
        # next-level cell, ADDS's promoted count and RDBS's next-bucket
        # minimum
        committed = load_manifest(REPO / "ANALYSIS_manifest.json")
        kernels = {
            sig["label"]: sig for sig in committed["kernels"].values()
            if sig["label"] in WORKLIST_KERNELS
        }
        assert set(kernels) == WORKLIST_KERNELS
        for label, sig in kernels.items():
            assert sig["scatters"], label
            assert "call" not in sig["ops"], label
            for s in sig["scatters"]:
                if (label, s["array"]) in DECISION_CELL_RESETS:
                    continue
                assert s["array"] == "slots", (label, s)
                assert (s["class"], s["justified"]) == ("disjoint", False), (
                    label, s)

    def test_signatures_carry_no_line_numbers(self):
        committed = load_manifest(REPO / "ANALYSIS_manifest.json")
        for sig in committed["kernels"].values():
            assert "line" not in sig
            for s in sig["scatters"]:
                assert "line" not in s


class TestCli:
    def test_analyze_clean_on_src(self, capsys):
        from repro.cli import main

        assert main(["analyze", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "kernel(s) analyzed" in out

    def test_analyze_manifest_gate_passes_on_committed(self, capsys):
        from repro.cli import main

        assert main([
            "analyze", str(SRC),
            "--manifest", str(REPO / "ANALYSIS_manifest.json"),
        ]) == 0
        assert "manifest ✓" in capsys.readouterr().out

    def test_analyze_fails_on_racy_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(TestRaceRules.RACY)
        from repro.cli import main

        assert main(["analyze", str(bad)]) == 1
        assert "AN301" in capsys.readouterr().out

    def test_analyze_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(TestRaceRules.RACY)
        from repro.cli import main

        assert main(["analyze", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] >= 1
        assert any(f["code"] == "AN301" for f in payload["findings"])
        (sig,) = payload["kernels"].values()
        assert sig["verdict"] == "requires-barrier"

    def test_analyze_refresh_then_gate_detects_drift(self, tmp_path, capsys):
        eng = tmp_path / "eng.py"
        eng.write_text(
            "def f(device, dist, targets, nd):\n"
            "    with device.launch('k', 4) as k:\n"
            "        a = object()\n"
            "        k.atomic_min(dist, targets, nd, a)\n"
        )
        manifest = tmp_path / "m.json"
        from repro.cli import main

        assert main([
            "analyze", str(eng), "--manifest", str(manifest), "--refresh",
        ]) == 0
        capsys.readouterr()
        # perturb the atomic discipline: the gate must fail
        eng.write_text(eng.read_text().replace("atomic_min", "atomic_add"))
        assert main(["analyze", str(eng), "--manifest", str(manifest)]) == 1
        assert "manifest drift" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "__all__ = []\n"
            "def f(arr):\n"
            "    arr.data[3] = 1.0\n"
        )
        from repro.cli import main

        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "AN101"
