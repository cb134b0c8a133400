"""Tests for repro.faults: injection determinism and the recovery runtime."""

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GPU_METHODS,
    InjectedKernelAbort,
    RecoveryPolicy,
    faulty_sssp,
    get_plan,
    plan_names,
    verify_distances_host,
)
from repro.graphs import (
    CSRGraph,
    GraphValidationError,
    from_edges,
    kronecker,
    largest_component_vertices,
    path,
)
from repro.graphs.generators import rmat_edges
from repro.gpusim import V100
from repro.gpusim.multi import multi_gpu_sssp
from repro.sssp import (
    ConvergenceError,
    DistanceMismatch,
    dijkstra,
    pq_delta_star_sssp,
    rdbs_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)

KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])


def _rmat_graph():
    rng = np.random.default_rng(7)
    src, dst = rmat_edges(7, 6 * 2**7, rng=rng)
    w = rng.integers(1, 100, size=src.size).astype(float)
    return from_edges(src, dst, w, num_vertices=2**7, name="rmat7")


RMAT = _rmat_graph()
RMAT_SRC = int(largest_component_vertices(RMAT)[0])

ALL_PLANS = ["lost-updates", "stale-reads", "bitflips", "kernel-aborts", "chaos"]


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_registry_names(self):
        names = plan_names()
        for p in ALL_PLANS + ["exchange-drop", "exchange-dup"]:
            assert p in names

    def test_get_plan_reseed(self):
        p = get_plan("bitflips", seed=42)
        assert p.seed == 42
        assert get_plan("bitflips").seed != 42 or get_plan("bitflips") is not p

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            get_plan("not-a-plan")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="not-a-kind")
        with pytest.raises(ValueError):
            FaultSpec(kind="bitflip", count=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind="bitflip", period=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="bitflip", bit=64)

    def test_budget(self):
        plan = FaultPlan(
            name="two", specs=(FaultSpec(kind="bitflip", count=3),
                               FaultSpec(kind="lost-update", count=4)),
        )
        assert plan.total_budget == 7


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("plan", ["lost-updates", "chaos"])
    def test_same_seed_same_report(self, plan):
        r1, rep1 = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan=plan, seed=3, spec=SPEC
        )
        r2, rep2 = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan=plan, seed=3, spec=SPEC
        )
        assert rep1.injected > 0
        assert rep1.to_dict() == rep2.to_dict()
        assert np.array_equal(r1.dist, r2.dist)

    def test_different_seed_differs(self):
        _, rep1 = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="chaos", seed=0, spec=SPEC
        )
        _, rep2 = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="chaos", seed=1, spec=SPEC
        )
        assert rep1.to_dict() != rep2.to_dict()


# ----------------------------------------------------------------------
# recovery: every plan on every GPU method ends exact
# ----------------------------------------------------------------------
class TestRecovery:
    @pytest.mark.parametrize("plan", ALL_PLANS)
    @pytest.mark.parametrize(
        "method", ["rdbs", "basyn+pro+adwl", "adds", "bl", "near-far",
                   "harish-narayanan"]
    )
    def test_recovered_distances_exact(self, method, plan):
        assert method in GPU_METHODS
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method=method, plan=plan, seed=0, spec=SPEC
        )
        validate_distances(KRON, KRON_SRC, r.dist)
        assert rep.injected > 0
        assert rep.escaped == 0
        assert rep.verified is True
        assert r.faults is rep

    def test_checkpoint_rollback_on_kron(self):
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="kernel-aborts",
            seed=0, spec=SPEC,
        )
        validate_distances(KRON, KRON_SRC, r.dist)
        assert rep.rollbacks >= 1
        assert rep.escaped == 0

    def test_checkpoint_rollback_on_rmat(self):
        r, rep = faulty_sssp(
            RMAT, RMAT_SRC, method="rdbs", plan="kernel-aborts",
            seed=1, spec=SPEC,
        )
        validate_distances(RMAT, RMAT_SRC, r.dist)
        assert rep.rollbacks >= 1
        assert rep.escaped == 0

    def test_rmat_chaos_recovers(self):
        r, rep = faulty_sssp(
            RMAT, RMAT_SRC, method="rdbs", plan="chaos", seed=0, spec=SPEC
        )
        validate_distances(RMAT, RMAT_SRC, r.dist)
        assert rep.escaped == 0

    def test_retry_budget_spent_continues_without_rollback(self):
        """With max_retries=0 an abort is caught but never rolled back:
        the runtime logs the budget exhaustion, resumes from its current
        (still-monotone) state, and the final repair sweeps still deliver
        exact distances."""
        policy = RecoveryPolicy(max_retries=0)
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="kernel-aborts",
            seed=0, spec=SPEC, recovery=policy,
        )
        validate_distances(KRON, KRON_SRC, r.dist)
        assert rep.injected > 0
        assert rep.rollbacks == 0
        assert any(
            "retry budget spent; continuing without rollback" in action
            for action in rep.actions
        )
        assert rep.escaped == 0
        assert rep.verified is True


# ----------------------------------------------------------------------
# recovery off: faults detected but uncorrected
# ----------------------------------------------------------------------
class TestNoRecovery:
    @pytest.mark.parametrize("plan", ["lost-updates", "stale-reads", "bitflips"])
    def test_divergence_detected(self, plan):
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan=plan, seed=0,
            spec=SPEC, recovery=False,
        )
        assert rep.injected > 0
        assert rep.escaped == rep.injected
        assert rep.verified is False
        with pytest.raises(DistanceMismatch):
            validate_distances(KRON, KRON_SRC, r.dist)

    def test_abort_is_fail_stop(self):
        with pytest.raises(InjectedKernelAbort):
            faulty_sssp(
                KRON, KRON_SRC, method="rdbs", plan="kernel-aborts",
                seed=0, spec=SPEC, recovery=False,
            )


# ----------------------------------------------------------------------
# watchdog: async stall degrades BASYN to synchronous execution
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_degrades_to_sync_and_stays_exact(self):
        policy = RecoveryPolicy(watchdog_min_rounds=1, watchdog_factor=0)
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="lost-updates",
            seed=0, spec=SPEC, recovery=policy,
        )
        assert rep.degraded is True
        assert rep.escaped == 0
        validate_distances(KRON, KRON_SRC, r.dist)

    def test_no_degrade_with_roomy_budget(self):
        _, rep = faulty_sssp(
            KRON, KRON_SRC, method="rdbs", plan="lost-updates",
            seed=0, spec=SPEC,
        )
        assert rep.degraded is False


# ----------------------------------------------------------------------
# zero cost with injection off
# ----------------------------------------------------------------------
class TestZeroCostOff:
    def test_counters_identical_under_empty_plan(self):
        plain = rdbs_sssp(KRON, KRON_SRC, spec=SPEC)
        inj = FaultInjector(FaultPlan(name="empty", specs=()))
        with inj.attached():
            observed = rdbs_sssp(KRON, KRON_SRC, spec=SPEC)
        assert inj.report.injected == 0
        assert np.array_equal(plain.dist, observed.dist)
        assert plain.counters.totals == observed.counters.totals
        assert plain.time_ms == observed.time_ms

    def test_recovery_off_runs_have_no_report_side_channel(self):
        r = rdbs_sssp(KRON, KRON_SRC, spec=SPEC)
        assert r.faults is None


# ----------------------------------------------------------------------
# multi-GPU exchange faults
# ----------------------------------------------------------------------
class TestExchangeFaults:
    def _exact(self, dist, ref):
        return np.array_equal(np.isfinite(dist), np.isfinite(ref)) and (
            np.allclose(
                dist[np.isfinite(ref)], ref[np.isfinite(ref)],
                rtol=1e-9, atol=1e-9,
            )
        )

    def test_drop_recovers(self):
        ref = dijkstra(KRON, KRON_SRC).dist
        inj = FaultInjector("exchange-drop")
        with inj.attached():
            r = multi_gpu_sssp(
                KRON, KRON_SRC, num_gpus=2, spec=SPEC, recovery=True
            )
        assert inj.report.injected > 0
        assert r.repair_rounds >= 1
        assert self._exact(r.dist, ref)

    def test_drop_without_recovery_diverges(self):
        ref = dijkstra(KRON, KRON_SRC).dist
        inj = FaultInjector("exchange-drop")
        with inj.attached():
            r = multi_gpu_sssp(
                KRON, KRON_SRC, num_gpus=2, spec=SPEC, recovery=False
            )
        assert inj.report.injected > 0
        assert not self._exact(r.dist, ref)

    def test_duplicate_is_harmless(self):
        ref = dijkstra(KRON, KRON_SRC).dist
        inj = FaultInjector("exchange-dup")
        with inj.attached():
            r = multi_gpu_sssp(
                KRON, KRON_SRC, num_gpus=2, spec=SPEC, recovery=True
            )
        assert inj.report.injected > 0
        assert r.repair_rounds == 0
        assert self._exact(r.dist, ref)


# ----------------------------------------------------------------------
# satellite: shared ConvergenceError
# ----------------------------------------------------------------------
class TestConvergenceError:
    def test_fields_and_message(self):
        exc = ConvergenceError(
            "bucket limit exceeded", method="rdbs", iterations=7,
            frontier=123, delta=0.5,
        )
        assert isinstance(exc, RuntimeError)
        assert exc.reason == "bucket limit exceeded"
        assert exc.method == "rdbs"
        assert exc.iterations == 7
        assert exc.frontier == 123
        assert exc.delta == 0.5
        assert "bucket limit exceeded" in str(exc)
        assert "rdbs" in str(exc)

    def test_pq_delta_batch_limit(self):
        with pytest.raises(ConvergenceError, match="batch limit") as ei:
            pq_delta_star_sssp(path(50), 0, max_batches=1)
        assert ei.value.method == "pq-delta*"
        assert ei.value.iterations == 1

    def test_legacy_runtimeerror_catch_still_works(self):
        with pytest.raises(RuntimeError, match="bucket limit"):
            rdbs_sssp(path(50), 0, delta=0.01, max_buckets=2)


# ----------------------------------------------------------------------
# satellite: bucket-overflow rescale retry
# ----------------------------------------------------------------------
class TestBucketRescale:
    def test_rescale_retry_succeeds(self):
        g = path(50)
        r = rdbs_sssp(g, 0, delta=0.2, max_buckets=35)
        assert r.extra["delta_rescaled"] is True
        assert r.extra["buckets"] <= 35
        validate_distances(g, 0, r.dist)

    def test_hopeless_case_still_raises(self):
        with pytest.raises(ConvergenceError, match="bucket limit"):
            rdbs_sssp(path(50), 0, delta=0.01, max_buckets=2)

    @pytest.mark.parametrize("method", ["sync-delta", "basyn", "rdbs"])
    def test_hopeless_case_names_the_arm(self, method):
        with pytest.raises(ConvergenceError, match="bucket limit") as ei:
            sssp(path(50), 0, method=method, delta=0.01, max_buckets=2)
        assert ei.value.method == method
        assert str(ei.value).startswith(f"{method}: ")

    @pytest.mark.parametrize("method", ["sync-delta", "basyn"])
    def test_rescale_retry_fires_for_every_arm(self, method):
        g = path(50)
        r = sssp(g, 0, method=method, delta=0.2, max_buckets=35)
        assert r.extra["delta_rescaled"] is True
        validate_distances(g, 0, r.dist)

    def test_no_rescale_when_unneeded(self):
        g = path(20)
        r = rdbs_sssp(g, 0, delta=1.0)
        assert r.extra["delta_rescaled"] is False


# ----------------------------------------------------------------------
# satellite: CSR weight validation
# ----------------------------------------------------------------------
class TestWeightValidation:
    def test_nan_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="finite"):
            CSRGraph(
                row=np.array([0, 1, 1]), adj=np.array([1]),
                weights=np.array([np.nan]),
            )

    def test_inf_weight_rejected(self):
        with pytest.raises(GraphValidationError, match="finite"):
            CSRGraph(
                row=np.array([0, 1, 1]), adj=np.array([1]),
                weights=np.array([np.inf]),
            )

    def test_negative_weight_still_rejected(self):
        with pytest.raises(GraphValidationError, match="non-negative"):
            CSRGraph(
                row=np.array([0, 1, 1]), adj=np.array([1]),
                weights=np.array([-1.0]),
            )


# ----------------------------------------------------------------------
# host-side verifier
# ----------------------------------------------------------------------
class TestVerifier:
    def test_accepts_exact_distances(self):
        ref = dijkstra(KRON, KRON_SRC).dist
        assert verify_distances_host(KRON, KRON_SRC, ref) is True

    def test_rejects_underestimate(self):
        ref = dijkstra(KRON, KRON_SRC).dist.copy()
        finite = np.flatnonzero(np.isfinite(ref))
        victim = int(finite[finite != KRON_SRC][0])
        ref[victim] = ref[victim] * 1e-6  # witness-less underestimate
        assert verify_distances_host(KRON, KRON_SRC, ref) is False

    def test_rejects_overestimate(self):
        ref = dijkstra(KRON, KRON_SRC).dist.copy()
        finite = np.flatnonzero(np.isfinite(ref))
        victim = int(finite[finite != KRON_SRC][-1])
        ref[victim] = ref[victim] + 100.0
        assert verify_distances_host(KRON, KRON_SRC, ref) is False
