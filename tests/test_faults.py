"""Chaos tests: fault injection, self-healing comms, resilient parallel sigma.

The contract under test is the robustness story end to end:

* a :class:`FaultPlan` is validated and its injector fully deterministic,
* the engine turns deaths into barrier releases and mutex-lease
  revocations, and dropped one-sided ops into the :data:`DROPPED` sentinel,
* the DDI layer retries drops/corruption within its budget (and raises
  :class:`DDICommError` past it),
* :class:`ParallelSigma` under every pinned fault plan still reproduces
  the serial sigma to machine precision,
* with faults disabled the instrumented code paths are bitwise identical
  to the original schedule.
"""

import numpy as np
import pytest

from repro.core import CIProblem, sigma_dgemm
from repro.faults import FaultInjector, FaultPlan, StallWindow
from repro.parallel import ParallelSigma
from repro.parallel.trace import FCISpaceSpec, TraceFCI, homonuclear_diatomic_irreps
from repro.faults import DEFAULT_MUTEX_LEASE
from repro.x1 import DDIArray, DDICommError, DROPPED, Engine, SymmetricHeap, X1Config

from tests.conftest import make_random_mo

# a lossy, jittery interconnect: drops, delays, and mutex-grant jitter
FLAKY_NETWORK = dict(
    drop_get=0.08,
    drop_put=0.08,
    delay_prob=0.10,
    delay_seconds=20e-6,
    mutex_jitter=5e-6,
    op_timeout=2e-3,
)


@pytest.fixture(scope="module")
def ci():
    """Small CI problem + reference serial sigma."""
    mo = make_random_mo(6, seed=31)
    mo.h += np.diag(np.linspace(-3, 2, 6)) * 2
    problem = CIProblem(mo, 3, 3)
    C = problem.random_vector(0)
    return problem, C, sigma_dgemm(problem, C)


@pytest.fixture(scope="module")
def horizon(ci):
    """Virtual elapsed time of a fault-free 4-MSP resilient run."""
    problem, C, _ = ci
    ps = ParallelSigma(problem, X1Config(n_msps=4), resilient=True)
    ps(C)
    return ps.report.elapsed


class TestFaultPlan:
    def test_default_plan_injects_nothing(self):
        assert not FaultPlan().any_faults()

    def test_any_faults(self):
        assert FaultPlan(deaths={1: 1e-4}).any_faults()
        assert FaultPlan(drop_get=0.1).any_faults()
        assert FaultPlan(stalls=[StallWindow(0)]).any_faults()

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probabilities"):
            FaultPlan(drop_get=1.5)
        with pytest.raises(ValueError, match="probabilities"):
            FaultPlan(io_error=-0.1)

    def test_corrupt_mode_validation(self):
        with pytest.raises(ValueError, match="corrupt_mode"):
            FaultPlan(corrupt_mode="garble")

    def test_stall_slowdown_validation(self):
        with pytest.raises(ValueError, match="slowdown"):
            FaultInjector(FaultPlan(stalls=[StallWindow(0, slowdown=0.5)]))


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            fi = FaultInjector(FaultPlan(seed=42, drop_get=0.3, drop_put=0.3))
            decisions.append([fi.should_drop(0, "get") for _ in range(50)])
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_stall_window_scales_compute(self):
        fi = FaultInjector(FaultPlan(stalls=[StallWindow(2, t0=1.0, t1=2.0, slowdown=4.0)]))
        assert fi.op_delay(2, "compute", 0.1, now=1.5) == pytest.approx(0.3)
        assert fi.op_delay(2, "compute", 0.1, now=0.5) == 0.0  # outside window
        assert fi.op_delay(1, "compute", 0.1, now=1.5) == 0.0  # other rank

    def test_corrupt_nan(self):
        fi = FaultInjector(FaultPlan(seed=1, corrupt=1.0, corrupt_mode="nan"))
        out = fi.maybe_corrupt(0, np.ones(8))
        assert np.isnan(out).sum() == 1

    def test_corrupt_bitflip(self):
        fi = FaultInjector(FaultPlan(seed=1, corrupt=1.0, corrupt_mode="bitflip"))
        data = np.ones(8)
        out = fi.maybe_corrupt(0, data)
        assert np.sum(out != data) == 1
        assert np.all(data == 1.0)  # original untouched

    def test_counts_accumulate(self):
        fi = FaultInjector(FaultPlan(seed=0, drop_get=1.0))
        fi.should_drop(0, "get")
        fi.note_recovered("retried_get", 2)
        counts = fi.counts()
        assert counts["faults.injected.dropped_get"] == 1.0
        assert counts["faults.recovered.retried_get"] == 2.0


class TestEngineFaults:
    def test_dropped_get_returns_sentinel(self):
        cfg = X1Config(n_msps=2, msps_per_node=1)  # cross-node -> remote
        heap = SymmetricHeap(2)
        heap.alloc("x", (4,))
        fi = FaultInjector(FaultPlan(drop_get=1.0))
        seen = {}

        def prog(proc, h):
            if proc.rank == 0:
                seen["res"] = yield proc.get(1, "x", key=slice(0, 2))
            else:
                yield proc.compute(1e-6)

        Engine(cfg, heap, faults=fi).run([prog, prog])
        assert seen["res"] is DROPPED
        assert fi.counts()["faults.injected.dropped_get"] == 1.0

    def test_death_releases_barrier(self):
        cfg = X1Config(n_msps=2)
        heap = SymmetricHeap(2)
        fi = FaultInjector(FaultPlan(deaths={0: 1e-4}))
        done = []

        def prog(proc, h):
            if proc.rank == 0:
                yield proc.compute(1.0)  # dies mid-compute, never reaches barrier
            else:
                yield proc.compute(1e-6)
            yield proc.barrier()
            done.append(proc.rank)

        eng = Engine(cfg, heap, faults=fi)
        eng.run([prog, prog])
        assert done == [1]
        assert eng.dead_ranks == frozenset({0})

    def test_mutex_lease_revoked_on_death(self):
        cfg = X1Config(n_msps=2)
        heap = SymmetricHeap(2)
        fi = FaultInjector(FaultPlan(deaths={0: 1e-4}))
        done = []

        def prog(proc, h):
            if proc.rank == 0:
                yield proc.lock(7)
                yield proc.compute(1.0)  # dies holding the mutex
                yield proc.unlock(7)
            else:
                yield proc.compute(1e-5)
                yield proc.lock(7)
                yield proc.unlock(7)
                done.append(proc.rank)

        Engine(cfg, heap, faults=fi).run([prog, prog])
        assert done == [1]
        assert fi.counts()["faults.recovered.mutex_revoked"] == 1.0

    def test_all_ranks_dead_is_not_deadlock(self):
        cfg = X1Config(n_msps=2)
        heap = SymmetricHeap(2)
        fi = FaultInjector(FaultPlan(deaths={0: 1e-4, 1: 1e-4}))

        def prog(proc, h):
            yield proc.compute(1.0)
            yield proc.barrier()

        eng = Engine(cfg, heap, faults=fi)
        eng.run([prog, prog])  # must terminate without RuntimeError
        assert eng.dead_ranks == frozenset({0, 1})


class TestDDIRetry:
    def _array(self, n_msps=4, msps_per_node=1, faults=None):
        heap = SymmetricHeap(n_msps)
        A = DDIArray(heap, "A", 8, 3, msps_per_node=msps_per_node, faults=faults)
        full = np.arange(24, dtype=float).reshape(8, 3)
        for r, (lo, hi) in enumerate(A.ranges):
            A.set_local(r, full[lo:hi])
        return heap, A, full

    def test_flaky_get_retried(self):
        fi = FaultInjector(FaultPlan(seed=3, drop_get=0.4))
        heap, A, full = self._array(faults=fi)
        got = {}

        def prog(proc, h):
            if proc.rank == 0:
                got["rows"] = yield from A.iget_rows(proc, np.arange(8))
            else:
                yield proc.compute(1e-6)

        Engine(X1Config(n_msps=4, msps_per_node=1), heap, faults=fi).run([prog] * 4)
        assert np.allclose(got["rows"], full)
        c = fi.counts()
        assert c.get("faults.injected.dropped_get", 0) > 0
        assert c.get("faults.recovered.retried_get", 0) > 0

    def test_permanent_drop_raises(self):
        fi = FaultInjector(FaultPlan(seed=3, drop_get=1.0, max_retries=3))
        heap, A, _ = self._array(faults=fi)
        err = {}

        def prog(proc, h):
            if proc.rank == 0:
                try:
                    yield from A.iget_rows(proc, np.arange(8))
                except DDICommError as e:
                    err["e"] = e
            else:
                yield proc.compute(1e-6)

        Engine(X1Config(n_msps=4, msps_per_node=1), heap, faults=fi).run([prog] * 4)
        assert "e" in err

    def test_corrupt_payload_refetched(self):
        fi = FaultInjector(FaultPlan(seed=0, corrupt=0.5, corrupt_mode="nan"))
        heap, A, full = self._array(faults=fi)
        got = {}

        def prog(proc, h):
            if proc.rank == 0:
                got["rows"] = yield from A.iget_rows(proc, np.arange(8))
            else:
                yield proc.compute(1e-6)

        Engine(X1Config(n_msps=4, msps_per_node=1), heap, faults=fi).run([prog] * 4)
        assert np.all(np.isfinite(got["rows"]))
        assert np.allclose(got["rows"], full)
        assert fi.counts().get("faults.recovered.refetched_corrupt", 0) > 0

    def test_distinct_mutex_namespaces(self):
        # two DDI arrays on one heap must not share node-mutex ids
        heap = SymmetricHeap(4)
        A = DDIArray(heap, "A", 8, 2, msps_per_node=2)
        B = DDIArray(heap, "B", 8, 2, msps_per_node=2)
        assert A.node_mutex(0) != B.node_mutex(0)


class TestChaosParallelSigma:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    @pytest.mark.parametrize("at", [0.25, 0.6])
    def test_dead_rank_recovers(self, ci, horizon, victim, at):
        problem, C, ref = ci
        fi = FaultInjector(FaultPlan(seed=1, deaths={victim: at * horizon}))
        out = ParallelSigma(problem, X1Config(n_msps=4), faults=fi)(C)
        assert np.max(np.abs(out - ref)) < 1e-10
        c = fi.counts()
        assert c.get("faults.injected.rank_death", 0) == 1.0
        if at == 0.6:
            # deep enough into the run that the victim always leaves
            # uncommitted work behind for the survivors to requeue
            assert c.get("faults.recovered.task_requeue", 0) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flaky_network_recovers(self, ci, seed):
        problem, C, ref = ci
        fi = FaultInjector(FaultPlan(seed=seed, **FLAKY_NETWORK))
        out = ParallelSigma(problem, X1Config(n_msps=4), faults=fi)(C)
        assert np.max(np.abs(out - ref)) < 1e-10
        assert fi.counts().get("faults.recovered.retried_get", 0) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corrupt_payload_recovers(self, ci, seed):
        problem, C, ref = ci
        fi = FaultInjector(FaultPlan(seed=seed, corrupt=0.2, corrupt_mode="nan"))
        out = ParallelSigma(problem, X1Config(n_msps=4), faults=fi)(C)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_bitflip_payload_deterministic(self, ci):
        # finite bit-flips are indistinguishable from valid data at the
        # comms layer (the solver watchdog owns them); the contract here is
        # that the run completes, stays finite where NaN flips occurred, and
        # is reproducible bit-for-bit from the seed
        problem, C, _ = ci
        outs = []
        for _ in range(2):
            fi = FaultInjector(FaultPlan(seed=2, corrupt=0.2, corrupt_mode="bitflip"))
            outs.append(ParallelSigma(problem, X1Config(n_msps=4), faults=fi)(C))
        assert np.array_equal(outs[0], outs[1])

    def test_slow_rank_exact(self, ci):
        problem, C, ref = ci
        fi = FaultInjector(FaultPlan(seed=0, stalls=[StallWindow(2, slowdown=8.0)]))
        ps = ParallelSigma(problem, X1Config(n_msps=4), faults=fi)
        out = ps(C)
        assert np.max(np.abs(out - ref)) < 1e-10
        assert fi.counts().get("faults.injected.stall", 0) > 0

    def test_combined_death_and_flaky(self, ci, horizon):
        problem, C, ref = ci
        for seed in range(2):
            fi = FaultInjector(
                FaultPlan(seed=seed, deaths={seed % 4: 0.4 * horizon}, **FLAKY_NETWORK)
            )
            out = ParallelSigma(problem, X1Config(n_msps=4), faults=fi)(C)
            assert np.max(np.abs(out - ref)) < 1e-10

    def test_two_simultaneous_deaths(self, ci):
        problem, C, ref = ci
        fi = FaultInjector(FaultPlan(deaths={1: 2e-4, 3: 4e-4}))
        out = ParallelSigma(problem, X1Config(n_msps=8), faults=fi)(C)
        assert np.max(np.abs(out - ref)) < 1e-10
        assert fi.counts()["faults.injected.rank_death"] == 2.0


class TestDisabledHooksBitwise:
    def test_sigma_and_schedule_identical(self, ci):
        """Idle fault hooks must not perturb a single bit of the result or
        a single virtual nanosecond of the schedule."""
        problem, C, _ = ci
        ps_plain = ParallelSigma(problem, X1Config(n_msps=4))
        ps_hooked = ParallelSigma(
            problem,
            X1Config(n_msps=4),
            faults=FaultInjector(FaultPlan()),
            resilient=False,
        )
        a = ps_plain(C)
        b = ps_hooked(C)
        assert np.array_equal(a, b)
        assert ps_plain.report.elapsed == ps_hooked.report.elapsed

    def test_resilient_faultfree_matches_serial(self, ci):
        problem, C, ref = ci
        out = ParallelSigma(problem, X1Config(n_msps=4), resilient=True)(C)
        assert np.max(np.abs(out - ref)) < 1e-10


class TestTraceModeFaults:
    @pytest.fixture(scope="class")
    def spec(self):
        return FCISpaceSpec(
            n_orbitals=28,
            n_alpha=6,
            n_beta=6,
            point_group="D2h",
            orbital_irreps=homonuclear_diatomic_irreps(28, seed=0),
            name="C2-like",
        )

    def test_idle_hooks_identical(self, spec):
        cfg = X1Config(n_msps=8)
        base = TraceFCI(spec, cfg).run_iteration()
        hooked = TraceFCI(spec, cfg, faults=FaultInjector(FaultPlan())).run_iteration()
        assert base.elapsed == hooked.elapsed

    def test_flaky_io_retried(self, spec):
        cfg = X1Config(n_msps=8)
        base = TraceFCI(spec, cfg).run_iteration()
        fi = FaultInjector(FaultPlan(seed=3, io_error=0.2))
        r = TraceFCI(spec, cfg, faults=fi).run_iteration()
        assert r.elapsed >= base.elapsed
        c = fi.counts()
        assert c.get("faults.injected.io_error", 0) > 0
        assert c.get("faults.recovered.retried_io", 0) > 0


def test_default_mutex_lease_positive():
    assert DEFAULT_MUTEX_LEASE > 0
