"""Numeric-mode parallel sigma must agree with the serial kernels exactly."""

import numpy as np
import pytest

from repro.core import ModelSpacePreconditioner, davidson_solve, sigma_dgemm
from repro.parallel import ParallelReport, ParallelSigma
from repro.x1 import X1Config
from repro.x1.engine import RankStats
from tests.helpers import make_random_problem


@pytest.fixture(scope="module")
def problem():
    return make_random_problem(6, 3, 3, seed=31, diag=np.linspace(-3, 2, 6) * 2)


class TestParallelSigma:
    @pytest.mark.parametrize("n_msps", [1, 2, 3, 4, 8])
    def test_matches_serial(self, problem, n_msps):
        C = problem.random_vector(0)
        ref = sigma_dgemm(problem, C)
        ps = ParallelSigma(problem, X1Config(n_msps=n_msps), block_columns=7)
        out = ps(C)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_open_shell(self):
        prob = make_random_problem(5, 3, 1, seed=3)
        C = prob.random_vector(1)
        ref = sigma_dgemm(prob, C)
        out = ParallelSigma(prob, X1Config(n_msps=3))(C)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_report_accumulates(self, problem):
        ps = ParallelSigma(problem, X1Config(n_msps=4))
        C = problem.random_vector(2)
        ps(C)
        ps(C)
        assert ps.report.n_calls == 2
        assert ps.report.elapsed > 0
        assert ps.report.flops > 0
        assert "alpha-beta" in ps.report.phase_times
        assert "beta-beta" in ps.report.phase_times

    def test_communication_happens(self, problem):
        ps = ParallelSigma(problem, X1Config(n_msps=4))
        ps(problem.random_vector(0))
        assert ps.report.bytes_communicated > 0

    def test_shape_validation(self, problem):
        ps = ParallelSigma(problem, X1Config(n_msps=2))
        with pytest.raises(ValueError):
            ps(np.zeros((2, 2)))

    def test_more_ranks_than_rows(self):
        prob = make_random_problem(4, 2, 2, seed=9)  # 6x6
        C = prob.random_vector(0)
        ref = sigma_dgemm(prob, C)
        out = ParallelSigma(prob, X1Config(n_msps=8))(C)
        assert np.max(np.abs(out - ref)) < 1e-10


class TestParallelReportMerge:
    """merge() is called once per sigma; statistics must stay meaningful."""

    @staticmethod
    def _stats(finish_times):
        return [
            RankStats(flops=100.0, bytes_sent=8.0, bytes_received=8.0,
                      finish_time=t, phase_times={"alpha-beta": t})
            for t in finish_times
        ]

    def test_load_imbalance_is_max_not_sum(self):
        report = ParallelReport()
        report.merge(self._stats([1.0, 2.0]), elapsed=2.0, imbalance=0.5)
        report.merge(self._stats([1.0, 1.2]), elapsed=1.2, imbalance=0.1)
        report.merge(self._stats([1.0, 1.8]), elapsed=1.8, imbalance=0.4)
        # worst call dominates; a sum would give 1.0 here and grow without
        # bound as calls accumulate
        assert report.load_imbalance == 0.5
        assert report.n_calls == 3

    def test_additive_fields_still_accumulate(self):
        report = ParallelReport()
        report.merge(self._stats([1.0]), elapsed=1.0, imbalance=0.0)
        report.merge(self._stats([2.0]), elapsed=2.0, imbalance=0.0)
        assert report.elapsed == 3.0
        assert report.flops == 200.0
        assert report.bytes_communicated == 32.0
        assert report.phase_times["alpha-beta"] == 3.0

    def test_real_runs_keep_imbalance_bounded(self, problem):
        C = problem.random_vector(2)
        once = ParallelSigma(problem, X1Config(n_msps=4))
        once(C)
        single = once.report.load_imbalance
        thrice = ParallelSigma(problem, X1Config(n_msps=4))
        for _ in range(3):
            thrice(C)
        # deterministic schedule: every call has the same imbalance, and the
        # merged statistic must equal it (a sum would triple it)
        assert thrice.report.load_imbalance == single
        assert thrice.report.n_calls == 3


class TestParallelEigensolve:
    def test_davidson_on_parallel_sigma(self, problem):
        # the whole eigensolve can run on the simulated machine
        pre = ModelSpacePreconditioner(problem, 15)
        ps = ParallelSigma(problem, X1Config(n_msps=4))
        res = davidson_solve(lambda C: ps(C), pre.ground_state_guess(), pre)
        ref = davidson_solve(
            lambda C: sigma_dgemm(problem, C), pre.ground_state_guess(), pre
        )
        assert res.converged
        assert abs(res.energy - ref.energy) < 1e-9


class TestVirtualTimeAccounting:
    """The simulated X1's cost-model charges, pinned exactly.

    The ranks' numerics run the serial kernel's sweeps, but what they are
    *charged* comes from the X1 cost model alone; these figures were
    recorded before the ranks' arithmetic moved onto the shared sweeps, so
    any drift means a numeric change leaked into the virtual-time model.
    """

    PINS = {
        False: (
            0.0005987858034422307,
            7436700.0,
            34800.0,
            {
                "alpha-alpha": 1.5332922772547686e-05,
                "alpha-beta": 0.00048622939875786773,
                "beta-beta": 1.4674819118153212e-06,
            },
        ),
        True: (
            0.0006594333097462886,
            7436700.0,
            42864.0,
            {
                "alpha-alpha": 1.8336738157163047e-05,
                "alpha-alpha:recover": 3.0649846153846098e-06,
                "alpha-beta": 0.0004922370295270984,
                "alpha-beta:recover": 3.064984615384664e-06,
                "beta-beta": 3.33511129279633e-06,
                "beta-beta:recover": 3.0649846153846166e-06,
            },
        ),
    }

    @pytest.mark.parametrize("resilient", [False, True], ids=["faultfree", "resilient"])
    def test_report_is_exactly_the_pinned_charge(self, resilient):
        prob = make_random_problem(6, 3, 2, seed=23)
        C = prob.random_vector(5)
        ps = ParallelSigma(prob, X1Config(n_msps=3), resilient=resilient)
        out = ps(C)
        assert np.max(np.abs(out - sigma_dgemm(prob, C))) < 1e-10
        elapsed, flops, moved, phases = self.PINS[resilient]
        assert ps.report.elapsed == elapsed
        assert ps.report.flops == flops
        assert ps.report.bytes_communicated == moved
        assert ps.report.phase_times == phases
