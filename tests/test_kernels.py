"""The plan/kernel/operator layer: batching, caching, registry, composition."""

import numpy as np
import pytest

from repro.core import (
    DgemmKernel,
    FCISolver,
    HamiltonianOperator,
    ModelSpacePreconditioner,
    MocKernel,
    SigmaPlan,
    SpinOperator,
    davidson_multiroot,
    kernel_names,
    make_kernel,
    sigma_dgemm,
    sigma_moc,
)
from repro.core.kernels import mixed_spin_sigma_stack
from tests.helpers import (
    make_random_problem,
    make_symmetry_problem,
    model_space_guesses,
    stack_of_vectors,
)


@pytest.fixture(scope="module")
def problem():
    # asymmetric space (na != nb, open shell) exercises all four sigma terms
    return make_random_problem(6, 3, 2, seed=7, diag=np.linspace(-2, 2, 6))


@pytest.fixture(scope="module")
def sym_problem():
    return make_symmetry_problem(6, 3, 3, seed=19)


class TestBatchedBitwise:
    """apply_batch must equal the vector-at-a-time loop *bitwise*."""

    @pytest.mark.parametrize("kernel_cls", [DgemmKernel, MocKernel])
    def test_batch_equals_loop(self, problem, kernel_cls):
        plan = SigmaPlan.for_problem(problem)
        kern = kernel_cls(plan)
        C = stack_of_vectors(problem, 4)
        batch = kern.apply_batch(C, kern.make_counters())
        for i in range(4):
            single = kern.apply(C[i], kern.make_counters())
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("kernel_cls", [DgemmKernel, MocKernel])
    def test_batch_equals_loop_closed_shell(self, kernel_cls):
        prob = make_random_problem(5, 2, 2, seed=2)
        kern = kernel_cls(SigmaPlan.for_problem(prob))
        C = stack_of_vectors(prob, 3, seed=10)
        batch = kern.apply_batch(C, kern.make_counters())
        for i in range(3):
            assert np.array_equal(batch[i], kern.apply(C[i], kern.make_counters()))

    def test_narrow_block_columns(self, problem):
        # block width 1 is the hardest case for segment-sum determinism
        kern = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=1)
        C = stack_of_vectors(problem, 3, seed=4)
        batch = kern.apply_batch(C, kern.make_counters())
        for i in range(3):
            assert np.array_equal(batch[i], kern.apply(C[i], kern.make_counters()))

    def test_kernels_match_wrappers(self, problem):
        # the thin sigma_dgemm / sigma_moc wrappers run the same kernels
        C = problem.random_vector(3)
        plan = SigmaPlan.for_problem(problem)
        assert np.array_equal(
            sigma_dgemm(problem, C), DgemmKernel(plan).apply(C, None)
        )
        assert np.array_equal(sigma_moc(problem, C), MocKernel(plan).apply(C, None))

    @pytest.mark.parametrize("lo,hi", [(0, 4), (3, 11), (17, 20)])
    def test_mixed_targets_span_matches_full_sweep(self, problem, lo, hi):
        # a target span fed only its gathered source rows (how the
        # simulated X1 ranks call the sweep) reproduces those rows of the
        # full alpha-beta term
        plan = SigmaPlan.for_problem(problem)
        sa = plan.scatter_a
        C = problem.random_vector(5)[None]
        full = mixed_spin_sigma_stack(plan, C, 3, None)
        elo, ehi = lo * sa.per, hi * sa.per
        rows, src_local = np.unique(sa.source[elo:ehi], return_inverse=True)
        span = mixed_spin_sigma_stack(
            plan, C[:, rows], 3, None,
            targets=(src_local, sa.pq[elo:ehi], sa.sign[elo:ehi]),
        )
        assert span.shape == (1, hi - lo, plan.shape[1])
        assert np.max(np.abs(span - full[:, lo:hi])) < 1e-12


class TestBatchedCounters:
    def test_batch_issues_fewer_dgemms(self, problem):
        plan = SigmaPlan.for_problem(problem)
        kern = DgemmKernel(plan)
        C = stack_of_vectors(problem, 3)
        batched = kern.make_counters()
        kern.apply_batch(C, batched)
        singles = kern.make_counters()
        for i in range(3):
            kern.apply(C[i], singles)
        # identical arithmetic ...
        assert batched.dgemm_flops == singles.dgemm_flops
        # ... through strictly fewer DGEMM invocations (one batched GEMM
        # covers what k separate sweeps did)
        assert batched.dgemm_calls < singles.dgemm_calls
        assert batched.dgemm_calls * 3 == singles.dgemm_calls

    def test_operator_accumulates_counters(self, problem):
        op = HamiltonianOperator(problem)
        op.apply_batch(stack_of_vectors(problem, 3))
        assert op.n_calls == 3
        assert op.n_batches == 1
        assert op.counters.dgemm_calls > 0


class TestPlanCaching:
    def test_for_problem_returns_same_object(self, problem):
        assert SigmaPlan.for_problem(problem) is SigmaPlan.for_problem(problem)
        assert problem.sigma_plan is SigmaPlan.for_problem(problem)

    def test_operators_share_one_plan(self, problem):
        a = HamiltonianOperator(problem, "dgemm")
        b = HamiltonianOperator(problem, "moc")
        assert a.plan is b.plan
        assert a.kernel.plan is b.kernel.plan

    def test_rebuild_mode_does_not_touch_cache(self, problem):
        cached = SigmaPlan.for_problem(problem)
        rebuilt = SigmaPlan(problem, reuse_problem_cache=False)
        assert rebuilt is not cached
        assert SigmaPlan.for_problem(problem) is cached

    def test_default_block_columns_heuristic(self, problem):
        plan = SigmaPlan.for_problem(problem)
        m = plan.default_block_columns()
        assert 1 <= m <= 1024
        # tiny budget clamps down, huge budget clamps at the ceiling
        assert plan.default_block_columns(memory_budget_mb=0) == 1
        assert plan.default_block_columns(memory_budget_mb=10**6) == 1024
        # batching k vectors shrinks the per-column budget share
        assert plan.default_block_columns(batch=64) <= m


class TestKernelRegistry:
    def test_names(self):
        names = kernel_names()
        assert "dgemm" in names and "moc" in names

    def test_make_kernel_unknown_lists_registered(self, problem):
        plan = SigmaPlan.for_problem(problem)
        with pytest.raises(ValueError, match="dgemm"):
            make_kernel("spmv", plan)

    def test_solver_validates_at_construction(self, h2):
        with pytest.raises(ValueError, match="registered sigma kernel"):
            FCISolver(h2, algorithm="spmv")
        with pytest.raises(ValueError, match="moc"):
            FCISolver(h2, algorithm="")


class TestOperatorComposition:
    def test_projection_and_penalty_compose(self, sym_problem):
        prob = sym_problem
        spin_op = SpinOperator(prob)
        op = HamiltonianOperator(prob, spin_penalty=0.5, s2_target=0.0)
        C = prob.random_vector(1)
        expected = prob.project_symmetry(
            sigma_dgemm(prob, C) + 0.5 * spin_op.apply_s2(C)
        )
        assert np.array_equal(op(C), expected)
        # batch path applies the same decoration per vector
        batch = op.apply_batch(np.stack([C, prob.random_vector(2)]))
        assert np.array_equal(batch[0], expected)

    def test_projection_keeps_result_in_irrep(self, sym_problem):
        op = HamiltonianOperator(sym_problem)
        sigma = op(sym_problem.random_vector(0))
        mask = sym_problem.symmetry_mask
        assert np.all(sigma[~mask] == 0.0)

    def test_plain_operator_is_bare_sigma(self, problem):
        op = HamiltonianOperator(problem)
        C = problem.random_vector(5)
        assert np.array_equal(op(C), sigma_dgemm(problem, C))


class TestMultirootBatching:
    def test_multiroot_uses_batched_sigma(self, problem):
        pre = ModelSpacePreconditioner(problem, 12)
        op = HamiltonianOperator(problem)
        guesses = model_space_guesses(problem, pre, 3)
        res = davidson_multiroot(op, guesses, pre, n_roots=3)
        assert res.converged
        # the block solver went through apply_batch: strictly fewer batches
        # than sigma evaluations
        assert op.n_batches < op.n_calls

        # and the batched evaluation spends strictly fewer DGEMM invocations
        # than the same number of single-vector calls would
        singles = HamiltonianOperator(problem)
        for g in guesses:
            singles(g)
        per_single = singles.counters.dgemm_calls / singles.n_calls
        assert op.counters.dgemm_calls < per_single * op.n_calls

    def test_multiroot_energies_match_loop(self, problem):
        pre = ModelSpacePreconditioner(problem, 12)
        guesses = model_space_guesses(problem, pre, 2)
        op = HamiltonianOperator(problem)
        batched = davidson_multiroot(op, guesses, pre, n_roots=2)
        looped = davidson_multiroot(
            lambda C: sigma_dgemm(problem, C), guesses, pre, n_roots=2
        )
        assert np.allclose(batched.energies, looped.energies, atol=1e-9)
