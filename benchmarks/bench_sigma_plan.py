"""Sigma plan benchmark: compile-once-and-cache vs rebuild-per-call.

Prices the tentpole of the kernel/operator refactor:

* **plan caching** — a repeated-evaluation workload (every eigensolver is
  one) pays the table compilation once via ``SigmaPlan.for_problem``;
  the pre-refactor behaviour recompiled the sorted mixed-spin gather
  tables, the W/G supermatrices, and the one-electron CSR operators
  inside every sigma call, reproduced here with
  ``SigmaPlan(problem, reuse_problem_cache=False)``.  Gate: >= 1.3x.
* **batched application** — ``apply_batch`` over a k-stack of CI vectors
  must issue *strictly fewer* DGEMM invocations than k single-vector
  calls (the same arithmetic through k-times-larger right-hand sides).
* **vectorized table build** — the single-excitation tables every plan
  starts from come from vectorized NumPy builders; timed against the
  per-string loop oracles they replaced on a 1716-string space
  (13 orbitals, 6 electrons).  Gate: faster than the loop.
"""

import time

import numpy as np

from repro.core import CIProblem, DgemmKernel, SigmaPlan
from repro.core.excitations import (
    _loop_single_excitation_arrays,
    _single_excitation_arrays,
)
from repro.core.strings import StringSpace
from repro.scf.mo import MOIntegrals

from conftest import write_result


def _random_problem(n, n_alpha, n_beta, seed=42):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T) + np.diag(np.linspace(-3, 2, n)) * 2
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return CIProblem(MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), n_alpha, n_beta)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_workload(problem, n_iter=8, repeats=5):
    """(cached_seconds, rebuild_seconds) for n_iter sigma evaluations."""
    C = problem.random_vector(0)
    plan = SigmaPlan.for_problem(problem)

    def cached():
        kern = DgemmKernel(plan)
        for _ in range(n_iter):
            kern.apply(C, None)

    def rebuild():
        # the pre-refactor hot path: every call recompiles the tables
        for _ in range(n_iter):
            fresh = SigmaPlan(problem, reuse_problem_cache=False)
            DgemmKernel(fresh).apply(C, None)

    cached()  # warm the problem's lazy caches before timing either path
    return _best_of(cached, repeats), _best_of(rebuild, repeats)


def test_plan_cache_speedup_and_batched_dgemm_counts():
    lines = ["sigma plan: cached vs rebuild-per-call (DGEMM kernel)"]
    lines.append(f"{'space':>16} {'cached':>10} {'rebuild':>10} {'speedup':>8}")
    rows = []
    speedups = {}
    for n, na, nb in [(8, 4, 4), (10, 5, 2), (12, 6, 1)]:
        prob = _random_problem(n, na, nb)
        t_cached, t_rebuild = _time_workload(prob)
        s = t_rebuild / t_cached
        speedups[(n, na, nb)] = s
        rows.append(
            {
                "n": n,
                "n_alpha": na,
                "n_beta": nb,
                "cached_s": t_cached,
                "rebuild_s": t_rebuild,
                "speedup": s,
            }
        )
        lines.append(
            f"FCI({na}+{nb},{n}){'':>3} {t_cached:10.4f} {t_rebuild:10.4f} {s:7.2f}x"
        )

    # gate on the string-heavy workload where table compilation dominates
    gated = speedups[(12, 6, 1)]

    # batched multi-vector sigma: strictly fewer DGEMM invocations than
    # k single-vector calls, identical arithmetic
    prob = _random_problem(8, 4, 4)
    kern = DgemmKernel(SigmaPlan.for_problem(prob))
    k = 4
    stack = np.stack([prob.random_vector(i) for i in range(k)])
    batched = kern.make_counters()
    kern.apply_batch(stack, batched)
    singles = kern.make_counters()
    for i in range(k):
        kern.apply(stack[i], singles)
    lines.append("")
    lines.append(
        f"batched sigma over k={k} vectors: {int(batched.dgemm_calls)} DGEMM "
        f"invocations vs {int(singles.dgemm_calls)} for {k} single calls "
        f"(flops identical: {batched.dgemm_flops == singles.dgemm_flops})"
    )

    # vectorized excitation-table build vs the per-string loop oracle
    space = StringSpace(13, 6)
    t_loop = _best_of(lambda: _loop_single_excitation_arrays(space), 2)
    t_vec = _best_of(lambda: _single_excitation_arrays(space), 2)
    build_speedup = t_loop / t_vec
    lines.append(
        f"single-excitation table build ({space.size} strings): vectorized "
        f"{t_vec:.4f}s vs loop {t_loop:.4f}s -> {build_speedup:.1f}x"
    )

    write_result(
        "BENCH_sigma_plan",
        "\n".join(lines),
        rows=rows,
        metrics={
            "gated_speedup": gated,
            "gate": 1.3,
            "batch_k": k,
            "batched_dgemm_calls": int(batched.dgemm_calls),
            "single_dgemm_calls": int(singles.dgemm_calls),
            "flops_identical": bool(batched.dgemm_flops == singles.dgemm_flops),
            "table_build_vectorized_seconds": t_vec,
            "table_build_loop_seconds": t_loop,
            "table_build_speedup": build_speedup,
        },
    )
    assert gated >= 1.3, f"plan-cache speedup {gated:.2f}x below the 1.3x gate"
    assert batched.dgemm_calls < singles.dgemm_calls
    assert batched.dgemm_flops == singles.dgemm_flops
    # the vectorized builders replace the per-string loops outright
    assert build_speedup > 1.0
