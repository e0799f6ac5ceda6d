"""Sockets-backend cost profile: verb round-trips and sigma throughput.

The TCP coordinator pays a real wire protocol (8-byte length prefix +
pickled tuple, a socket round-trip per ``get``/``fetch_add``) where the
shm backend pays a memory load, so the interesting questions are *how
much* each DDI verb costs over loopback and how much of it the sigma
pipeline actually feels once ``acc`` is fire-and-forget and only
``quiet`` fences.  This benchmark measures both and records them into
``BENCH_sockets.json``:

1. per-verb round-trip latency on a live coordinator (``get`` of a small
   window, ``fetch_add``, and an ``acc`` + ``quiet`` fence), median over
   many iterations;
2. warm-pool sigma wall-clock on the same CI space through ``"sockets"``
   vs ``"shm"``, same worker count and blocking — by construction the
   two results are bitwise-identical, so the delta is pure substrate.

Everything here is **informational only** (``gate_enforced: false``,
never asserted): loopback latency on a shared CI runner is weather, not
trajectory.  The gated correctness bar for this backend lives in the
conformance suite and ``scripts/pool_smoke.py``.

Environment overrides (all optional):

* ``REPRO_SOCKETS_BENCH_SPACE``   — "n,na,nb" FCI space (default "11,5,4",
  C(11,5) x C(11,4) = 152,460 determinants)
* ``REPRO_SOCKETS_BENCH_WORKERS`` — worker count for the sigma comparison
  (default "2")
* ``REPRO_SOCKETS_BENCH_REPEATS`` — timed sigma repetitions (default 3)
* ``REPRO_SOCKETS_BENCH_VERB_ITERS`` — verb round-trips timed (default 300)
"""

import os
import statistics
import time

import numpy as np

from repro.core import CIProblem, SigmaPlan
from repro.parallel import ParallelSigma
from repro.parallel.sockets import Coordinator, SocketComm
from repro.scf.mo import MOIntegrals

from conftest import write_result


def _env(name, default):
    return os.environ.get(f"REPRO_SOCKETS_BENCH_{name}", default)


def _random_problem(n, n_alpha, n_beta, seed=42):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return CIProblem(MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), n_alpha, n_beta)


def _median_us(samples):
    return statistics.median(samples) * 1e6


def _time_verbs(iters):
    """Median loopback round-trip per verb, in microseconds."""
    co = Coordinator({"a": (64, 64)}, n_ranks=1)
    client = SocketComm.connect(co.spec(), 0)
    try:
        window = (0, slice(0, 8))
        patch = np.ones(8)
        # warm-up: connection setup, allocator, first pickles
        for _ in range(20):
            client.get("a", window)
            client.fetch_add()
            client.acc("a", window, patch)
            client.quiet()

        get_s, inc_s, fence_s = [], [], []
        for _ in range(iters):
            t0 = time.perf_counter()
            client.get("a", window)
            get_s.append(time.perf_counter() - t0)
        for _ in range(iters):
            t0 = time.perf_counter()
            client.fetch_add()
            inc_s.append(time.perf_counter() - t0)
        for _ in range(iters):
            t0 = time.perf_counter()
            client.acc("a", window, patch)
            client.quiet()
            fence_s.append(time.perf_counter() - t0)
    finally:
        client.close()
        co.close()
    return {
        "get_us": _median_us(get_s),
        "fetch_add_us": _median_us(inc_s),
        "acc_quiet_us": _median_us(fence_s),
    }


def _time_sigma(problem, C, backend, n_workers, repeats):
    """Best wall-clock of ``repeats`` sigma calls on a warm pool."""
    with ParallelSigma(problem, backend=backend, n_workers=n_workers) as ps:
        out = ps(C)  # warm-up: absorbs spawn + handshake + first-touch
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            ps(C)
            best = min(best, time.perf_counter() - t0)
        gflops = ps.report.gflops_rate()
        bytes_moved = ps.report.bytes_communicated
    return best, gflops, bytes_moved, out


def test_sockets_cost_profile():
    n, na, nb = (int(x) for x in _env("SPACE", "11,5,4").split(","))
    n_workers = int(_env("WORKERS", "2"))
    repeats = int(_env("REPEATS", "3"))
    verb_iters = int(_env("VERB_ITERS", "300"))

    verbs = _time_verbs(verb_iters)

    problem = _random_problem(n, na, nb)
    n_det = problem.shape[0] * problem.shape[1]
    SigmaPlan.for_problem(problem)  # compile tables once, outside the timings
    C = problem.random_vector(0)

    rows = []
    results = {}
    for backend in ("shm", "sockets"):
        t, gflops, bytes_moved, out = _time_sigma(
            problem, C, backend, n_workers, repeats
        )
        results[backend] = (t, out)
        rows.append(
            {
                "backend": backend,
                "seconds": t,
                "gflops": gflops,
                "bytes": bytes_moved,
            }
        )
    # the substrates must agree bit for bit; otherwise the timing ratio
    # compares two different computations
    assert np.array_equal(results["shm"][1], results["sockets"][1])
    ratio = results["sockets"][0] / results["shm"][0]

    lines = [
        f"sockets cost profile: FCI({na}+{nb},{n}), {n_det:,} determinants, "
        f"{n_workers} workers",
        "",
        f"verb round-trip latency over loopback TCP ({verb_iters} iters, median):",
        f"  get (8-double window) {verbs['get_us']:>9.1f} us",
        f"  fetch_add             {verbs['fetch_add_us']:>9.1f} us",
        f"  acc + quiet fence     {verbs['acc_quiet_us']:>9.1f} us",
        "",
        f"{'backend':>8} {'seconds':>10} {'GF/s':>8} {'MB moved':>10}",
    ]
    for r in rows:
        lines.append(
            f"{r['backend']:>8} {r['seconds']:>10.3f} {r['gflops']:>8.2f} "
            f"{r['bytes'] / 1e6:>10.2f}"
        )
    lines.append("")
    lines.append(
        f"sockets/shm sigma time ratio: {ratio:.2f}x "
        "(informational only, never gated)"
    )

    write_result(
        "BENCH_sockets",
        "\n".join(lines),
        rows=rows,
        metrics={
            "space": {"n_orbitals": n, "n_alpha": na, "n_beta": nb},
            "n_determinants": n_det,
            "n_workers": n_workers,
            "verb_latency_us": verbs,
            "sockets_over_shm_ratio": ratio,
            "gate_enforced": False,
        },
    )
