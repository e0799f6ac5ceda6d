"""Reusable backend-conformance harness for the real-process DDI substrates.

One suite, many substrates: :class:`BackendConformanceSuite` states what
*any* execution backend's communication layer must guarantee — the five
DDI verbs' semantics, fetch_add atomicity under contention, barrier and
quiet ordering, the decomposition's disjoint-owned-window invariants, and
the bitwise sigma contract for every worker count — and an *adapter*
binds it to a concrete substrate (POSIX shared memory, a TCP
coordinator).  Registering a new backend for conformance is one adapter
class and one pytest param; the whole suite applies for free.

The verbs are exercised through a :class:`VerbGroup`: the parent-side
endpoint (``ShmComm`` / ``Coordinator`` — deliberately the same method
surface) plus client endpoints opened from worker threads the way real
worker processes would open them (``ShmComm.attach`` /
``SocketComm.connect``).

Leak checking: :func:`leak_snapshot` / :func:`assert_no_new_leaks`
capture the visible residue a backend can leave behind — ``/dev/shm``
segments and live TCP coordinators — and are asserted around every
conformance test (and, module-scoped, around the per-backend test files).
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.core import sigma_dgemm
from repro.parallel import ParallelSigma, build_sigma_decomposition
from repro.parallel.shm.comm import ShmComm
from repro.parallel.sockets import Coordinator, SocketComm
from repro.parallel.sockets.coordinator import LIVE_COORDINATORS
from tests.helpers import make_random_problem

__all__ = [
    "ADAPTERS",
    "BackendConformanceSuite",
    "ShmAdapter",
    "SocketsAdapter",
    "VerbGroup",
    "assert_no_new_leaks",
    "leak_snapshot",
]

# the conformance sigma lane shares one block width with its serial
# reference: bitwise identity is defined at fixed blocking
BLOCK_COLUMNS = 3


# -- leak accounting ----------------------------------------------------------

def leak_snapshot() -> dict:
    """What a backend could leave behind: shm segments, live coordinators."""
    shm = set()
    if os.path.isdir("/dev/shm"):
        shm = set(glob.glob("/dev/shm/repro-*"))
    return {"shm_segments": shm, "coordinators": set(LIVE_COORDINATORS)}


def assert_no_new_leaks(before: dict) -> None:
    after = leak_snapshot()
    leaked_shm = after["shm_segments"] - before["shm_segments"]
    assert not leaked_shm, f"leaked shared-memory segments: {sorted(leaked_shm)}"
    leaked_co = after["coordinators"] - before["coordinators"]
    assert not leaked_co, (
        f"leaked {len(leaked_co)} live TCP coordinator(s) "
        f"(ports {[c.port for c in leaked_co]})"
    )


# -- substrate adapters -------------------------------------------------------

class VerbGroup:
    """A parent verb endpoint plus lazily opened client endpoints."""

    def __init__(self, parent, connect):
        self.parent = parent
        self._connect = connect
        self.clients: list = []

    def connect(self, rank: int | None = None):
        client = self._connect(rank)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        self.clients = []
        self.parent.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ShmAdapter:
    """POSIX shared memory: clients attach the parent's named segments."""

    name = "shm"

    def open_group(self, arrays: dict, n_clients: int = 0) -> VerbGroup:
        ctx = mp.get_context("spawn")
        comm = ShmComm(ctx, arrays=arrays, n_ranks=n_clients)
        spec = comm.spec()
        return VerbGroup(comm, lambda rank: ShmComm.attach(spec))


class SocketsAdapter:
    """TCP coordinator: clients dial the heap server's data port."""

    name = "sockets"

    def open_group(self, arrays: dict, n_clients: int = 0) -> VerbGroup:
        co = Coordinator(arrays, n_ranks=n_clients)
        spec = co.spec()
        return VerbGroup(co, lambda rank: SocketComm.connect(spec, rank))


ADAPTERS = {"shm": ShmAdapter, "sockets": SocketsAdapter}


# -- the suite ----------------------------------------------------------------

class BackendConformanceSuite:
    """What every real-process execution backend must guarantee.

    Subclass with an ``adapter`` fixture returning a substrate adapter;
    every test then runs identically against that substrate.
    """

    # ---- verb semantics, parent side ----------------------------------------
    def test_get_returns_zeroed_array_and_windows(self, adapter):
        with adapter.open_group({"a": (3, 4), "b": (2,)}) as g:
            full = np.asarray(g.parent.get("a"))
            assert full.shape == (3, 4)
            assert np.all(full == 0.0)
            window = np.asarray(g.parent.get("a", (1, slice(2, 4))))
            assert window.shape == (2,)

    def test_acc_accumulates_windowed(self, adapter):
        with adapter.open_group({"b": (2,)}) as g:
            g.parent.acc("b", slice(None), np.array([1.0, 2.0]))
            g.parent.acc("b", slice(0, 1), np.array([0.5]))
            assert np.array_equal(np.asarray(g.parent.get("b")), [1.5, 2.0])

    def test_fetch_add_returns_old_value_and_resets(self, adapter):
        with adapter.open_group({"a": (1,)}) as g:
            assert g.parent.fetch_add() == 0
            assert g.parent.fetch_add(5) == 1
            assert g.parent.fetch_add() == 6
            g.parent.reset_counter()
            assert g.parent.fetch_add() == 0

    def test_zero_resets_named_arrays(self, adapter):
        with adapter.open_group({"a": (2, 2), "b": (2,)}) as g:
            g.parent.acc("a", None, np.full((2, 2), 3.0))
            g.parent.acc("b", None, np.full((2,), 4.0))
            g.parent.zero("a")
            assert np.all(np.asarray(g.parent.get("a")) == 0.0)
            assert np.all(np.asarray(g.parent.get("b")) == 4.0)

    def test_parent_only_barrier_and_quiet(self, adapter):
        with adapter.open_group({"a": (1,)}) as g:
            g.parent.barrier(timeout=5.0)  # parent is the only party
            g.parent.quiet()

    # ---- verb semantics, over the client path --------------------------------
    def test_client_get_sees_parent_stores(self, adapter):
        with adapter.open_group({"a": (3, 4)}, n_clients=1) as g:
            np.asarray(g.parent.get("a"))[...] = 7.0
            client = g.connect(0)
            got = client.get("a")
            assert np.all(np.asarray(got) == 7.0)
            got = client.get("a", (slice(0, 2), slice(1, 3)))
            assert np.asarray(got).shape == (2, 2)

    def test_client_acc_fenced_by_quiet(self, adapter):
        with adapter.open_group({"a": (4, 4)}, n_clients=2) as g:
            c0, c1 = g.connect(0), g.connect(1)
            # disjoint owned windows, the decomposition's write pattern
            c0.acc("a", (slice(None), slice(0, 2)), np.full((4, 2), 1.0))
            c1.acc("a", (slice(None), slice(2, 4)), np.full((4, 2), 2.0))
            c0.quiet()
            c1.quiet()
            out = np.asarray(g.parent.get("a"))
            assert np.all(out[:, :2] == 1.0) and np.all(out[:, 2:] == 2.0)

    def test_client_acc_error_raises_at_or_before_quiet(self, adapter):
        with adapter.open_group({"a": (2, 2)}, n_clients=1) as g:
            client = g.connect(0)
            with pytest.raises(Exception):
                client.acc("no-such-array", None, np.zeros((2, 2)))
                client.quiet()

    def test_fetch_add_atomic_under_contention(self, adapter):
        n_clients, per_client = 4, 50
        with adapter.open_group({"a": (1,)}, n_clients=n_clients) as g:
            clients = [g.connect(r) for r in range(n_clients)]
            claims: list[list[int]] = [[] for _ in range(n_clients)]
            errors: list = []

            def hammer(idx: int) -> None:
                try:
                    for _ in range(per_client):
                        claims[idx].append(clients[idx].fetch_add())
                except Exception as exc:  # pragma: no cover - diagnostic path
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors, errors
            flat = [c for per in claims for c in per]
            # atomicity: every ticket issued exactly once, no gaps, no dupes
            assert sorted(flat) == list(range(n_clients * per_client))
            # per-client monotonicity: the counter never goes backwards
            for per in claims:
                assert per == sorted(per)

    def test_barrier_waits_for_every_party(self, adapter):
        hold = 0.3
        with adapter.open_group({"a": (1,)}, n_clients=1) as g:
            client = g.connect(0)

            def late_arrival() -> None:
                time.sleep(hold)
                client.barrier(10.0)

            t = threading.Thread(target=late_arrival)
            start = time.monotonic()
            t.start()
            g.parent.barrier(timeout=10.0)  # must block until the client joins
            elapsed = time.monotonic() - start
            t.join(timeout=10.0)
            assert elapsed >= hold * 0.8, (
                f"parent cleared the barrier after {elapsed:.3f}s, before the "
                f"other party arrived at {hold:.3f}s"
            )

    def test_quiet_fences_a_burst_of_accs(self, adapter):
        with adapter.open_group({"a": (8, 8)}, n_clients=1) as g:
            client = g.connect(0)
            for i in range(8):
                client.acc("a", (i, slice(None)), np.full((8,), float(i + 1)))
            client.quiet()  # after the fence, every prior acc is applied
            out = np.asarray(g.parent.get("a"))
            for i in range(8):
                assert np.all(out[i] == float(i + 1))

    # ---- decomposition invariants -------------------------------------------
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_owned_windows_disjoint_and_cover(self, adapter, n_workers):
        problem = make_random_problem(5, 3, 2, seed=23)
        from repro.core.plans import SigmaPlan

        plan = SigmaPlan.for_problem(problem)
        decomp = build_sigma_decomposition(plan, n_workers, BLOCK_COLUMNS)
        na, nb = plan.shape

        # same-spin round-robin: every column owned by exactly one rank
        for owned_blocks, n_cols in (
            (decomp.owned_aa_blocks, nb),
            (decomp.owned_bb_blocks, na),
        ):
            owned = [
                col
                for rank in range(n_workers)
                for lo, hi in owned_blocks(rank)
                for col in range(lo, hi)
            ]
            assert sorted(owned) == list(range(n_cols))
            assert len(owned) == len(set(owned))

        # mixed-spin task spans: disjoint owned windows covering all columns
        spans = [decomp.task_column_span(t) for t in range(len(decomp.tasks))]
        cols = [c for lo, hi in spans for c in range(lo, hi)]
        assert sorted(cols) == list(range(nb))
        assert len(cols) == len(set(cols))

    # ---- the bitwise sigma contract -----------------------------------------
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_sigma_bitwise_identical_to_serial(self, adapter, n_workers):
        problem = make_random_problem(5, 2, 2, seed=29)
        C = problem.random_vector(1)
        ref = sigma_dgemm(problem, C, block_columns=BLOCK_COLUMNS)
        with ParallelSigma(
            problem,
            backend=adapter.name,
            n_workers=n_workers,
            block_columns=BLOCK_COLUMNS,
        ) as ps:
            out = ps(C)
            assert np.array_equal(out, ref), (
                f"{adapter.name} sigma not bitwise-equal to serial "
                f"sigma_dgemm at n_workers={n_workers}"
            )
            # and stable across repeated evaluations on the same pool
            assert np.array_equal(ps(C), ref)

    # ---- backend options ----------------------------------------------------
    def test_unknown_backend_option_is_refused(self, adapter):
        problem = make_random_problem(5, 2, 2, seed=29)
        with pytest.raises(TypeError, match="n_wrokers"):
            ParallelSigma(
                problem,
                backend=adapter.name,
                n_workers=1,
                backend_options={"n_wrokers": 4},
            )

    def test_straggle_option_reaches_the_workers(self, adapter):
        """``straggle_seconds`` sleeps inside every claimed mixed-spin task,
        so one sigma lasts at least the busiest worker's share of
        ``n_tasks * straggle`` — a lower bound only a forwarded option meets."""
        problem = make_random_problem(5, 2, 2, seed=29)
        C = problem.random_vector(1)
        n_workers, straggle = 2, 0.1
        with ParallelSigma(
            problem,
            backend=adapter.name,
            n_workers=n_workers,
            block_columns=BLOCK_COLUMNS,
            backend_options={"straggle_seconds": straggle},
        ) as ps:
            ps(C)  # spawn outside the timed call
            n_tasks = len(ps.backend._engine.decomposition.tasks)
            t0 = time.perf_counter()
            ps(C)
            wall = time.perf_counter() - t0
        assert wall >= straggle * n_tasks / n_workers
