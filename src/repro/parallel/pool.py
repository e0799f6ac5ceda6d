"""One worker-pool engine for the real-process backends (shm and sockets).

The paper writes its parallel sigma once, against DDI's one-sided verbs,
and keeps the transport under those verbs a separate layer.  This module
is that split for the two real-process substrates: everything about
running a persistent pool of sigma workers lives here once, and a
transport — :class:`~repro.parallel.shm.engine.ShmSigmaEngine` over POSIX
shared memory, :class:`~repro.parallel.sockets.engine.SocketSigmaEngine`
over a TCP coordinator — supplies only its heap, its control channels and
the way a rank's outputs reach the parent.

Decided here, for both transports:

* **spawn** — every BLAS/OpenMP pool is pinned through the environment
  around ``Process.start`` (and tightened in the worker by
  :func:`pin_blas_threads`), so P workers don't oversubscribe P*threads
  cores;
* **payload** — each worker receives the :class:`~repro.core.plans
  .SigmaPlan` and the :class:`~repro.parallel.rankwork.SigmaDecomposition`
  once, and serves ``("sigma", seq)`` requests until ``("stop",)``
  (:func:`serve_requests`), answering with the stats :func:`run_sigma`
  measures around :func:`~repro.parallel.rankwork.run_rank_sigma`;
* **collect** — one loop waits on every pending rank at once
  (:func:`multiprocessing.connection.wait` takes pipe connections and
  sockets alike).  A rank is dead on EOF, on process exit, or after
  ``heartbeat_budget`` seconds of silence (infinite on shm, whose workers
  don't heartbeat); the call then raises a ``RuntimeError`` naming the
  rank, never hanging past ``timeout``;
* **reduce** — the parent sums the four owned outputs one → aa →
  bb\\ :sup:`T` → mix in the serial kernel's accumulation order, which
  (with the decomposition's whole canonical column blocks) makes sigma
  bitwise-identical to ``sigma_dgemm`` for any worker count, and
  assembles the per-rank :class:`~repro.x1.engine.RankStats` and the load
  imbalance;
* **lifecycle** — the closed-engine guard, :meth:`PoolEngine.close`
  (stop, join, terminate, release the heap) and the residency views.
"""

from __future__ import annotations

import math
import os
import threading
import time
import traceback
from multiprocessing.connection import wait

import numpy as np

from ..core.kernels import SigmaCounters
from ..core.plans import SigmaPlan
from ..x1.engine import RankStats
from .backend import SigmaRun
from .rankwork import build_sigma_decomposition, run_rank_sigma

__all__ = ["PoolEngine", "pin_blas_threads", "run_sigma", "serve_requests"]

# every BLAS/OpenMP runtime numpy might load reads one of these at startup
_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# the heap arrays every transport serves, in segment_stores order
_HEAP = ("C", "one", "aa", "bb", "mix")


# -- worker side ----------------------------------------------------------------


def pin_blas_threads(n: int):
    """Best-effort runtime cap on this worker's BLAS pool size.

    Returns the threadpoolctl limiter (keep it alive for the process
    lifetime) or None when threadpoolctl isn't installed — the env-var
    pinning the engine applied before spawn still holds either way.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    try:
        return threadpool_limits(limits=n)
    except Exception:
        return None


def run_sigma(rank: int, comm, payload: dict, outputs, ship) -> dict:
    """One sigma request on one worker; returns the rank's wall-clock stats.

    ``outputs()`` returns the arrays the rank program writes (the shared
    segments themselves, or local buffers); ``ship(outs, claimed, counters,
    phase_times)`` makes this rank's owned windows visible to the parent,
    fenced with ``quiet``, and returns ``(bytes_sent, bytes_received)`` in
    the transport's own accounting.
    """
    counters = SigmaCounters()
    phase_times: dict[str, float] = {}
    t_start = time.perf_counter()
    C_stack = comm.get("C")[None]
    outs = outputs()
    claimed = run_rank_sigma(
        rank,
        payload["plan"],
        C_stack,
        outs,
        comm.fetch_add,
        payload["decomposition"],
        counters=counters,
        phase_times=phase_times,
        per_task_seconds=payload["straggle_seconds"],
    )
    bytes_sent, bytes_received = ship(outs, claimed, counters, phase_times)
    return {
        "phase_times": phase_times,
        "busy": time.perf_counter() - t_start,
        "bytes_sent": bytes_sent,
        "bytes_received": bytes_received,
        **counters.as_dict(),
    }


def serve_requests(channel, closed, work) -> None:
    """A worker's request loop on its control channel.

    ``("sigma", seq)`` runs ``work()`` and replies ``("done", seq, stats)``
    or ``("error", seq, traceback_text)``; ``("stop",)`` or a ``closed``
    exception on receive (the engine went away) ends the loop.
    """
    while True:
        try:
            msg = channel.recv()
        except closed:
            return
        if msg[0] == "stop":
            return
        if msg[0] == "sigma":
            try:
                channel.send(("done", msg[1], work()))
            except Exception:
                channel.send(("error", msg[1], traceback.format_exc()))


# -- engine side ----------------------------------------------------------------


class PoolEngine:
    """Persistent pool of sigma workers; a subclass supplies the transport.

    :meth:`_start` (the transport) builds ``heap`` — an object with the
    parent-side ``get``/``zero``/``reset_counter``/``barrier``/``close``
    surface over the :data:`_HEAP` arrays — starts or accepts one worker
    per rank, fills ``_channels`` (rank → control channel) and awaits every
    ``ready``; this class does everything else.
    """

    #: how diagnostics name a worker ("shm worker 1")
    label = "pool"
    #: exceptions on a control channel that mean its worker is gone
    lost: tuple = (OSError, EOFError)
    #: seconds of control-channel silence after which a serving rank is dead
    heartbeat_budget = math.inf

    def __init__(
        self,
        plan: SigmaPlan,
        *,
        n_workers: int,
        block_columns: int,
        blas_threads: int = 1,
        timeout: float = 300.0,
        straggle_seconds: float = 0.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.plan = plan
        self.n_workers = int(n_workers)
        self.block_columns = int(block_columns)
        self.blas_threads = int(blas_threads)
        self.timeout = float(timeout)
        self.shape = tuple(plan.shape)
        self.decomposition = build_sigma_decomposition(
            plan, self.n_workers, self.block_columns
        )
        self.payload = {
            "plan": plan,
            "decomposition": self.decomposition,
            "blas_threads": self.blas_threads,
            "timeout": self.timeout,
            "straggle_seconds": float(straggle_seconds),
        }
        self.heap = None
        self._procs: list = []
        self._channels: dict = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        try:
            self._start()
            self.heap.barrier(self.timeout)
        except BaseException:
            self.close()
            raise

    # -- transport hooks ------------------------------------------------------
    def _start(self) -> None:
        raise NotImplementedError

    def _receive(self, channel, timeout: float):
        """One message from a channel known to be readable."""
        return channel.recv()

    def _heap_arrays(self) -> dict[str, tuple[int, int]]:
        na, nb = self.shape
        return {
            "C": (na, nb),
            "one": (na, nb),
            "aa": (na, nb),
            "bb": (nb, na),  # beta-beta works on the transposed matrix
            "mix": (na, nb),
        }

    # -- spawn ----------------------------------------------------------------
    def _spawn(self, ctx, target, args) -> None:
        """Start one ``target(*args(rank))`` process per rank with every
        BLAS pool pinned to ``blas_threads``."""
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            # spawn inherits os.environ: pin every worker's BLAS pool before
            # exec, then restore the parent's own settings
            for k in _BLAS_ENV:
                os.environ[k] = str(self.blas_threads)
            for rank in range(self.n_workers):
                proc = ctx.Process(
                    target=target,
                    args=args(rank),
                    daemon=True,
                    name=f"repro-{self.label}-sigma-{rank}",
                )
                proc.start()
                self._procs.append(proc)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    # -- plumbing -------------------------------------------------------------
    def _exitcode(self, rank: int):
        if rank < len(self._procs):
            return self._procs[rank].exitcode
        return "external"

    def _send(self, rank: int, msg) -> None:
        try:
            self._channels[rank].send(msg)
        except self.lost:
            raise RuntimeError(
                f"{self.label} worker {rank} died (exitcode={self._exitcode(rank)})"
            ) from None

    def _collect(self, kind: str, seq: int | None = None) -> list:
        """Await one ``kind`` reply per rank, watching every rank at once.

        Returns the replies' bodies in rank order.  A dead rank — EOF,
        exited process, or heartbeat silence — raises a ``RuntimeError``
        naming it as soon as it is seen, whatever the other ranks do.
        """
        deadline = time.monotonic() + self.timeout
        # workers heartbeat only once they serve requests
        budget = self.heartbeat_budget if kind == "done" else math.inf
        pending = dict(self._channels)
        last_seen = dict.fromkeys(pending, time.monotonic())
        replies: list = [None] * self.n_workers
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{self.label} pool timed out after {self.timeout:.0f}s "
                    f"awaiting {kind!r}; ranks still pending: {sorted(pending)}"
                )
            # a process that exited before this wait has already written its
            # last message (a "fatal" traceback, say): read it before naming
            # the rank dead for exiting
            exited = [
                rank
                for rank in pending
                if rank < len(self._procs) and not self._procs[rank].is_alive()
            ]
            channels = list(pending.values())
            try:
                readable = wait(channels, timeout=0.05)
            except (OSError, ValueError):
                readable = channels  # a closed fd: let receive raise per rank
            by_channel = {ch: rank for rank, ch in pending.items()}
            for ch in readable:
                rank = by_channel[ch]
                try:
                    msg = self._receive(ch, max(deadline - time.monotonic(), 0.01))
                except self.lost as exc:
                    raise RuntimeError(
                        f"{self.label} worker {rank} died ({exc!r}, "
                        f"exitcode={self._exitcode(rank)})"
                    ) from None
                last_seen[rank] = time.monotonic()
                if msg[0] == "hb":
                    continue
                if msg[0] == "error":
                    raise RuntimeError(
                        f"{self.label} worker {rank} failed in sigma:\n{msg[2]}"
                    )
                if msg[0] == "fatal":
                    raise RuntimeError(f"{self.label} worker {rank} died:\n{msg[2]}")
                if msg[0] != kind or (seq is not None and msg[1] != seq):
                    raise RuntimeError(
                        f"{self.label} worker {rank}: protocol violation, "
                        f"expected {kind!r}, got {msg[:2]}"
                    )
                replies[rank] = msg[2]
                del pending[rank]
            for rank in exited:
                if rank in pending:
                    raise RuntimeError(
                        f"{self.label} worker {rank} died "
                        f"(process exited, exitcode={self._procs[rank].exitcode})"
                    )
            now = time.monotonic()
            for rank in pending:
                if now - last_seen[rank] > budget:
                    raise RuntimeError(
                        f"{self.label} worker {rank} silent for {budget:.1f}s "
                        "(heartbeat budget exceeded); declaring it dead"
                    )
        return replies

    def segment_stores(self) -> list:
        """The heap arrays as zero-copy :class:`DenseStore` views.

        Built on demand and intentionally not retained: a held wrapper
        would keep exported shm buffers alive past :meth:`close` and block
        the parent's unlink.  Callers use them transiently (the
        storage-layer residency gauges) and drop them."""
        from ..core.vectors import DenseStore

        return [DenseStore.wrap(self.heap.get(name)) for name in _HEAP]

    # -- one parallel sigma evaluation ----------------------------------------
    def sigma(self, C: np.ndarray) -> SigmaRun:
        C = np.asarray(C, dtype=np.float64)
        if C.shape != self.shape:
            raise ValueError(f"C must have shape {self.shape}, got {C.shape}")
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"{self.label} engine is closed (a worker died or close() "
                    "was called); build a new ParallelSigma/backend"
                )
            return self._sigma_locked(C)

    def _sigma_locked(self, C: np.ndarray) -> SigmaRun:
        heap = self.heap
        t_wall = time.perf_counter()
        heap.get("C")[...] = C
        heap.zero("one", "aa", "bb", "mix")
        heap.reset_counter()
        self._seq += 1
        try:
            for rank in sorted(self._channels):
                self._send(rank, ("sigma", self._seq))
            replies = self._collect("done", self._seq)
        except BaseException:
            self.close()
            raise

        # deterministic left-to-right reduction in the serial kernel's
        # accumulation order: one-electron, alpha-alpha, beta-beta^T, mixed
        sigma = heap.get("one").copy()
        if self.plan.same_a is not None:
            sigma += heap.get("aa")
        if self.plan.same_b is not None:
            sigma += heap.get("bb").T
        sigma += heap.get("mix")
        elapsed = time.perf_counter() - t_wall

        stats = [
            RankStats(
                compute=r["busy"],
                bytes_sent=float(r["bytes_sent"]),
                bytes_received=float(r["bytes_received"]),
                flops=float(r["dgemm_flops"]),
                finish_time=r["busy"],
                phase_times=dict(r["phase_times"]),
            )
            for r in replies
        ]
        finish = [s.finish_time for s in stats]
        return SigmaRun(
            sigma=sigma,
            stats=stats,
            elapsed=elapsed,
            load_imbalance=max(finish) - sum(finish) / len(finish),
        )

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join (terminating stragglers), release the heap."""
        self._closed = True
        for ch in self._channels.values():
            try:
                ch.send(("stop",))
            except self.lost:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for ch in self._channels.values():
            ch.close()
        self._procs = []
        self._channels = {}
        if self.heap is not None:
            self.heap.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
