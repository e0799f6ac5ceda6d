"""Shared-memory transport of the worker-pool engine.

:class:`ShmSigmaEngine` is :class:`~repro.parallel.pool.PoolEngine` over
a :class:`~repro.parallel.shm.comm.ShmComm`: the heap is five POSIX
shared-memory segments (``C`` plus one owned output per phase:
``one``/``aa``/``bb``/``mix``) that every worker maps, the control
channel to each worker is a :func:`multiprocessing.Pipe`, and the pickled
:class:`~repro.core.plans.SigmaPlan` and decomposition reach each worker
once through its spawn arguments.  Workers write their disjoint owned
windows of the segments in place (:mod:`~repro.parallel.shm.worker`), and
report bytes as elements gathered/scattered × 8.

Spawn and BLAS pinning, the request/collect loop (a dead worker is a
named ``RuntimeError`` on pipe EOF or process exit — shm workers don't
heartbeat), the deterministic one → aa → bb\\ :sup:`T` → mix reduction,
the per-rank :class:`~repro.x1.engine.RankStats` and the lifecycle are the
pool engine's, shared with the sockets transport.
"""

from __future__ import annotations

import multiprocessing as mp

from ..pool import PoolEngine
from .comm import ShmComm
from .worker import worker_main

__all__ = ["ShmSigmaEngine"]


class ShmSigmaEngine(PoolEngine):
    """Persistent pool of sigma workers over shared memory."""

    label = "shm"

    def _start(self) -> None:
        ctx = mp.get_context("spawn")
        self.heap = ShmComm(ctx, arrays=self._heap_arrays(), n_ranks=self.n_workers)
        spec = self.heap.spec()
        pipes = [ctx.Pipe() for _ in range(self.n_workers)]
        self._channels = {rank: parent for rank, (parent, _) in enumerate(pipes)}
        try:
            self._spawn(
                ctx, worker_main, lambda rank: (rank, pipes[rank][1], spec, self.payload)
            )
        finally:
            # the parent keeps only its ends, so a dead worker reads as EOF
            for _, child in pipes:
                child.close()
        self._collect("ready")
