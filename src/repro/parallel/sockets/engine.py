"""Sockets transport of the worker-pool engine: workers reached only over TCP.

:class:`SocketSigmaEngine` is :class:`~repro.parallel.pool.PoolEngine`
over a :class:`Coordinator` that serves the symmetric heap over
length-prefixed TCP messages.  What is sockets-specific:

* **handshake**: workers are spawned once on loopback (``spawn=
  "process"``, the default; each unpickles the cached
  :class:`~repro.core.plans.SigmaPlan` and decomposition a single time
  from the spawn args) or join from other terminals/hosts
  (``spawn="external"``: the engine ships the payload over the control
  channel to each joiner); the coordinator assigns ranks and the control
  channel of each rank is a :class:`~repro.parallel.sockets.wire.Channel`,
* **heartbeats**: every worker heartbeats on its control channel, so the
  pool's collect loop also declares a rank dead after
  ``heartbeat_interval * heartbeat_misses`` seconds of silence, besides
  EOF and process exit,
* **outputs**: workers compute into local buffers and ``acc`` their
  disjoint owned windows into the parent-zeroed heap (a bitwise store),
  fenced with ``quiet`` before ``done``
  (:mod:`~repro.parallel.sockets.worker`); ``phase_times`` gains a
  ``wire-ship`` entry and the per-rank bytes are *actual wire bytes* on
  the data channel.

Spawn and BLAS pinning, the request/collect loop, the deterministic
one → aa → bb\\ :sup:`T` → mix reduction (bitwise-identical to serial
``sigma_dgemm`` at the same ``block_columns`` for any worker count), the
per-rank :class:`~repro.x1.engine.RankStats` and the lifecycle are the
pool engine's, shared with the shm transport.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from ...core.plans import SigmaPlan
from ..pool import PoolEngine
from .coordinator import Coordinator
from .wire import WireError
from .worker import worker_main

__all__ = ["SocketSigmaEngine"]


class SocketSigmaEngine(PoolEngine):
    """Persistent fleet of sigma workers behind a TCP coordinator."""

    label = "socket"
    lost = (WireError,)

    def __init__(
        self,
        plan: SigmaPlan,
        *,
        n_workers: int,
        block_columns: int,
        blas_threads: int = 1,
        timeout: float = 300.0,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        spawn: str = "process",
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 40,
        straggle_seconds: float = 0.0,
    ):
        if spawn not in ("process", "external"):
            raise ValueError(
                f"spawn must be 'process' (loopback pool) or 'external' "
                f"(workers join by hand); got {spawn!r}"
            )
        self._address = {"host": host, "port": port, "token": token}
        self.spawn = spawn
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self.heartbeat_budget = self.heartbeat_interval * self.heartbeat_misses
        super().__init__(
            plan,
            n_workers=n_workers,
            block_columns=block_columns,
            blas_threads=blas_threads,
            timeout=timeout,
            straggle_seconds=straggle_seconds,
        )

    def _receive(self, channel, timeout: float):
        return channel.recv(timeout=timeout)

    def _start(self) -> None:
        """Open the coordinator, spawn (or await) every rank, deliver the
        payload to external joiners."""
        self.heap = Coordinator(
            arrays=self._heap_arrays(),
            n_ranks=self.n_workers,
            timeout=self.timeout,
            **self._address,
        )
        self.payload["heartbeat_interval"] = self.heartbeat_interval
        if self.spawn == "process":
            spec = self.heap.spec()
            self._spawn(
                mp.get_context("spawn"),
                worker_main,
                lambda rank: (rank, spec, self.payload),
            )
        self._channels = self.heap.wait_for_ctrl(time.monotonic() + self.timeout)
        for rank, has_payload in enumerate(self._collect("ready")):
            if not has_payload:
                self._send(rank, ("plan", self.payload))
