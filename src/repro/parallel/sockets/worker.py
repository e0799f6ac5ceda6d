"""Worker process of the sockets transport.

Each worker is one *rank* of the paper's decomposition on a real OS
process reached only through TCP — spawned on loopback by the engine, or
started by hand on another terminal (or, tomorrow, another host) with::

    python -m repro.parallel.sockets.worker --host H --port P --token T

A worker opens two channels to the coordinator: the control channel
(``ready``/``plan``/``sigma``/``done``/``error`` plus heartbeats every
``heartbeat_interval`` seconds, which is how the engine distinguishes a
long DGEMM from a dead process) and the data channel
(:class:`~repro.parallel.sockets.comm.SocketComm`, the five DDI verbs).

Spawned workers receive the payload (the pickled
:class:`~repro.core.plans.SigmaPlan` and decomposition) once through the
spawn args; external workers request it once over the control channel.
The BLAS pinning, the request loop and the per-rank program with its
stats reply are the pool engine's (:mod:`repro.parallel.pool`), shared
with the shm workers.  What is sockets-specific: the rank computes into
local zeroed buffers whose disjoint owned windows are then shipped with
``acc`` and fenced with ``quiet`` before ``done`` is reported (timed as
``wire-ship``), and its bytes are the data channel's wire bytes.
"""

from __future__ import annotations

import functools
import threading
import time
import traceback

import numpy as np

from ..pool import pin_blas_threads, run_sigma, serve_requests
from .comm import SocketComm
from .coordinator import SocketCommSpec
from .wire import WireError, connect_with_retry

__all__ = ["worker_main", "main"]


def _local_outputs(rank: int, payload: dict) -> dict[str, np.ndarray]:
    """Zeroed buffers for the outputs this rank owns windows of."""
    plan = payload["plan"]
    decomp = payload["decomposition"]
    na, nb = plan.shape
    outs = {"mix": np.zeros((na, nb))}
    if rank == 0:
        outs["one"] = np.zeros((na, nb))
    if plan.same_a is not None and decomp.owned_aa_blocks(rank):
        outs["aa"] = np.zeros((na, nb))
    if plan.same_b is not None and decomp.owned_bb_blocks(rank):
        outs["bb"] = np.zeros((nb, na))
    return outs


def _ship(comm: SocketComm, rank: int, decomp, outs, claimed, counters, phase_times):
    """Ship this rank's owned windows; returns the wire bytes (sent, received)."""
    # acc into segments the parent zeroed, which is a store (0.0 + x)
    # element-for-element because the windows are disjoint — then fence
    # with quiet before reporting done
    t0 = time.perf_counter()
    full = (slice(None), slice(None))
    if rank == 0:
        comm.acc("one", full, outs["one"])
    if "aa" in outs:
        for lo, hi in decomp.owned_aa_blocks(rank):
            comm.acc("aa", (slice(None), slice(lo, hi)), outs["aa"][:, lo:hi])
    if "bb" in outs:
        for lo, hi in decomp.owned_bb_blocks(rank):
            comm.acc("bb", (slice(None), slice(lo, hi)), outs["bb"][:, lo:hi])
    for tid in claimed:
        lo, hi = decomp.task_column_span(tid)
        comm.acc("mix", (slice(None), slice(lo, hi)), outs["mix"][:, lo:hi])
    comm.quiet()
    phase_times["wire-ship"] = time.perf_counter() - t0
    return comm.tx_bytes, comm.rx_bytes


def worker_main(rank: int | None, spec: SocketCommSpec, payload: dict | None) -> None:
    """Entry point of a worker: dial in, handshake, serve sigma requests.

    Control protocol (engine -> worker): ``("plan", payload)`` delivers the
    payload to an external worker, then the pool's request loop
    (:func:`repro.parallel.pool.serve_requests`).  Worker -> engine:
    ``("ready", rank, has_payload)`` after both channels are up and
    ``("hb", rank)`` heartbeats.
    """
    ctrl = None
    comm = None
    stop_hb = threading.Event()
    try:
        ctrl = connect_with_retry(spec.host, spec.port, timeout=spec.timeout)
        ctrl.send(("hello", "ctrl", rank, spec.token))
        reply = ctrl.recv(timeout=spec.timeout)
        if reply[0] != "ok":
            raise WireError(f"coordinator refused control channel: {reply[1:]}")
        rank = reply[1]
        comm = SocketComm.connect(spec, rank)
        ctrl.send(("ready", rank, payload is not None))
        if payload is None:
            msg = ctrl.recv(timeout=spec.timeout)
            if msg[0] != "plan":
                raise WireError(f"expected plan delivery, got {msg[0]!r}")
            payload = msg[1]
        limiter = pin_blas_threads(payload["blas_threads"])  # noqa: F841

        def _heartbeat():
            while not stop_hb.wait(payload["heartbeat_interval"]):
                try:
                    ctrl.send(("hb", rank))
                except WireError:
                    return

        outputs = functools.partial(_local_outputs, rank, payload)
        ship = functools.partial(_ship, comm, rank, payload["decomposition"])
        hb = threading.Thread(target=_heartbeat, name="repro-sockets-hb", daemon=True)
        hb.start()
        comm.barrier(payload["timeout"])
        serve_requests(
            ctrl, WireError, lambda: run_sigma(rank, comm, payload, outputs, ship)
        )
    except Exception:
        if ctrl is not None:
            try:
                ctrl.send(("fatal", rank, traceback.format_exc()))
            except Exception:
                pass
    finally:
        stop_hb.set()
        if comm is not None:
            comm.close()
        if ctrl is not None:
            ctrl.close()


def main(argv=None) -> int:
    """CLI for external (second-terminal / remote) workers."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.sockets.worker",
        description="join a sockets-backend coordinator as one sigma worker "
        "(the SigmaPlan arrives over the wire)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument(
        "--rank", type=int, default=None,
        help="explicit rank (default: coordinator assigns join order)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)
    spec = SocketCommSpec(
        host=args.host,
        port=args.port,
        token=args.token,
        n_ranks=0,  # informational client-side; the payload carries n_workers
        timeout=args.timeout,
    )
    worker_main(args.rank, spec, None)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
