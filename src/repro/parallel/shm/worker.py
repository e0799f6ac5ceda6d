"""Worker process of the shared-memory transport.

Each worker is one *rank* of the paper's decomposition, executing on a
real OS process what the simulated MSPs execute in virtual time.  The
per-rank program (:func:`repro.parallel.rankwork.run_rank_sigma`), the
BLAS pinning, the request loop and the stats reply are the pool engine's
(:mod:`repro.parallel.pool`), shared with the sockets workers.  What is
shm-specific: the worker attaches the parent's segments by name, its
outputs *are* those segments (zero-copy views written in place, each rank
only into its disjoint owned windows, so ``quiet`` is a no-op fence), the
DLB counter is :meth:`ShmComm.fetch_add`, and bytes are accounted as
elements gathered/scattered × 8.
"""

from __future__ import annotations

import traceback

from ..pool import pin_blas_threads, run_sigma, serve_requests
from .comm import ShmComm, ShmCommSpec

__all__ = ["worker_main"]


def worker_main(rank: int, conn, spec: ShmCommSpec, payload: dict) -> None:
    """Entry point of a spawned worker: attach, handshake, serve requests.

    Pipe protocol: ``("ready", rank, True)`` after attach, then the pool's
    request loop (:func:`repro.parallel.pool.serve_requests`).
    """
    limiter = pin_blas_threads(payload["blas_threads"])  # noqa: F841
    comm = None
    try:
        comm = ShmComm.attach(spec)

        def outputs():
            return {name: comm.get(name) for name in ("one", "aa", "bb", "mix")}

        def ship(outs, claimed, counters, phase_times):
            comm.quiet()  # all owned-segment stores complete before done
            return 8.0 * counters.scatter_elements, 8.0 * counters.gather_elements

        conn.send(("ready", rank, True))
        comm.barrier(payload["timeout"])
        serve_requests(
            conn, (EOFError, OSError), lambda: run_sigma(rank, comm, payload, outputs, ship)
        )
    except Exception:
        try:
            conn.send(("fatal", rank, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if comm is not None:
            comm.close()
        conn.close()
