"""Real shared-memory execution backend for the parallel sigma.

The paper's decomposition on actual OS processes: POSIX shared-memory
segments for the distributed arrays (:mod:`~repro.parallel.shm.comm`),
and the shared-memory transport of the worker-pool engine
(:mod:`repro.parallel.pool`): the engine's heap and pipes
(:mod:`~repro.parallel.shm.engine`) and the worker that writes its owned
windows of the segments in place (:mod:`~repro.parallel.shm.worker`).
Selected via ``ParallelSigma(..., backend="shm")``."""

from .comm import ShmComm, ShmCommSpec
from .engine import ShmSigmaEngine

__all__ = ["ShmComm", "ShmCommSpec", "ShmSigmaEngine"]
