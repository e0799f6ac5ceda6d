"""Parallel FCI: numeric and trace drivers on pluggable execution backends.

The numeric driver (:class:`ParallelSigma`) runs the paper's rank
decomposition on the simulated Cray-X1 (virtual time), on real OS
processes over shared memory (:mod:`repro.parallel.shm`), or on real OS
processes behind a TCP coordinator (:mod:`repro.parallel.sockets`); the
:class:`~repro.parallel.backend.Backend` protocol is the seam,
:mod:`repro.parallel.rankwork` is the one decomposition + per-rank
program every real-process substrate executes, and
:mod:`repro.parallel.pool` is the one worker-pool engine both real-process
transports run on.
"""

from .backend import Backend, SigmaRun, backend_names, make_backend
from .rankwork import SigmaDecomposition, build_sigma_decomposition, run_rank_sigma
from .taskpool import Task, build_task_pool, pool_statistics
from .pfci import ParallelReport, ParallelSigma
from .trace import (
    FCISpaceSpec,
    TraceFCI,
    TraceResult,
    atom_irreps,
    homonuclear_diatomic_irreps,
)
from .perfmodel import PerfModelRow, alpha_beta_model, measured_counts

__all__ = [
    "Backend",
    "SigmaRun",
    "backend_names",
    "make_backend",
    "SigmaDecomposition",
    "build_sigma_decomposition",
    "run_rank_sigma",
    "Task",
    "build_task_pool",
    "pool_statistics",
    "ParallelReport",
    "ParallelSigma",
    "FCISpaceSpec",
    "TraceFCI",
    "TraceResult",
    "atom_irreps",
    "homonuclear_diatomic_irreps",
    "PerfModelRow",
    "alpha_beta_model",
    "measured_counts",
]
