"""repro: a parallel-vector full-configuration-interaction package.

Reproduction of Gan & Harrison, "Calibrating quantum chemistry: A
multi-teraflop, parallel-vector, full-configuration interaction program for
the Cray-X1" (SC 2005): the DGEMM-based sigma-vector algorithm, the
automatically adjusted single-vector diagonalization method, and a simulated
Cray-X1 parallel substrate (SHMEM/DDI, task-pool dynamic load balancing)
that regenerates the paper's scaling studies.

Quick start::

    from repro import Molecule, FCISolver
    mol = Molecule.from_atoms([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    print(FCISolver(mol, basis="sto-3g").run().energy)
"""

import logging

from .molecule import Molecule, PointGroup
from .core import Checkpointer, FCIResult, FCISolver, fci
from .faults import FaultInjector, FaultPlan
from .obs import ChromeTracer, MetricsRegistry, Telemetry, get_registry

# Library code reports through the "repro" logger hierarchy rather than
# print(); applications opt in with logging.basicConfig() or a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "Molecule",
    "PointGroup",
    "FCIResult",
    "FCISolver",
    "fci",
    "Checkpointer",
    "FaultInjector",
    "FaultPlan",
    "Telemetry",
    "ChromeTracer",
    "MetricsRegistry",
    "get_registry",
    "__version__",
]
