"""repro.faults: deterministic fault injection.

The paper's 65-billion-determinant campaigns only succeed because the
single-vector solver carries a tiny restart state (one CI vector) and the
DDI/SHMEM layer tolerates contention.  This subsystem lets the simulated
X1 *prove* the same discipline: a seeded :class:`FaultInjector` perturbs
the discrete-event engine with rank stalls, rank death at a virtual time,
dropped or delayed one-sided transfers, mutex-grant jitter, transient I/O
errors, and payload corruption (NaN or bit-flip) in numeric mode.  A
pinned schedule (a set victim and death time) is a :class:`FaultPlan`
literal; the named, seeded scenario generators that compose plans are
registered in :mod:`repro.chaos.plans`.

Every injected fault is counted under ``faults.injected.*`` and every
recovery action (DDI retry, mutex-lease revocation, task requeue,
checkpoint restart) under ``faults.recovered.*`` in a
:class:`repro.obs.MetricsRegistry`, so a chaos run tells a complete,
Perfetto-viewable story of what broke and how it healed.

The subsystem only depends on :mod:`repro.obs`; the engine and DDI layers
accept an injector duck-typed, so nothing here imports the simulator.
"""

from .injector import DEFAULT_MUTEX_LEASE, FaultInjector, FaultPlan, StallWindow
from .service import ServiceFaultInjector, ServiceFaultPlan, WorkerCrashed

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "StallWindow",
    "ServiceFaultPlan",
    "ServiceFaultInjector",
    "WorkerCrashed",
    "DEFAULT_MUTEX_LEASE",
]
