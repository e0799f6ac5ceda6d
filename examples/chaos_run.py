"""Kill a rank mid-sigma and watch the survivors heal the calculation.

Runs the numeric-mode parallel DGEMM sigma (`repro.parallel.ParallelSigma`)
on a 4-MSP simulated Cray-X1 under a pinned dead-rank `FaultPlan`: the
victim MSP fail-stops halfway through the build, its held mutexes are
revoked after their lease, and the surviving ranks detect the uncommitted
work through the commit-tag protocol and requeue it.  The result is then
checked element-for-element against the serial sigma - recovery must be
exact, not approximate.

A ChromeTracer records the whole story in virtual time: open the written
JSON at https://ui.perfetto.dev to see the victim's track stop dead, the
`fault:*` instant markers, and the survivors' recovery round (heartbeat
check, tag gather, requeued task executions).

Run:  python examples/chaos_run.py [output.json]
"""

import sys

import numpy as np

from repro import Telemetry
from repro.core import CIProblem, sigma_dgemm
from repro.faults import FaultInjector, FaultPlan
from repro.obs import ChromeTracer
from repro.parallel import ParallelSigma
from repro.scf.mo import MOIntegrals
from repro.x1 import X1Config


def random_problem(n: int = 6, n_alpha: int = 3, n_beta: int = 3) -> CIProblem:
    """A small FCI space over random but symmetric MO integrals."""
    rng = np.random.default_rng(42)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T) + np.diag(np.linspace(-3, 2, n)) * 2
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    mo = MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n)
    return CIProblem(mo, n_alpha, n_beta)


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "chaos.trace.json"
    problem = random_problem()
    config = X1Config(n_msps=4)
    C = problem.random_vector(0)
    ref = sigma_dgemm(problem, C)

    # measure a fault-free run to place the death halfway through it
    probe = ParallelSigma(problem, config, resilient=True)
    probe(C)
    horizon = probe.report.elapsed
    print(f"fault-free sigma build: {horizon:.3e} virtual s on {config.n_msps} MSPs")

    tracer = ChromeTracer()
    telemetry = Telemetry(tracer=tracer)
    # MSP 1 fail-stops halfway through the fault-free run
    plan = FaultPlan(seed=1, deaths={1: 0.5 * horizon})
    injector = FaultInjector(plan, registry=telemetry.registry)

    sigma_op = ParallelSigma(problem, config, telemetry=telemetry, faults=injector)
    out_sigma = sigma_op(C)

    err = float(np.max(np.abs(out_sigma - ref)))
    print(f"MSP 1 killed at t = {0.5 * horizon:.3e} s (half the fault-free run)")
    print(f"recovered sigma vs serial reference: max |diff| = {err:.3e}")
    assert err < 1e-12, "recovery must reproduce the serial sigma exactly"

    print("fault/recovery counters:")
    for name, value in sorted(injector.counts().items()):
        print(f"  {name:40s} {value:g}")

    path = tracer.write(out)
    faults = [e for e in tracer.events() if e.get("name", "").startswith("fault:")]
    beats = sum(1 for e in tracer.events() if e.get("name") == "heartbeat_check")
    print(f"trace: {tracer.n_events} events ({len(faults)} fault markers, "
          f"{beats} heartbeat checks)")
    print(f"wrote {path} - open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
