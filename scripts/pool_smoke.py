#!/usr/bin/env python
"""Real-process pool smoke test: shm and sockets, end to end.

What CI's ``pool-smoke`` job runs, for each real-process backend
(``shm``: workers over POSIX shared memory; ``sockets``: workers dialing a
TCP coordinator on loopback), against the bitwise bar (diff vs serial
must be exactly 0.0, not "close"):

1. a single sigma evaluation on a seeded random CI space through
   ``ParallelSigma(backend=..., n_workers=4)`` — four real worker
   processes — compared bit-for-bit against serial ``sigma_dgemm`` at the
   same blocking;
2. a full FCI solve (H2O/STO-3G, 441 determinants) through
   ``FCISolver(parallel={"backend": ..., "n_workers": 4})``, required to
   reproduce the serial solver's energy with exact float equality;
3. a resource sweep: after the runs every coordinator must be closed and
   no ``repro-*`` shared-memory segment may remain.

Exits non-zero on any failure.

Usage::

    PYTHONPATH=src python scripts/pool_smoke.py
"""

from __future__ import annotations

import glob
import sys

BACKENDS = ("shm", "sockets")
N_WORKERS = 4
BLOCK_COLUMNS = 3


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    import numpy as np

    from repro.core import CIProblem, FCISolver, sigma_dgemm
    from repro.molecule import Molecule
    from repro.parallel import ParallelSigma
    from repro.parallel.sockets import LIVE_COORDINATORS
    from repro.scf.mo import MOIntegrals

    rng = np.random.default_rng(23)
    n = 6
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    problem = CIProblem(
        MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), 3, 2
    )
    C = problem.random_vector(0)
    ref = sigma_dgemm(problem, C, block_columns=BLOCK_COLUMNS)

    water = Molecule.from_atoms(
        [
            ("O", (0.0, 0.0, 0.2217)),
            ("H", (0.0, 1.4309, -0.8867)),
            ("H", (0.0, -1.4309, -0.8867)),
        ],
        name="H2O",
    )
    serial = FCISolver(water, "sto-3g").run()
    if not serial.solve.converged:
        fail("serial reference did not converge")
    print(f"serial reference:  E = {serial.energy:.12f}")

    for backend in BACKENDS:
        # 1. one sigma through 4 workers, bitwise against serial DGEMM
        with ParallelSigma(
            problem,
            backend=backend,
            n_workers=N_WORKERS,
            block_columns=BLOCK_COLUMNS,
        ) as ps:
            out = ps(C)
            diff = float(np.max(np.abs(out - ref)))
            print(
                f"{backend} sigma over {N_WORKERS} workers: "
                f"max |diff| vs serial = {diff}"
            )
            if not np.array_equal(out, ref):
                fail(f"{backend} sigma is not bitwise-identical (diff {diff:.2e})")
            bytes_moved = ps.report.bytes_communicated
            print(f"{backend} traffic: {bytes_moved:.0f} bytes over the sigma call")
            if bytes_moved <= 0:
                fail(f"{backend} backend reported no traffic")

        # 2. full FCI solve: the pool drives the eigensolver to the serial
        #    energy with exact float equality
        parallel = FCISolver(
            water,
            "sto-3g",
            parallel={"backend": backend, "n_workers": N_WORKERS},
        ).run()
        if not parallel.solve.converged:
            fail(f"{backend} solve did not converge")
        print(f"{backend} ({N_WORKERS} workers): E = {parallel.energy:.12f}")
        if parallel.energy != serial.energy:
            fail(
                f"{backend} energy differs from serial by "
                f"{abs(parallel.energy - serial.energy):.2e} (exact match required)"
            )

    # 3. nothing left behind
    if LIVE_COORDINATORS:
        fail(f"{len(LIVE_COORDINATORS)} coordinator(s) still open after close")
    leaked = glob.glob("/dev/shm/repro-*")
    if leaked:
        fail(f"leaked shared-memory segments: {leaked}")

    print(f"OK: pool smoke passed on {', '.join(BACKENDS)}")


if __name__ == "__main__":
    main()
