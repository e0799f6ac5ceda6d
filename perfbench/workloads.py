"""The workloads: inputs from the seed, closed-loop timed calls, output checks.

Every workload is one client in one process calling the program's public
API in a closed loop: the next call starts when the previous one returned.
``run`` returns the result object that ``run.py`` prints.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core import (
    CIProblem,
    DgemmKernel,
    FCISolver,
    SigmaCounters,
    SigmaPlan,
    build_dense_hamiltonian,
)
from repro.core.kernels import mixed_spin_sigma_stack, same_spin_sigma_stack
from repro.molecule import Molecule
from repro.parallel import ParallelReport, ParallelSigma
from repro.scf.mo import MOIntegrals
from repro.service import FCIService

import host
from spans import SpanRecorder, shims

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
with open(os.path.join(HERE, "pins.json")) as _fh:
    PINS = json.load(_fh)

# agreement of two evaluations of one quantity, relative to its magnitude:
# loose enough for reassociated sums, far below any real defect
REL_TOL = 1e-10
SETUP_REPEATS = 11
POOL_SETUP_REPEATS = 3  # worker-pool start costs ~1.5 s per repeat
MIN_OPS = 5  # timed calls per run, however long they take
MIN_JOBS = 2  # cold solves per run (each takes ~10 s)
TRACE_REPS = 3
CALL_TIMEOUT = 120.0

E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "plans.build_s": "s",
    "plans.mb": "MB",
    "kernels.one_s": "s",
    "kernels.aa_s": "s",
    "kernels.bb_s": "s",
    "kernels.ab_s": "s",
    "kernels.phase_sum_frac": "ratio",
    "kernels.dgemm_gflop": "GFLOP",
    "kernels.dgemm_calls": "count",
    "kernels.gather_melem": "Melem",
    "kernels.scatter_melem": "Melem",
    "kernels.ab_d_fill_frac": "ratio",
    "kernels.peak_gflops": "GFLOP/s",
    "kernels.aa_peak_gflops": "GFLOP/s",
    "kernels.ab_peak_frac": "ratio",
    "kernels.aa_peak_frac": "ratio",
    "kernels.ab_nondgemm_s": "s",
    "kernels.page_faults": "faults",
    "kernels.sys_s": "s",
    "integrals.ao_s": "s",
    "scf.rhf_s": "s",
    "scf.transform_s": "s",
    "solver.iterations": "count",
    "solver.n_sigma": "count",
    "solver.sigma_s": "s",
    "solver.other_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.cache_hit_ms": "ms",
    "parallel.spawn_s": "s",
    "parallel.elapsed_s": "s",
    "parallel.parent_s": "s",
    "parallel.aa_s": "s",
    "parallel.bb_s": "s",
    "parallel.ab_s": "s",
    "parallel.imbalance_s": "s",
    "parallel.mb_moved": "MB",
    "parallel.speedup": "x",
    "x1sim.virtual_s": "s",
    "x1sim.ab_virtual_s": "s",
    "x1sim.imbalance_virtual_s": "s",
    "x1sim.mb_moved": "MB",
    "x1sim.gflop": "GFLOP",
    "obs.trace_overhead_frac": "ratio",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(xs) -> float:
    return float(statistics.median(xs))


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed; every failure is named on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok

    def hygiene(self, leaks: host.LeakCheck) -> None:
        found = leaks.leaks()
        self.record(not found, f"resource hygiene, leaked {found}")


def closed_loop(tally, seconds, min_ops, call, verify, what) -> list[float]:
    """Call until ``seconds`` have passed (at least ``min_ops`` times)."""
    times = []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # a failing call is a counted operation, not a crash
            tally.record(False, f"{what} raised:\n{traceback.format_exc()}")
            if tally.failed > 3:
                break
            continue
        times.append(time.perf_counter() - t0)
        tally.record(verify(out), f"{what} output check")
    if not times:
        raise RuntimeError(f"every {what} call failed")
    return times


def agree(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) <= REL_TOL * scale


# -- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    n: int
    n_alpha: int
    n_beta: int

    def problem(self, mo: MOIntegrals) -> CIProblem:
        return CIProblem(mo, self.n_alpha, self.n_beta)


def random_mo(n: int, seed: int) -> MOIntegrals:
    """Random integrals with the 8-fold permutational symmetry of real ones."""
    rng = np.random.default_rng([seed % 2**32, n])
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n)


def unit_vector(shape, seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng([seed % 2**32, stream, *shape])
    C = rng.standard_normal(shape)
    return C / np.linalg.norm(C)


# full space, reduced space for the dense-H oracle (same filling, same seed)
SIGMA_SPACES = {
    "sigma-halffill": (Space(12, 5, 5), Space(6, 3, 3)),
    "sigma-highspin": (Space(17, 14, 2), Space(7, 5, 2)),
}
FCI11 = Space(11, 5, 4)
PARALLEL_BACKENDS = {
    "parallel-fci11-shm": "shm",
    "parallel-fci11-sockets": "sockets",
    "parallel-fci11-x1sim": "simulated",
}
H2O_ATOMS = [
    ("O", (0.0, 0.0, 0.2217)),
    ("H", (0.0, 1.4309, -0.8867)),
    ("H", (0.0, -1.4309, -0.8867)),
]
H2_ATOMS = [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4))]
H2O_JOB = {"basis": "6-31g", "frozen_core": 1, "method": "auto"}
H2_JOB = {"basis": "sto-3g"}
E_H2O = -76.1199560500  # Eh; the auto and davidson solvers agree to 10 digits


# -- the kernel layer, phase by phase --------------------------------------------


def matmul_gflops(rec, shape_a, shape_b) -> float:
    """Raw np.matmul rate at one of the kernel's operand shapes, this run.

    The output is allocated and touched once beforehand, so the rate is the
    DGEMM alone; the kernel's own allocations count as non-DGEMM time.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal(shape_a)
    B = rng.standard_normal(shape_b)[None]
    out = np.matmul(A, B)
    times = []
    for _ in range(3):
        with rec.span("kernels", "raw np.matmul") as s:
            np.matmul(A, B, out=out)
        times.append(s["t1"] - s["t0"])
    return 2.0 * shape_a[0] * shape_a[1] * shape_b[1] / median(times) / 1e9


def kernel_layers(rec, tally, kernel: DgemmKernel, C: np.ndarray) -> dict:
    """Each phase sweep alone on the same vector, next to the whole sigma.

    Every repetition times one untraced sigma, one traced sigma and the four
    phases back to back, so the ratios compare calls made moments apart.
    """
    plan, bc = kernel.plan, kernel.block_columns
    na, nb = plan.shape
    W = plan.w_matrix
    stack = C[None]
    rows = np.ascontiguousarray(C.T)[None]
    phases = {
        "one": lambda cnt: np.asarray(plan.Ta @ C) + np.asarray(plan.Tb @ rows[0]).T,
        "aa": lambda cnt: (
            same_spin_sigma_stack(plan.same_a, W, stack, bc, cnt)[0]
            if plan.same_a is not None else 0.0
        ),
        "bb": lambda cnt: (
            same_spin_sigma_stack(plan.same_b, W, rows, bc, cnt)[0].T
            if plan.same_b is not None else 0.0
        ),
        "ab": lambda cnt: mixed_spin_sigma_stack(plan, stack, bc, cnt)[0],
    }
    secs = {key: [] for key in phases}
    counts, parts, overhead, phase_frac, faults, sys_s = {}, {}, [], [], [], []
    for _ in range(TRACE_REPS):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        _, plain = timed(kernel.apply, C)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        sys_s.append(r1.ru_stime - r0.ru_stime)
        with shims(rec), rec.span("benchmark", "sigma") as whole:
            Hc = kernel.apply(C)
        traced = whole["t1"] - whole["t0"]
        for key, sweep in phases.items():
            counts[key] = SigmaCounters()
            with rec.span("kernels", f"phase {key}") as s:
                parts[key] = sweep(counts[key])
            secs[key].append(s["t1"] - s["t0"])
        overhead.append(traced / plain - 1.0)
        phase_frac.append(sum(v[-1] for v in secs.values()) / traced)
    secs = {key: median(v) for key, v in secs.items()}
    assembled = parts["one"].copy()
    for key in ("aa", "bb", "ab"):
        assembled += parts[key]
    tally.record(agree(assembled, Hc), "phase sweeps sum to the kernel's sigma")

    total = SigmaCounters()
    for key in ("aa", "bb", "ab"):
        total.add(counts[key])
    nn = plan.n * plan.n
    peak_ab = matmul_gflops(rec, (nn, nn), (nn, min(bc, nb) * na))
    out = {
        "plans.mb": plan.nbytes / 1e6,
        "kernels.one_s": secs["one"],
        "kernels.aa_s": secs["aa"],
        "kernels.bb_s": secs["bb"],
        "kernels.ab_s": secs["ab"],
        "kernels.phase_sum_frac": median(phase_frac),
        "kernels.dgemm_gflop": total.dgemm_flops / 1e9,
        "kernels.dgemm_calls": total.dgemm_calls,
        "kernels.gather_melem": total.gather_elements / 1e6,
        "kernels.scatter_melem": total.scatter_elements / 1e6,
        "kernels.ab_d_fill_frac": counts["ab"].gather_elements / (nn * na * nb),
        "kernels.peak_gflops": peak_ab,
        "kernels.ab_peak_frac": counts["ab"].dgemm_flops / secs["ab"] / 1e9 / peak_ab,
        "kernels.ab_nondgemm_s": secs["ab"] - counts["ab"].dgemm_flops / (peak_ab * 1e9),
        "kernels.page_faults": median(faults),
        "kernels.sys_s": median(sys_s),
        "obs.trace_overhead_frac": median(overhead),
    }
    if plan.same_a is not None:
        sp = plan.same_a
        peak_aa = matmul_gflops(
            rec, (sp.n_pairs, sp.n_pairs), (sp.n_pairs, sp.n_reduced * min(bc, nb))
        )
        out["kernels.aa_peak_gflops"] = peak_aa
        out["kernels.aa_peak_frac"] = counts["aa"].dgemm_flops / secs["aa"] / 1e9 / peak_aa
    return out


# -- sigma-halffill, sigma-highspin ----------------------------------------------


def sigma_checks(tally, name, seed, kernel, u, Hu, Hv, v) -> None:
    """Hermiticity on the full space, dense-H oracle, default-seed pins."""
    scale = max(np.linalg.norm(Hu), np.linalg.norm(Hv))
    tally.record(
        abs(np.vdot(u, Hv) - np.vdot(v, Hu)) <= REL_TOL * scale,
        "Hermiticity <u|Hv> = <v|Hu>",
    )
    space, small = SIGMA_SPACES[name]
    mo_s = random_mo(small.n, seed)
    p_s = small.problem(mo_s)
    C_s = unit_vector(p_s.shape, seed, 1)
    dense = build_dense_hamiltonian(mo_s, p_s.space_a, p_s.space_b)
    got = DgemmKernel(SigmaPlan.for_problem(p_s)).apply(C_s)
    tally.record(agree(got.ravel(), dense @ C_s.ravel()), "dense-H oracle")

    pin = PINS[name]
    if seed == pin["seed"]:
        u0, Hu0 = u, Hu
    else:
        p0 = space.problem(random_mo(space.n, pin["seed"]))
        u0 = unit_vector(p0.shape, pin["seed"], 1)
        Hu0 = DgemmKernel(SigmaPlan.for_problem(p0)).apply(u0)
    rq, norm = float(np.vdot(u0, Hu0)), float(np.linalg.norm(Hu0))
    tally.record(
        abs(rq - pin["rayleigh"]) <= REL_TOL * pin["sigma_norm"]
        and abs(norm - pin["sigma_norm"]) <= REL_TOL * pin["sigma_norm"],
        f"seed-{pin['seed']} pins: rayleigh {rq!r}, |sigma| {norm!r}",
    )


def sigma_workload(name, seed, seconds, trace, tally):
    space, _ = SIGMA_SPACES[name]
    mo = random_mo(space.n, seed)
    rec = SpanRecorder()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        with shims(rec) if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            problem = space.problem(mo)
            kernel = DgemmKernel(SigmaPlan.for_problem(problem))
            setups.append(time.perf_counter() - t0)
    u = unit_vector(problem.shape, seed, 1)
    v = unit_vector(problem.shape, seed, 2)
    Hv = kernel.apply(v)  # also the warm-up call
    if trace:
        Hu = kernel.apply(u)
        metrics = kernel_layers(rec, tally, kernel, u)
        metrics["plans.build_s"] = rec.total("SigmaPlan.for_problem")
    else:
        outputs = []

        def check(out):  # every call must repeat the first call's sigma
            outputs.append(out)
            return agree(out, outputs[0])

        times = closed_loop(tally, seconds, MIN_OPS, lambda: kernel.apply(u), check, "sigma")
        Hu = outputs[0]
        metrics = {"op_s": median(times), "setup_s": median(setups),
                   "peak_rss_mb": host.peak_rss_mb()}
    sigma_checks(tally, name, seed, kernel, u, Hu, Hv, v)
    return metrics, rec


# -- solve-h2o --------------------------------------------------------------------


def served_job(mol, spec: dict, timeout=CALL_TIMEOUT, *, resubmit=False):
    """One job on a fresh in-process service and workdir, then its resubmission.

    Returns the seconds taken to construct and start the service, then
    (record, result, seconds) for the cold job and, with ``resubmit``, the
    same triple for the identical resubmission.
    """
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(OUT, "work"))
    svc, start_s = timed(FCIService, workdir, max_workers=1)
    try:
        t0 = time.perf_counter()
        rec = svc.submit(molecule=mol, **spec)
        res = svc.result(rec.key, timeout=timeout)
        cold = (rec, res, time.perf_counter() - t0)
        hit = None
        if resubmit:
            t0 = time.perf_counter()
            rec2 = svc.submit(molecule=mol, **spec)
            res2 = svc.result(rec2.key, timeout=timeout)
            hit = (rec2, res2, time.perf_counter() - t0)
    finally:
        svc.close()
        shutil.rmtree(workdir, ignore_errors=True)
        # the closed service's worker thread and caches sit in reference
        # cycles; collect them now so the next job starts from the same heap
        del svc
        gc.collect()
    return start_s, cold, hit


def check_job(tally, cold, hit) -> None:
    _, res, _ = cold
    tally.record(
        bool(res["converged"]) and abs(res["energy"] - E_H2O) <= REL_TOL,
        f"H2O/6-31G converged to the pinned energy (E={res['energy']!r})",
    )
    if hit is not None:
        rec2, res2, _ = hit
        tally.record(
            rec2.cache_hit and res2["energy"] == res["energy"],
            "resubmission is a result-cache hit with the same energy",
        )


def solve_workload(name, seed, seconds, trace, tally):
    mol = Molecule.from_atoms(H2O_ATOMS, name="H2O")
    h2 = Molecule.from_atoms(H2_ATOMS, name="H2")
    # warm-up: first-use imports and code paths, on a job too small to matter
    served_job(h2, H2_JOB)
    rec = SpanRecorder()
    if not trace:
        # set-up: a started service that has answered a readiness job; the
        # bare construction takes ~0.3 ms, too little to time steadily
        setups = []
        for _ in range(SETUP_REPEATS):
            start_s, probe, _ = served_job(h2, H2_JOB)
            tally.record(bool(probe[1]["converged"]), "readiness job converged")
            setups.append(start_s + probe[2])
        times = []
        start = time.perf_counter()
        while len(times) < MIN_JOBS or time.perf_counter() - start < seconds:
            _, cold, hit = served_job(mol, H2O_JOB, resubmit=True)
            check_job(tally, cold, hit)
            times.append(cold[2])
        return {"op_s": median(times), "setup_s": median(setups),
                "peak_rss_mb": host.peak_rss_mb()}, None

    _, plain, _ = served_job(mol, H2O_JOB)
    check_job(tally, plain, None)
    with shims(rec):
        _, cold, hit = served_job(mol, H2O_JOB, resubmit=True)
    check_job(tally, cold, hit)
    _, dav, _ = served_job(mol, dict(H2O_JOB, method="davidson"))
    tally.record(
        abs(dav[1]["energy"] - cold[1]["energy"]) <= REL_TOL,
        "auto and davidson energies agree to 10 digits",
    )
    job, res = cold[0], cold[1]
    submit = rec.closed("FCIService.submit")[0]  # the cold job's submission
    sigma_spans = [s["t1"] - s["t0"] for s in rec.closed("HamiltonianOperator.apply")]
    layers = {
        "plans.build_s": rec.total("SigmaPlan.for_problem"),
        "integrals.ao_s": rec.total("compute_ao_integrals"),
        "scf.rhf_s": rec.total("rhf"),
        "scf.transform_s": rec.total("transform"),
        "solver.iterations": res["n_iterations"],
        "solver.n_sigma": res["n_sigma"],
        "solver.sigma_s": sum(sigma_spans),
        "solver.other_s": rec.total("FCISolver.run") - sum(sigma_spans)
        - rec.total("SigmaPlan.for_problem"),
        "service.submit_ms": 1e3 * (submit["t1"] - submit["t0"]),
        "service.queue_wait_s": job.started_at - job.submitted_at,
        "service.run_s": job.finished_at - job.started_at,
        "service.cache_hit_ms": 1e3 * hit[2],
        "obs.trace_overhead_frac": cold[2] / plain[2] - 1.0,
    }
    problem = FCISolver(mol, H2O_JOB["basis"], frozen_core=H2O_JOB["frozen_core"]).build_problem()[0]
    kernel = DgemmKernel(SigmaPlan.for_problem(problem))
    kl = kernel_layers(rec, tally, kernel, unit_vector(problem.shape, seed, 1))
    # the phases must account for the sigma the solver actually called
    layers["kernels.phase_sum_frac"] = sum(
        kl[f"kernels.{key}_s"] for key in ("one", "aa", "bb", "ab")
    ) / median(sigma_spans)
    return {**kl, **layers}, rec


# -- parallel-fci11-{shm,sockets,x1sim} ---------------------------------------------


def start_parallel(problem, backend: str) -> ParallelSigma:
    """ParallelSigma with its worker pool (if any) started now, not lazily."""
    if backend == "simulated":
        return ParallelSigma(problem)  # the default 16-MSP X1Config
    ps = ParallelSigma(
        problem, backend=backend, n_workers=2, blas_threads=1, shm_timeout=CALL_TIMEOUT
    )
    try:
        ps.backend.engine(ps.plan, ps.block_columns, ps.kernel_name)
    except BaseException:
        ps.close()
        raise
    return ps


def parallel_workload(name, seed, seconds, trace, tally):
    backend = PARALLEL_BACKENDS[name]
    mo = random_mo(FCI11.n, seed)
    rec = SpanRecorder()
    ps = None
    repeats = 1 if trace else (SETUP_REPEATS if backend == "simulated" else POOL_SETUP_REPEATS)
    try:
        setups = []
        for _ in range(repeats):
            if ps is not None:
                ps.close()
                ps = None
            with shims(rec) if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                ps = start_parallel(FCI11.problem(mo), backend)
                setups.append(time.perf_counter() - t0)
        u = unit_vector(ps.problem.shape, seed, 1)
        serial = DgemmKernel(ps.plan)
        ref, t_serial = timed(serial.apply, u)
        tally.record(agree(ps(u), ref), f"{backend} warm-up call equals serial sigma")
        check = lambda out: agree(out, ref)  # noqa: E731
        if not trace:
            times = closed_loop(tally, seconds, MIN_OPS, lambda: ps(u), check, f"{backend} sigma")
            return {"op_s": median(times), "setup_s": median(setups),
                    "peak_rss_mb": host.peak_rss_mb(include_children=True)}, None

        plain = closed_loop(tally, 0.0, TRACE_REPS, lambda: ps(u), check, f"{backend} sigma")
        serial_s = median([t_serial] + [timed(serial.apply, u)[1] for _ in range(TRACE_REPS)])
        calls = []
        with shims(rec):
            for _ in range(TRACE_REPS):
                ps.report = ParallelReport()  # one call's report at a time
                out, wall = timed(ps, u)
                tally.record(check(out), f"{backend} traced call equals serial sigma")
                calls.append((wall, ps.report))
        layers = kernel_layers(rec, tally, serial, u)
    finally:
        if ps is not None:
            ps.close()

    def per_call(fn):
        return median([fn(wall, rep) for wall, rep in calls])

    layers.update({
        "plans.build_s": rec.total("SigmaPlan.for_problem"),
        "parallel.spawn_s": setups[0],
        "parallel.speedup": serial_s / median(plain),
        "obs.trace_overhead_frac": per_call(lambda w, r: w) / median(plain) - 1.0,
    })
    if backend == "simulated":
        layers.update({
            "x1sim.virtual_s": per_call(lambda w, r: r.elapsed),
            "x1sim.ab_virtual_s": per_call(lambda w, r: r.phase_times["alpha-beta"]),
            "x1sim.imbalance_virtual_s": per_call(lambda w, r: r.load_imbalance),
            "x1sim.mb_moved": per_call(lambda w, r: r.bytes_communicated / 1e6),
            "x1sim.gflop": per_call(lambda w, r: r.flops / 1e9),
        })
    else:
        layers.update({
            "parallel.elapsed_s": per_call(lambda w, r: r.elapsed),
            "parallel.parent_s": per_call(lambda w, r: w - r.elapsed),
            "parallel.aa_s": per_call(lambda w, r: r.phase_times["alpha-alpha"]),
            "parallel.bb_s": per_call(lambda w, r: r.phase_times["beta-beta"]),
            "parallel.ab_s": per_call(lambda w, r: r.phase_times["alpha-beta"]),
            "parallel.imbalance_s": per_call(lambda w, r: r.load_imbalance),
            "parallel.mb_moved": per_call(lambda w, r: r.bytes_communicated / 1e6),
        })
    return layers, rec


# -- entry ----------------------------------------------------------------------

WORKLOADS = {
    "sigma-halffill": sigma_workload,
    "sigma-highspin": sigma_workload,
    "solve-h2o": solve_workload,
    **{name: parallel_workload for name in PARALLEL_BACKENDS},
}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    prov = host.provenance(ROOT, seed)
    log(f"provenance {json.dumps(prov)}")
    tally = Tally()
    leaks = host.LeakCheck()
    try:
        metrics, rec = WORKLOADS[name](name, seed, seconds, trace, tally)
        tally.hygiene(leaks)
    finally:
        host.stop_resource_tracker()
    if trace:
        units = LAYER_UNITS
        metrics = {key: float(metrics.get(key, 0.0)) for key in units}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{name}-seed{seed}.trace.json")
        rec.write_chrome(
            path, f"perfbench {name}",
            {"workload": name, "provenance": prov, "metrics": metrics,
             "self_s": rec.self_times()},
        )
        log(f"trace written to {os.path.relpath(path, ROOT)}")
    else:
        units = E2E_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in units},
    }
