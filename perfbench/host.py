"""Host facts the benchmark needs: provenance, memory peaks, leak snapshots."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time

SHM_DIR = "/dev/shm"


def provenance(root: str, seed: int) -> dict:
    """Where a result came from: code identity, host, numerics stack, seed."""
    import numpy as np

    from repro.core import HAVE_NUMBA

    try:
        sha = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # benchmark checkouts need not be git repositories
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {
            k: f"{v.get('name')} {v.get('version')}"
            for k, v in cfg["Build Dependencies"].items()
        }
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "have_numba": bool(HAVE_NUMBA),
        "seed": seed,
    }


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> set[int]:
    """Live child processes of this process.

    multiprocessing's resource tracker is left out: it lives for the whole
    interpreter once shared memory has been used, by design of the stdlib.
    """
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read()
        except (OSError, IndexError, ValueError):
            continue
        if b"resource_tracker" not in cmd:
            out.add(int(entry))
    return out


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process, plus its live children's.

    Children are charged as their count times the largest child peak: which
    worker draws the biggest tasks from the dynamic load balancer changes
    from run to run, the footprint a pool must be provisioned for does not.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kids = [_status_kb(pid, "VmHWM") for pid in child_pids()]
        print(f"perfbench: peak rss kB: self {kb}, children {kids}", file=sys.stderr)
        kb += len(kids) * max(kids, default=0)
    return kb / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if running, and wait for it.

    The stdlib starts it on first use of shared memory and leaves it to die
    with the interpreter; stopping it here means the run ends with every
    process it started reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


class LeakCheck:
    """Snapshot shm segments and children now; :meth:`leaks` lists new ones.

    Children get a short grace period to be reaped after their pool closed.
    """

    def __init__(self):
        self.shm = shm_segments()
        self.children = child_pids()

    def leaks(self, grace: float = 5.0) -> list[str]:
        deadline = time.monotonic() + grace
        while True:
            shm = sorted(shm_segments() - self.shm)
            kids = sorted(child_pids() - self.children)
            if not (shm or kids) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        return [f"shm:{name}" for name in shm] + [f"pid:{pid}" for pid in kids]
