"""Pinned settings, the Ray session and host provenance.

Every setting that would otherwise follow the host is fixed here: Ray gets
2 CPUs whatever the machine shows, the encoder gets an explicit partition
count and salt, and one client drives the engine in a closed loop (the next
operation starts only after the previous one returns).
"""

from __future__ import annotations

import glob
import hashlib
import logging
import os
import platform
import subprocess
import sys
import tempfile

SETTINGS = {
    "ray_num_cpus": 2,
    "n_parts": 16,
    "salt_rows": 50_000,
    "ray_object_store_bytes": 384 << 20,
    "clients": 1,
    "loop": "closed",
}

# Unix socket paths (AF_UNIX) are limited to 107 bytes; Ray puts
# "<temp_dir>/session_<date>_<pid>/sockets/plasma_store" there (~62 bytes
# after temp_dir).
_MAX_RAY_TEMP_DIR = 44


def ray_temp_dir(work_root: str) -> tuple[str, bool]:
    """Ray's temp dir inside the checkout, or a fresh short dir under the
    system temp dir when the checkout path is too long for Ray's sockets.
    Returns ``(path, owned_outside_checkout)``."""
    inside = os.path.join(work_root, "ray")
    if len(inside) <= _MAX_RAY_TEMP_DIR:
        os.makedirs(inside, exist_ok=True)
        return inside, False
    return tempfile.mkdtemp(prefix="pb"), True


def start_ray(root: str, temp_dir: str) -> dict:
    """Start a fresh local Ray cluster whose workers import the engine from
    ``root``. Returns what the workers actually imported."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import ray

    ray.init(
        address="local",
        num_cpus=SETTINGS["ray_num_cpus"],
        object_store_memory=SETTINGS["ray_object_store_bytes"],
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    @ray.remote(num_cpus=1)
    def _engine_file() -> str:
        import parquet_converter_ray

        return parquet_converter_ray.__file__

    worker_file = ray.get(_engine_file.remote())
    return {"worker_engine_file": worker_file}


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def source_digest(root: str) -> str:
    """sha256 over the engine's Python sources (the checkout is not always a
    git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "parquet_converter_ray")
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _git_sha(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _nproc() -> str | None:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_times() -> tuple[int, int] | None:
    """(total, steal) jiffies of the whole VM, where the kernel reports them."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def steal_since(start: tuple[int, int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this VM since ``start``:
    other tenants' load, which no setting here controls."""
    end = cpu_times()
    if start is None or end is None or end[0] == start[0]:
        return None
    return (end[1] - start[1]) / (end[0] - start[0])


def provenance(root: str) -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    import parquet_converter_ray

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": _nproc(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc_caveat": "nproc honours OMP_NUM_THREADS; cpu_count/affinity are the cores visible",
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "duckdb": duckdb.__version__, "numpy": numpy.__version__},
        "git_sha": _git_sha(root),
        "engine_source_sha256": source_digest(root),
        "engine_file": parquet_converter_ray.__file__,
        "settings": SETTINGS,
    }
