"""One workload in a fresh interpreter.

Runs passes of the workload's command list through `catspin.cli.main`, one
command at a time, until the next pass would end past --seconds (at least
one pass).  Every pass writes into its own directory; the law checks run in
the parent after this process has ended.  Writes a JSON report with the
per-pass wall and CPU times, the exit codes, the peak RSS and the run
record, plus the layer spans when --spans is given.

Usage: python3 bench/child.py WORKLOAD SEED SECONDS OUT_DIR REPORT [SPANS]
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import catspin.cli
import numpy as np
import scipy

import spans
import workloads


def _openblas_threads(lib_dir: str, symbol: str) -> int | None:
    """Resolved thread count of a bundled OpenBLAS (already loaded, so
    dlopen hands back the live library)."""
    for path in glob.glob(os.path.join(lib_dir, "libscipy_openblas*.so*")):
        func = getattr(ctypes.CDLL(path), symbol, None)
        if func is not None:
            func.argtypes = []
            func.restype = ctypes.c_int
            return func()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record() -> dict:
    """Machine, versions and the BLAS thread settings this process runs with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    site = Path(np.__file__).parent.parent
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_threads_numpy": _openblas_threads(
            str(site / "numpy.libs"), "scipy_openblas_get_num_threads64_"),
        "blas_threads_scipy": _openblas_threads(
            str(site / "scipy.libs"), "scipy_openblas_get_num_threads"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def _run_command(argv: list[str]) -> int:
    try:
        return catspin.cli.main(argv)
    except Exception:  # an escaped exception is a failed command, not a dead run
        traceback.print_exc()
        return -1


def main(workload: str, seed: int, seconds: float, out_dir: Path, report: Path,
         spans_path: Path | None) -> None:
    commands = workloads.build(workload, seed)
    recorder = None
    if spans_path is not None:
        recorder = spans.Recorder()
        spans.install(recorder)
    passes = []
    start = time.perf_counter()
    while True:
        pass_dir = out_dir / f"pass{len(passes)}"
        pass_dir.mkdir(parents=True)
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        exits = [_run_command(cmd.argv(pass_dir)) for cmd in commands]
        wall = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        passes.append({"wall_s": wall, "cpu_s": cpu, "exits": exits})
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    if recorder is not None:
        recorder.write(spans_path)
    doc = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "catspin": catspin.cli.__file__,
        "record": run_record(),
    }
    report.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(args[0], int(args[1]), float(args[2]), Path(args[3]), Path(args[4]),
         Path(args[5]) if len(args) > 5 else None)
