"""Worker processes and BLAS threads.

`map_jobs` runs a list of jobs on at most one process per job, up to the
requested workers, and sets every OpenBLAS loaded in each to one thread.
The package imports no SciPy, so that is NumPy's OpenBLAS alone unless a
caller has loaded SciPy's too. With one worker the jobs run in the calling
process, also on one thread, and the caller's thread counts come back
afterwards. The CLI tells OpenBLAS before NumPy loads (OPENBLAS_NUM_THREADS),
so neither its process nor the workers forked from it start a second BLAS
thread, and sets the loaded libraries again when `main()` starts, for a
caller that loaded NumPy first. No BLAS call in the pipeline gets faster on
two threads (the largest, the thin SVD of the dependence model at p=2000,
T=240, takes longer), while a second thread spins beside every small call,
and with as many processes as cores the threads of different processes spin
against each other.

`ProcessPoolExecutor` is imported when the first pool starts (PEP 562), so
a process that runs its jobs in place never loads `concurrent.futures`'
process machinery.
"""

from __future__ import annotations

import ctypes
import os


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else every core of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Thread-count entry points of the OpenBLAS builds NumPy and SciPy ship with;
# the builds with 64-bit integers add a suffix, the wheels' builds a prefix.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_thread_controls() -> list[tuple]:
    """(set_num_threads, get_num_threads) of each OpenBLAS library this
    process has already loaded, found by name in /proc/self/maps; empty
    where there is none or the platform has no such file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            if hasattr(lib, symbol.format("set")):
                setter = getattr(lib, symbol.format("set"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter = getattr(lib, symbol.format("get"))
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def _limit_blas_threads(threads: int) -> None:
    """Run every loaded OpenBLAS on `threads` threads."""
    for set_num_threads, _ in _openblas_thread_controls():
        set_num_threads(threads)


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use and cached here."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def map_jobs(fn, jobs: list, workers: int, catch: tuple = ()) -> list:
    """[fn(job) for job in jobs], run on min(workers, len(jobs)) processes,
    or in this process when that is at most one; `fn` and each job must
    pickle. Every job runs OpenBLAS on one thread: in this process, the
    caller's thread counts come back when the jobs end, also on an error.
    An exception of a type in `catch` stands in for its job's result; any
    other propagates, the one of the earliest job first."""
    def outcome(call, *args):
        try:
            return call(*args)
        except catch as exc:
            return exc

    processes = min(workers, len(jobs))
    if processes <= 1:
        controls = _openblas_thread_controls()
        before = [get_num_threads() for _, get_num_threads in controls]
        _limit_blas_threads(1)
        try:
            return [outcome(fn, job) for job in jobs]
        finally:
            for (set_num_threads, _), threads in zip(controls, before):
                set_num_threads(threads)
    executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    with executor(max_workers=processes, initializer=_limit_blas_threads,
                  initargs=(1,)) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        return [outcome(fut.result) for fut in futures]
