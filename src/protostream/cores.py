"""The package's use of cores: one helper thread, one BLAS thread and
spawned worker processes.  Imports nothing from the package.

- ``fork_join(there, here)`` is the only way onto a second core: ``there``
  runs on the process's one helper thread, which runs such tasks one at a
  time in submission order, and ``here`` on the calling thread.  A
  ``there`` task never calls ``fork_join``, which would wait on a task
  queued behind itself; a ``here`` task may, and its ``there`` then queues
  behind the helper's current task, which waits on nothing.  Each task
  writes only what it alone owns, its random generator included.  A forked
  child inherits the pool but not its thread, so each process makes its
  helper on first use; an ``os.register_at_fork`` hook would keep this
  module, its pool and its thread alive past a re-import.
- ``from_both_ends(tasks, first)`` spreads a list of tasks over both
  threads: the helper takes them from the front while the calling thread
  runs ``first``, and then the calling thread takes them from the back
  until the ends meet.  Its tasks run on either thread, so a task never
  calls ``fork_join``; ``first`` may, and its ``there`` then waits for the
  helper to run out of tasks.  The results come back in task order, so a
  caller that merges them in that order gets bits that do not depend on
  which thread ran which task.
- ``in_halves`` splits a task in two once its work, the multiply-adds of
  its smallest product over all rows, reaches ``_SPLIT_MIN`` (2**22).  Each
  half then holds at least 4/15 of it, over 10**6 multiply-adds: below
  that, OpenBLAS on AVX-512 hosts takes a small-matrix kernel that rounds
  differently.  The cut is a multiple of 4, so a matrix-vector product
  groups its rows as the whole one does, and the split is always two-way,
  so the bits do not depend on the core count.
- The calling thread allocates every array the halves fill, and each half
  writes only its slices: the helper's allocations would land in a second
  malloc arena and raise the peak memory.
- ``one_blas_thread`` holds OpenBLAS at one thread for every command and
  simulator run: the helper is the package's one parallelism, a second
  BLAS thread competes with it for the cores, and a threaded GEMM rounds
  some odd shapes differently.
- ``process_map`` spawns its workers with ``BLAS_THREAD_VARS`` at 1: a
  forked worker would keep the parent's BLAS thread pool, and a spawned one
  that imports numpy with them unset starts OpenBLAS's threads.
- Both pins may run in a host process, nested or on several threads at
  once: the first body to start saves the caller's value and the last to
  end restores it.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from multiprocessing import get_context
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SPLIT_MIN = 1 << 22
_helper = (None, None)  # (process id, pool) of the process's helper thread


def _helper_pool() -> ThreadPoolExecutor:
    """This process's one helper thread, reached only through ``fork_join``."""
    global _helper
    # callers racing here may each make a pool; every pool runs the work
    # submitted to it, and the one not kept is collected with its thread
    if _helper[0] != os.getpid():
        _helper = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="cores"))
    return _helper[1]


def fork_join(there, here):
    """Run ``there()`` on the helper thread and ``here()`` on this one, and
    return ``(there(), here())`` once both have finished.  An error from
    ``here`` is raised after ``there`` has finished, whatever ``there`` did;
    one from ``there``, after ``here`` returns."""
    pending = _helper_pool().submit(there)
    try:
        result = here()
    except BaseException:
        pending.exception()  # waits, and leaves here's error to propagate
        raise
    return pending.result(), result


def from_both_ends(tasks: list, first):
    """Run ``tasks`` on both threads and ``first()`` on this one, and return
    ``(results, first())`` with the results in task order.

    The helper takes tasks from the front; this thread runs ``first`` and
    then takes tasks from the back, until the two ends meet.  Each task runs
    once.  After an error on either thread no further task starts, and the
    error is raised as ``fork_join`` raises it.
    """
    results = [None] * len(tasks)
    ends = [0, len(tasks)]  # the next task from the front; one past the next from the back
    lock = threading.Lock()

    def take(front: bool):
        with lock:
            if ends[0] == ends[1]:
                return None
            if front:
                ends[0] += 1
                return ends[0] - 1
            ends[1] -= 1
            return ends[1]

    def run(front: bool) -> None:
        while (i := take(front)) is not None:
            results[i] = tasks[i]()

    def here():
        value = first()
        run(False)
        return value

    def stopping(body, *args):
        try:
            return body(*args)
        except BaseException:
            with lock:  # the other thread takes no further task
                ends[1] = ends[0]
            raise

    _, value = fork_join(lambda: stopping(run, True), lambda: stopping(here))
    return results, value


def in_halves(task, size: int, work: int) -> None:
    """Run ``task(lo, hi)`` over ``[0, size)``, whole or, once ``work``
    reaches ``_SPLIT_MIN``, as ``[0, cut)`` on the helper and ``[cut, size)``
    here."""
    cut = size // 8 * 4
    if work < _SPLIT_MIN or cut == 0:
        task(0, size)
    else:
        fork_join(lambda: task(0, cut), lambda: task(cut, size))


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when numpy's BLAS has no such symbols (MKL, Accelerate)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            blas = ctypes.CDLL(str(lib))
            get = blas.scipy_openblas_get_num_threads64_
            put = blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


_pins = {}  # pin name -> (bodies running under the pin, caller's value)
_pins_lock = threading.Lock()


@contextmanager
def _pinned(name, get, put, value):
    """Run the body under ``put(value)``, then put back the caller's ``get()``."""
    with _pins_lock:
        running, saved = _pins.get(name, (0, None))
        _pins[name] = (running + 1, get() if running == 0 else saved)
        put(value)
    try:
        yield
    finally:
        with _pins_lock:
            running, saved = _pins.pop(name)
            if running > 1:
                _pins[name] = (running - 1, saved)
            else:
                put(saved)


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count."""
    threads = openblas_threads()
    with _pinned("blas", *threads, 1) if threads else nullcontext():
        yield


def _blas_vars() -> dict:
    return {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def _set_blas_vars(values: dict) -> None:
    for var, value in values.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def process_map(run, jobs: list, workers: int) -> list:
    """``[run(job) for job in jobs]``, in ``workers`` spawned processes when
    there are two or more workers and jobs; ``run`` must then be a
    module-level function."""
    if min(workers, len(jobs)) < 2:
        return [run(job) for job in jobs]
    with _pinned("environ", _blas_vars, _set_blas_vars,
                 dict.fromkeys(BLAS_THREAD_VARS, "1")), \
            ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(run, jobs))
