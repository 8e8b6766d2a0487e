"""CPU placement of the package's thread pools.

A thread that sleeps between hand-offs is woken on the CPU of the thread
that woke it, so a pool thread and the thread that feeds it can share one
CPU while another CPU of the process's mask idles. Every pool the package
opens (``studies._map`` and the training run's worker in
``learn.run_training``) therefore runs inside ``cpu_placement``, which gives
the calling thread and each pool thread a CPU of their own while a pool
thread exists. Placement moves no result: every task's value depends only on
its inputs, never on the CPU that computes it.

The rule stands down beside a thread pool the interpreter did not start,
such as OpenBLAS's or OpenMP's (``foreign_threads``). Such a pool spins on
the CPUs it was started on, and a pinned pool thread would share one of
them with it: at OpenBLAS's default two threads on a 2-CPU host, pinning a
training run's worker made default 200-round OBDA and ``ideal`` runs more
than twice as slow.
"""
from __future__ import annotations

import functools
import itertools
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager


@functools.cache
def foreign_threads() -> bool:
    """Whether the process runs a thread that the ``threading`` module does
    not count, such as a BLAS or OpenMP pool: more entries in
    ``/proc/self/task`` than ``threading.active_count()``. An unreadable
    ``/proc`` reads as none.

    Read once, at the package's first placement. No pool of the package can
    exist before it, so no pool thread of the package that has just been
    joined, and is still leaving the task list, can be mistaken for one.
    After ``import numpy`` the task list holds 2 threads at OpenBLAS's
    default on a 2-CPU host and 1 under ``OPENBLAS_NUM_THREADS=1`` or
    ``OMP_NUM_THREADS=1``.
    """
    try:
        tasks = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return tasks > threading.active_count()


@contextmanager
def cpu_placement() -> Iterator[Callable[[], None] | None]:
    """The placement of one thread pool, opened and shut down inside the
    ``with`` block: yields the pool's ``initializer``, which each pool
    thread runs as it starts, or None where the rule pins nothing.

    The first pool thread to start pins the calling thread to the first CPU
    of the caller's affinity mask, and each pool thread pins itself to one
    of the mask's other CPUs, taken in turn, so more pool threads than
    other CPUs share them. Leaving the block, by return or by raise,
    restores the caller's mask; the pool's threads must have been joined by
    then. Nothing is pinned when the mask has one CPU, when the OS has no
    ``sched_setaffinity`` or beside a foreign thread pool
    (``foreign_threads``), and then the block gets None; nor when the pool
    starts no thread.
    """
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if len(mask) < 2 or foreign_threads():
        yield None
        return
    first, *others = sorted(mask)
    caller = threading.get_native_id()
    turns = itertools.cycle(others)
    lock = threading.Lock()
    pinned = False

    def pin() -> None:
        nonlocal pinned
        with lock:
            if not pinned:
                os.sched_setaffinity(caller, {first})
                pinned = True
            cpu = next(turns)
        os.sched_setaffinity(0, {cpu})

    try:
        yield pin
    finally:
        if pinned:
            os.sched_setaffinity(caller, mask)
