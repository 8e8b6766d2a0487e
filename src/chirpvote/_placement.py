"""CPU placement of the package's thread pools.

A thread that sleeps between hand-offs is woken on the CPU of the thread
that woke it, so a pool thread and the thread that feeds it can share one
CPU while another CPU of the process's mask idles. Every pool the package
opens (``studies._map`` and the chirp run's draw worker in
``learn.run_training``) therefore runs inside ``cpu_placement``, which gives
the calling thread and each pool thread a CPU of their own while a pool
thread exists. Placement moves no result: every task's value depends only on
its inputs, never on the CPU that computes it.
"""
from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager


@contextmanager
def cpu_placement() -> Iterator[Callable[[], None]]:
    """The placement of one thread pool, opened and shut down inside the
    ``with`` block: yields the pool's ``initializer``, which each pool
    thread runs as it starts.

    The first pool thread to start pins the calling thread to the first CPU
    of the caller's affinity mask, and each pool thread pins itself to one
    of the mask's other CPUs, taken in turn, so more pool threads than
    other CPUs share them. Leaving the block, by return or by raise,
    restores the caller's mask; the pool's threads must have been joined by
    then. Nothing is pinned when the mask has one CPU, when the OS has no
    ``sched_setaffinity``, or when the pool starts no thread.
    """
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if len(mask) < 2:
        yield lambda: None
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
