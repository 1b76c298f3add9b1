"""Host speed calibration for the end-to-end timings.

On the shared 2-vCPU virtual machines this benchmark was built on, the
same work takes up to 1.6x longer from one minute to the next (the host
changes the clock speed our vCPUs get; no steal time is reported).  A
raw wall clock then says more about when a run happened than about the
program.  So the benchmark times a fixed calibration kernel right
before and after every timed phase and reports the phase's wall clock
scaled to a reference speed: ``seconds * REFERENCE_S / kernel_seconds``,
i.e. host seconds on a host where one kernel sample takes
``REFERENCE_S``.  The kernel mixes what the simulator spends its time
on: Python integer arithmetic, list building and sorting, and NumPy
argsorts.  It is the benchmark's own code, so it is identical on every
commit and a slower program still reads slower.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

# A round figure for one kernel sample on the 2-vCPU build host, where it
# took 6 to 14 ms depending on the host's state.
REFERENCE_S = 0.010
SAMPLES = 9
_MASK = (1 << 64) - 1


def _kernel() -> None:
    x = 0
    for i in range(20_000):
        x = (x * 6364136223846793005 + i) & _MASK
    values = [(i * 2654435761) & 0xFFFFF for i in range(20_000)]
    values.sort()
    keys = np.arange(100_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    np.argsort(keys, kind="stable")


def _median_kernel_seconds() -> float:
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _child(conn) -> None:
    conn.recv()  # start together with the other copies
    conn.send(_median_kernel_seconds())
    conn.close()


def kernel_seconds(processes: int = 1) -> float:
    """Median time of one kernel run, with ``processes`` running it at
    once: a phase that keeps two pool workers busy is compared with the
    speed two concurrent processes get, which on a shared host can be
    half the speed of one (two vCPUs that time-share a core)."""
    if processes <= 1:
        return _median_kernel_seconds()
    # fork starts every copy at once; this process has no threads, and
    # the program's own worker pool forks the same way.
    context = multiprocessing.get_context("fork")
    pipes, children = [], []
    for _ in range(processes):
        parent_end, child_end = context.Pipe()
        child = context.Process(target=_child, args=(child_end,))
        child.start()
        child_end.close()
        pipes.append(parent_end)
        children.append(child)
    try:
        for conn in pipes:
            conn.send("go")
        results = [conn.recv() for conn in pipes]
    finally:
        for child in children:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
        for conn in pipes:
            conn.close()
    return statistics.mean(results)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of a phase scaled to the reference host speed, given
    the kernel times measured right before and right after it."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
