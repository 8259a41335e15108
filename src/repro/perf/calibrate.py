"""Host measurements of the cost model's synchronisation unit costs.

The performance model prices a lock acquisition, a critical section and a
reduction element at what they cost on the host, measured here, rather than
at hard-coded guesses.
"""

from __future__ import annotations

import time


def measure_lock_overhead(samples: int = 20000) -> float:
    """Measure the cost of one uncontended Lock acquire/release pair (seconds)."""
    import threading

    lock = threading.Lock()
    start = time.perf_counter()
    for _ in range(samples):
        lock.acquire()
        lock.release()
    return (time.perf_counter() - start) / samples


def measure_critical_overhead(samples: int = 20000) -> float:
    """Measure the cost of one uncontended RLock acquire/release pair (seconds)."""
    import threading

    lock = threading.RLock()
    start = time.perf_counter()
    for _ in range(samples):
        lock.acquire()
        lock.release()
    return (time.perf_counter() - start) / samples


def measure_reduction_cost(elements: int = 200000) -> float:
    """Measure the cost per element of summing two float arrays (seconds/element)."""
    import numpy as np

    a = np.random.default_rng(0).random(elements)
    b = np.random.default_rng(1).random(elements)
    start = time.perf_counter()
    for _ in range(5):
        a = a + b
    return (time.perf_counter() - start) / (5 * elements)
