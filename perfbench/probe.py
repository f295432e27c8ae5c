"""Host-speed probe: a fixed slice of interpreter work, timed between questions.

The shared host this benchmark runs on changes speed by up to 1.9x within
seconds (a fixed pure-Python loop's 5-second means spread by 0.28 over three
minutes), so raw wall times of in-process, single-client workloads spread
more across runs than their bounds allow. Timing this probe right before and
after each question, in the same thread, measures the host's speed at that
moment; a question's time divided by it is its time at the reference speed
``REF_S``. The probe is benchmark code, so it is the same on every commit.

Its mix resembles the program's hot path: string-keyed dict lookups in a
scattered order and a SHA-256 digest every eighth lookup. Its table is small
enough to be back in the CPU caches within microseconds, so what the program
leaves in the caches does not change its cost (after a random walk over
100 MB of objects it takes 1.02x its back-to-back time; a 60,000-key table
took 2.5x, which would hide part of any speed-up that shortens questions).
Apart from one iterator and the pair it reuses, it allocates only objects
the cyclic garbage collector does not track, and it runs with the collector
off, so the program's heap does not change its cost.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

REF_S = 0.0065  # the probe's median between two heuristic-cold questions (2 vCPUs, Python 3.11)
TABLE_SIZE = 2_048
LOOKUPS = 16_000

_rng = random.Random(7)
_KEYS = tuple(f"m.0{_rng.getrandbits(40):x}" for _ in range(TABLE_SIZE))
_TABLE = {key: index for index, key in enumerate(_KEYS)}  # str -> int: untracked by the collector
_ORDER = tuple((i * 7919) % TABLE_SIZE for i in range(LOOKUPS))


def _work() -> int:
    acc = 0
    for step, i in enumerate(_ORDER):
        key = _KEYS[i]
        if step % 8 == 0:
            acc += hashlib.sha256(key.encode()).digest()[0]
        acc += _TABLE[key] & 7
    return acc


def probe() -> float:
    """Seconds one fixed slice of work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
