"""Fixed calibration loop that every timed pass is divided by.

The loop does the kind of pure-Python work the program does (tuple keys,
dict inserts and lookups, sha256 of short strings, exact ``Fraction``
arithmetic) and imports nothing from ``gowerslab``, so no change to the
program can move it.  Timing it just before and just after a pass and
dividing the pass's wall time by the mean turns seconds into ``calib``
units, which cancels most of the host's process-to-process speed drift.
"""

from __future__ import annotations

import gc
import hashlib
import time
from fractions import Fraction

ROUNDS = 10_000

# Result of ``calibration_loop(ROUNDS)``; a different value means the loop
# did not run as written.
EXPECTED = 10_480


def calibration_loop(rounds: int = ROUNDS) -> int:
    memo: dict = {}
    hits = 0
    total = Fraction(0)
    for i in range(rounds):
        key = ("G", i % 31, tuple(range(i % 7)), (i * 7) % 13)
        if key in memo:
            hits += 1
        else:
            memo[key] = i
        digest = hashlib.sha256(f"{i}|({i % 5};{i % 11})".encode()).digest()
        total += Fraction(digest[0], 1 + i % 17) - Fraction(digest[1], 3 + i % 5)
    return hits + total.numerator % 10_000


def timed_calibration() -> float:
    """Wall seconds of one calibration loop, run with the cyclic garbage
    collector off so that what the program left alive cannot slow it;
    raises if its result is off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = calibration_loop()
        elapsed = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"calibration loop returned {result}, expected {EXPECTED}")
    return elapsed
