"""Exception types and the node-budget guard shared across the package.

Finite truncations of infinitary constructions can run out of room.  The
rule everywhere in this package is that running out must be loud: an
operation either finishes with a checkable result or raises one of the
exceptions below carrying enough context to diagnose where the finite
instance was exhausted.
"""

from __future__ import annotations

import time


class GowersLabError(Exception):
    """Base class for all package-specific errors."""


class ExhaustionBudget(GowersLabError):
    """An enumeration exceeded its configured node budget."""

    def __init__(self, nodes: int, where: str = ""):
        self.nodes = nodes
        self.where = where
        msg = f"node budget of {nodes} exhausted"
        if where:
            msg += f" in {where}"
        super().__init__(msg)


class TimeExhausted(ExhaustionBudget):
    """A budget's deadline passed during an enumeration."""

    def __init__(self, where: str = ""):
        self.nodes = None
        self.where = where
        msg = "time budget exhausted"
        if where:
            msg += f" in {where}"
        GowersLabError.__init__(self, msg)


class FiniteExhaustion(GowersLabError):
    """A witness search (meet, fusion, diagonalization) ran out of subspaces.

    The infinite theory guarantees these witnesses exist; a finite palette
    may not contain them.  ``stage`` records which step of which
    construction failed.
    """

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        self.detail = detail
        msg = f"finite exhaustion at {stage}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IllegalPosition(GowersLabError):
    """A move history does not replay legally from the empty position."""


class IllegalMove(GowersLabError):
    """A move is not legal at the given position."""


class NotTerminal(GowersLabError):
    """An outcome was requested from a position that is not finished."""


class StrategyIncomplete(GowersLabError):
    """A strategy table has no entry for a reachable position."""

    def __init__(self, position_key):
        self.position_key = position_key
        super().__init__(f"strategy table has no entry for position {position_key!r}")


class StrategyRefused(GowersLabError, ValueError):
    """A transformation refused its input strategy: the wrong owner or
    game, unverified, or a table with memory where it reads none."""


class PigeonholeUnavailable(GowersLabError):
    """No palette subspace decides the requested point set.

    ``witness`` holds a pair of points showing the failure when one is
    available (a point inside the set and one outside it, both admitted).
    """

    def __init__(self, detail: str = "", witness=None):
        self.witness = witness
        msg = "pigeonhole principle unavailable"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NoMetric(GowersLabError):
    """A metric operation was applied to an instance without a metric."""


class NotDense(GowersLabError):
    """A candidate dense set does not cover the space at the needed scale."""


class KindMismatch(GowersLabError):
    """A construction was applied to an instance of the wrong kind."""


class SpecInvalid(GowersLabError):
    """An instance or scenario description is internally inconsistent."""


class PaletteNotClosedUnderMeet(SpecInvalid):
    """An explicit palette is missing the intersection of two members."""

    def __init__(self, p, q):
        self.pair = (p, q)
        super().__init__(f"palette misses the meet of subspaces {p} and {q}")


# Ticks between two clock reads of a budget with a deadline.
CLOCK_EVERY = 4096


class Budget:
    """Mutable node counter raising :class:`ExhaustionBudget` when spent,
    or :class:`TimeExhausted` once its optional ``deadline`` (a
    ``time.monotonic()`` reading) has passed.

    A single budget may be threaded through nested enumerations; ticks are
    cumulative.  ``tick`` makes one comparison, against a threshold: the
    node limit, or with a deadline the tick count of the next clock read,
    ``CLOCK_EVERY`` ticks after the last one.
    """

    def __init__(self, nodes: int = 10_000_000, where: str = "", deadline=None):
        self.limit = nodes
        self.used = 0
        self.where = where
        self.deadline = deadline  # None: the clock is never read
        self._threshold = nodes if deadline is None else min(nodes, CLOCK_EVERY)

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self._threshold:
            self._past_threshold()

    def _past_threshold(self) -> None:
        if self.used > self.limit:
            raise ExhaustionBudget(self.limit, self.where)
        if time.monotonic() > self.deadline:
            raise TimeExhausted(self.where)
        self._threshold = min(self.limit, self.used + CLOCK_EVERY)
