"""Executable contract for finite (approximate) Gowers-style spaces.

A space instance bundles a finite point universe, a finite subspace
palette, two quasiorder-like relations ``leq`` and ``leq_star``, a
history-dependent admission relation, and partial witness functions for
the meet and fusion axioms.  Everything downstream (games, solver,
strategy transformations) consumes only this interface, so exotic spaces
(parity-twisted admission, bit-decorated points, metric discretizations)
are ordinary instances.

Points and subspaces are handled as integer ids indexing the instance's
canonical enumerations; all witness searches break ties by taking the
first hit in enumeration order, which keeps every construction in the
package reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import Budget, FiniteExhaustion, NoMetric

PointId = int
SubspaceId = int

# Admission structure tags.  "forgetful" admission depends only on the last
# point of the history, "length_indexed" on the last point and the history
# length, "full_history" on everything.  The tag only drives caching and
# which axiom variant applies; the admits callable is always authoritative.
FORGETFUL = "forgetful"
LENGTH_INDEXED = "length_indexed"
FULL_HISTORY = "full_history"


class SpaceInstance:
    """A finite, executable realization of the space contract.

    Immutable after construction (the caches are internal); safe to share
    across concurrent workers.

    Parameters
    ----------
    points, palette:
        Canonical enumerations.  ``points[i]`` is the label of point id
        ``i``; ``palette[j]`` a display label for subspace id ``j``.
    leq, leq_star:
        Decidable relations on subspace ids.
    admits:
        ``admits(history, p)`` for a nonempty tuple of point ids.
    meet_witness:
        Partial: returns ``r`` with ``r <= p``, ``r <= q`` and
        ``p <=* r`` whenever defined and ``p <=* q``, else ``None``.
    fusion_witness:
        Partial on finite ``leq``-decreasing chains; returns ``p*`` with
        ``p* <= chain[0]`` and ``p* <=* p_i`` for every element, or
        raises :class:`FiniteExhaustion`.
    metric:
        Optional exact distance on point ids; present iff the instance is
        approximate.
    asymptotic_slack:
        The slack parameter ``t`` of the instance's finite reading of
        "finite codimension / cofinite inside".
    """

    def __init__(
        self,
        name: str,
        points: Sequence,
        palette: Sequence,
        leq: Callable[[SubspaceId, SubspaceId], bool],
        leq_star: Callable[[SubspaceId, SubspaceId], bool],
        admits: Callable[[tuple, SubspaceId], bool],
        meet_witness: Callable[[SubspaceId, SubspaceId], Optional[SubspaceId]],
        fusion_witness: Callable[[tuple], SubspaceId],
        metric: Optional[Callable[[PointId, PointId], Fraction]] = None,
        asymptotic_slack: int = 0,
        admission: str = FORGETFUL,
        compatible_hint: Optional[Callable[[SubspaceId, SubspaceId], bool]] = None,
        system=None,
        meta: Optional[dict] = None,
    ):
        self.name = name
        self.points = tuple(points)
        self.palette = tuple(palette)
        self.leq = leq
        self.leq_star = leq_star
        self.admits = admits
        self.meet_witness = meet_witness
        self.fusion_witness = fusion_witness
        self.metric = metric
        self.asymptotic_slack = asymptotic_slack
        self.admission = admission
        self.compatible_hint = compatible_hint
        self.system = system
        self.meta = dict(meta or {})
        self._below: dict[SubspaceId, tuple] = {}
        self._lessapprox_below: dict[SubspaceId, tuple] = {}
        self._admitted: dict = {}
        self._compat: dict = {}

    def derive(self, **overrides) -> "SpaceInstance":
        """A new instance with the given constructor fields replaced and
        the rest shared; its caches start empty.  The public attributes
        are exactly the constructor's parameters."""
        fields = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        return SpaceInstance(**{**fields, **overrides})

    # -- derived relations -------------------------------------------------

    def lessapprox(self, p: SubspaceId, q: SubspaceId) -> bool:
        """p is, up to slack, a full-size subspace of q."""
        return self.leq(p, q) and self.leq_star(q, p)

    def compatible(self, p: SubspaceId, q: SubspaceId) -> bool:
        """Some palette subspace lies below both p and q."""
        key = (p, q) if p <= q else (q, p)
        hit = self._compat.get(key)
        if hit is None:
            if self.compatible_hint is not None:
                hit = self.compatible_hint(key[0], key[1])
            else:
                hit = any(
                    self.leq(r, key[0]) and self.leq(r, key[1])
                    for r in range(len(self.palette))
                )
            self._compat[key] = hit
        return hit

    def common_lower_bound(self, p: SubspaceId, q: SubspaceId) -> Optional[SubspaceId]:
        """First palette r with r <= p and r <= q, or None."""
        for r in range(len(self.palette)):
            if self.leq(r, p) and self.leq(r, q):
                return r
        return None

    # -- enumeration helpers (cached) ---------------------------------------

    def subspaces(self) -> range:
        return range(len(self.palette))

    def below(self, p: SubspaceId) -> tuple:
        hit = self._below.get(p)
        if hit is None:
            hit = tuple(q for q in self.subspaces() if self.leq(q, p))
            self._below[p] = hit
        return hit

    def lessapprox_below(self, p: SubspaceId) -> tuple:
        hit = self._lessapprox_below.get(p)
        if hit is None:
            hit = tuple(q for q in self.subspaces() if self.lessapprox(q, p))
            self._lessapprox_below[p] = hit
        return hit

    def admitted_points(self, history: tuple, p: SubspaceId) -> tuple:
        """Points x with history + (x,) admitted below p, in canonical order."""
        if self.admission == FORGETFUL:
            key = (p,)
        elif self.admission == LENGTH_INDEXED:
            key = (p, len(history))
        else:
            key = (p, history)
        hit = self._admitted.get(key)
        if hit is None:
            hit = tuple(
                x for x in range(len(self.points)) if self.admits(history + (x,), p)
            )
            self._admitted[key] = hit
        return hit

    def set_admitted(self, elements, p: SubspaceId) -> bool:
        """Every element of the set is admitted below p (point-only form)."""
        return all(self.admits((x,), p) for x in elements)

    # -- metric -------------------------------------------------------------

    def distance(self, x: PointId, y: PointId) -> Fraction:
        """Declared metric, or the discrete 0/1 distance for plain spaces."""
        if self.metric is not None:
            return self.metric(x, y)
        return Fraction(0) if x == y else Fraction(1)

    def require_metric(self) -> None:
        if self.metric is None:
            raise NoMetric(f"instance {self.name!r} carries no metric")

    def __repr__(self) -> str:
        return (
            f"SpaceInstance({self.name!r}, {len(self.points)} points, "
            f"{len(self.palette)} subspaces)"
        )


@dataclass
class AxiomCheck:
    passed: bool
    counterexample: Optional[tuple] = None
    checked: int = 0


@dataclass
class AxiomReport:
    axioms: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.axioms.values())

    def summary(self) -> str:
        parts = []
        for name in sorted(self.axioms):
            c = self.axioms[name]
            parts.append(f"{name}:{'pass' if c.passed else 'FAIL'}")
        return " ".join(parts)


def _decreasing_chains(space: SpaceInstance, max_len: int, budget: Budget):
    """All nonempty leq-decreasing palette chains of length <= max_len, in
    depth-first canonical order, one tick per chain.  A chain is extended
    over the cached ``space.below`` of its last element."""
    stack = [(p,) for p in reversed(space.subspaces())]
    while stack:
        chain = stack.pop()
        budget.tick()
        yield chain
        if len(chain) < max_len:
            stack.extend(chain + (q,) for q in reversed(space.below(chain[-1])))


def check_axioms(
    space: SpaceInstance, horizon: int, budget: Optional[Budget] = None
) -> AxiomReport:
    """Exhaustively check the five space axioms on a finite instance.

    ``horizon`` bounds the history lengths explored for the admission
    axioms and the chain lengths fed to the fusion witness.  Approximate
    instances (metric present) are checked with the point-only admission
    axioms.

    Each quantifier runs in canonical p-major order and stops at its
    first counterexample; ``checked`` counts the cases up to and
    including it.  The budget is charged what a per-pair sweep would
    charge (a tick per pair, chain or history), a row at a time.  ``leq``
    is read once per pair, through ``space.below``: chains extend over
    it, and axioms 1 and 5 walk only the pairs with p <= q (axiom 1
    still counts all n * n pairs as checked).
    """
    budget = budget or Budget(where="check_axioms")
    report = AxiomReport()
    n = len(space.palette)
    npts = len(space.points)
    # above[p]: every q with p <= q, ascending.
    above = [[] for _ in range(n)]
    for q in range(n):
        for p in space.below(q):
            above[p].append(q)

    # Axiom 1: leq implies leq_star.
    check = AxiomCheck(True)
    for p in range(n):
        bad = next((q for q in above[p] if not space.leq_star(p, q)), None)
        row = n if bad is None else bad + 1
        budget.tick(row)
        check.checked += row
        if bad is not None:
            check.passed = False
            check.counterexample = (p, bad)
            break
    report.axioms["axiom1"] = check

    # Axiom 2: the meet witness, where defined, behaves.
    check = AxiomCheck(True)
    for p in range(n):
        for q in [q for q in range(n) if space.leq_star(p, q)]:
            r = space.meet_witness(p, q)
            if r is None:
                continue
            check.checked += 1
            if not (space.leq(r, p) and space.leq(r, q) and space.leq_star(p, r)):
                check.passed = False
                check.counterexample = (p, q, r)
                break
        budget.tick(n if check.passed else q + 1)
        if not check.passed:
            break
    report.axioms["axiom2"] = check

    # Axiom 3: fusion over all decreasing chains up to the horizon.
    check = AxiomCheck(True)
    for chain in _decreasing_chains(space, horizon, budget):
        check.checked += 1
        try:
            star = space.fusion_witness(chain)
        except FiniteExhaustion:
            # Honest exhaustion is allowed; a wrong witness is not.
            continue
        if not space.leq(star, chain[0]) or not all(
            space.leq_star(star, p) for p in chain
        ):
            check.passed = False
            check.counterexample = (chain, star)
            break
    report.axioms["axiom3"] = check

    # Axioms 4 and 5, in the form matching the admission structure.  A
    # present metric means the point-only axiom variant applies; forgetful
    # admission collapses the history quantifier to a single point anyway.
    point_only = space.metric is not None or space.admission == FORGETFUL

    def histories(max_len):
        # Nonempty histories up to max_len points, canonical order.
        out = []
        frontier = [()]
        for _ in range(max_len):
            new = []
            for h in frontier:
                for x in range(npts):
                    budget.tick()
                    new.append(h + (x,))
            out.extend(new)
            frontier = new
        return out

    max_prefix = 0 if point_only else horizon - 1
    prefixes = [()] + histories(max_prefix)
    check = AxiomCheck(True)
    for p in range(n):
        for s in prefixes:
            budget.tick(npts)
            check.checked += 1
            if not any(space.admits(s + (x,), p) for x in range(npts)):
                check.passed = False
                check.counterexample = (p, s)
                break
        if not check.passed:
            break
    report.axioms["axiom4"] = check

    # Axiom 5 over the pairs p <= q, p-major: admission below p implies
    # admission below q.
    all_hists = histories(1 if point_only else horizon)
    check = AxiomCheck(True)
    for s in all_hists:
        admitted = [space.admits(s, p) for p in range(n)]
        row = 0
        for p in range(n):
            if admitted[p]:
                bad = next((j for j, q in enumerate(above[p]) if not admitted[q]), None)
                if bad is not None:
                    row += bad + 1
                    check.passed = False
                    check.counterexample = (s, p, above[p][bad])
                    break
            row += len(above[p])
        budget.tick(row)
        check.checked += row
        if not check.passed:
            break
    report.axioms["axiom5"] = check

    return report


def with_system(space: SpaceInstance, system) -> "SpaceInstance":
    """A view of the instance carrying a precompact system (needed by the
    strong asymptotic game)."""
    return space.derive(system=system)


def iterated_meet(
    space: SpaceInstance, parts: Sequence[SubspaceId], relative_to: SubspaceId
) -> SubspaceId:
    """Fold the meet witness over subspaces all lessapprox ``relative_to``.

    Returns ``p*`` with ``p* lessapprox relative_to`` and ``p* <= part``
    for every part.  Raises :class:`FiniteExhaustion` when a meet is
    undefined along the way.
    """
    parts = list(parts)
    if not parts:
        return relative_to
    acc = parts[0]
    if not space.lessapprox(acc, relative_to):
        raise FiniteExhaustion(
            "iterated_meet", f"subspace {acc} is not lessapprox {relative_to}"
        )
    for nxt in parts[1:]:
        if space.leq(acc, nxt):
            continue
        r = space.meet_witness(acc, nxt)
        if r is None:
            raise FiniteExhaustion(
                "iterated_meet", f"meet of {acc} and {nxt} undefined"
            )
        acc = r
    # Chained meets consume slack; on a finite instance the accumulated
    # result can drop out of the lessapprox cone, which must be reported
    # rather than played as an illegal move.
    if not space.lessapprox(acc, relative_to):
        raise FiniteExhaustion(
            "iterated_meet",
            f"slack budget exceeded: {acc} is no longer lessapprox {relative_to}",
        )
    return acc
