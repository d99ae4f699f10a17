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

A relation may carry bulk rows as palette bitsets (bit ``q`` of an int
for subspace id ``q``): ``relation.row(p)`` is the set of every ``q``
with ``relation(p, q)``, and ``leq.column(q)`` the set of every ``p``
with ``leq(p, q)`` (``leq_star.column(q)`` likewise, optional: the
axiom check transposes the star rows without it);
``admits.row(history)`` is the set of every ``p``
with ``admits(history, p)``.  The witnesses may carry bulk forms the
same way: ``meet_witness.groups(p, among)`` maps each ``r`` to the set
of the ``q`` in ``among`` with ``meet(p, q) = r`` (undefined meets left
out), ``fusion_witness.row(chain, among)`` is ``(same, others)``: the
set of the ``r`` in ``among`` whose ``chain + (r,)`` fuses to ``r``
itself, and ``{r: fused id, or None on FiniteExhaustion}`` for the
rest, and ``fusion_witness.level(chain, among)`` is the set of the
``r`` in ``among`` whose ``chain + (r,)`` fuses every element of
``leq.column(r)`` to itself.  The instance picks these forms up at
construction; a relation or witness without them gets them from one
call per pair or chain (a level, from one fusion row per extension).
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
        self.system = system
        self.meta = dict(meta or {})
        self._below: dict[SubspaceId, tuple] = {}
        self._admitted: dict = {}
        self._moves: dict = {}  # player -> (point, subspace, block) -> games.Move
        # Rows are read off the relations as given, so a wrapper put on
        # ``self.leq`` later does not turn the bulk rows off.
        self._leq_row = self._rows(leq, "row", lambda p, q: self.leq(p, q))
        self._leq_column = self._rows(leq, "column", lambda p, q: self.leq(q, p))
        self._star_row = self._rows(leq_star, "row", lambda p, q: self.leq_star(p, q))
        self._star_column = getattr(leq_star, "column", None)  # or None: see ``check_axioms``
        self._admits_row = getattr(admits, "row", None) or self._admitting_by_pair
        self._meet_groups = getattr(meet_witness, "groups", None) or self._groups_by_pair
        self._fusion_row = getattr(fusion_witness, "row", None) or self._row_by_chain
        self._fusion_level = getattr(fusion_witness, "level", None) or self._level_by_row

    def _rows(self, relation, name, holds):
        """The relation's bulk rows ``relation.<name>``, else rows built
        from ``holds(p, q)`` on every q and cached."""
        bulk = getattr(relation, name, None)
        if bulk is not None:
            return bulk
        cache: dict = {}
        n = len(self.palette)

        def row(p):
            hit = cache.get(p)
            if hit is None:
                hit = 0
                for q in range(n):
                    if holds(p, q):
                        hit |= 1 << q
                cache[p] = hit
            return hit

        return row

    def _admitting_by_pair(self, history):
        """``admits.row`` from one ``admits`` call per subspace, uncached
        (a history key would make the cache grow with the horizon)."""
        return sum(1 << p for p in range(len(self.palette)) if self.admits(history, p))

    def _groups_by_pair(self, p, among):
        """``meet_witness.groups`` from one witness call per pair."""
        groups: dict = {}
        for q in bits(among):
            r = self.meet_witness(p, q)
            if r is not None:
                groups[r] = groups.get(r, 0) | 1 << q
        return groups

    def _row_by_chain(self, chain, among):
        """``fusion_witness.row`` from one witness call per chain."""
        same, others = 0, {}
        for r in bits(among):
            try:
                fused = self.fusion_witness(chain + (r,))
            except FiniteExhaustion:
                fused = None
            if fused == r:
                same |= 1 << r
            else:
                others[r] = fused
        return same, others

    def _level_by_row(self, chain, among):
        """``fusion_witness.level`` from one fusion row per extension."""
        level = 0
        for r in bits(among):
            column = self._leq_column(r)
            if self._fusion_row(chain + (r,), column)[0] == column:
                level |= 1 << r
        return level

    def derive(self, **overrides) -> "SpaceInstance":
        """A new instance with the given constructor fields replaced and
        the rest shared, rows of the relations and admission it keeps
        included (the witnesses it keeps carry their bulk forms); its
        other caches start empty.  The public attributes are exactly the
        constructor's parameters."""
        fields = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        view = SpaceInstance(**{**fields, **overrides})
        if "leq" not in overrides:
            view._leq_row, view._leq_column = self._leq_row, self._leq_column
        if "leq_star" not in overrides:
            view._star_row, view._star_column = self._star_row, self._star_column
        if "admits" not in overrides:
            view._admits_row = self._admits_row
        return view

    # -- derived relations -------------------------------------------------

    def lessapprox(self, p: SubspaceId, q: SubspaceId) -> bool:
        """p is, up to slack, a full-size subspace of q."""
        return self.leq(p, q) and self.leq_star(q, p)

    def compatible(self, p: SubspaceId, q: SubspaceId) -> bool:
        """Some palette subspace lies below both p and q: their cached
        ``leq`` columns meet."""
        return self._leq_column(p) & self._leq_column(q) != 0

    def common_lower_bound(self, p: SubspaceId, q: SubspaceId) -> Optional[SubspaceId]:
        """First palette r with r <= p and r <= q, or None."""
        common = self._leq_column(p) & self._leq_column(q)
        return (common & -common).bit_length() - 1 if common else None

    # -- enumeration helpers (cached) ---------------------------------------

    def subspaces(self) -> range:
        return range(len(self.palette))

    def below(self, p: SubspaceId) -> tuple:
        hit = self._below.get(p)
        if hit is None:
            hit = self._below[p] = tuple(bits(self._leq_column(p)))
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


def transpose(rows: Sequence[int], width: int) -> list:
    """The columns of a bit matrix: bit i of ``columns[j]`` is bit j of
    ``rows[i]``, for every j below ``width``."""
    # Row i's binary text is block len(rows) - 1 - i of the string, and
    # its bit j the character width - 1 - j of that block.
    text = "".join([format(row, f"0{width}b") for row in reversed(rows)])
    return [int(text[width - 1 - j :: width], 2) for j in range(width)]


def bits(row: int) -> list:
    """The set bits of a palette bitset, ascending."""
    if not row & row - 1:
        return [row.bit_length() - 1] if row else []
    out = []
    text = bin(row)[:1:-1]
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


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
    charge (a tick per pair, chain or history), a row at a time.  The
    relations are read as rows: ``above[p]`` holds every q with
    p <= q and ``star[p]`` every q with p <=* q, so axioms 1 and 5 test
    a row with one bit operation (axiom 1 still counts all n * n pairs
    as checked).  The witnesses are read in bulk too: axiom 2 takes the
    meets of a whole star row as groups, one target r each, and axiom 3
    the fusions of a chain's whole extension row, checked against the
    leq and star columns; the last level of chains is counted by
    popcount, never enumerated, and the level above it is checked in one
    loop per chain, which charges each extension its tick and its row's
    as it goes.  In that loop an extension on the chain's fusion level
    (its whole leq column fuses to itself) is checked with bit tests on
    its column alone; the others go through their fusion rows.  Axiom 5
    reads a history's admitted subspaces as one admission row, and
    axiom 4 ORs the rows of a prefix's one-point extensions.
    """
    budget = budget or Budget(where="check_axioms")
    report = AxiomReport()
    n = len(space.palette)
    npts = len(space.points)
    above = [space._leq_row(p) for p in range(n)]
    star = [space._star_row(p) for p in range(n)]

    # Axiom 1: leq implies leq_star.
    check = AxiomCheck(True)
    for p in range(n):
        bad = above[p] & ~star[p]
        row = (bad & -bad).bit_length() if bad else n
        budget.tick(row)
        check.checked += row
        if bad:
            check.passed = False
            check.counterexample = (p, row - 1)
            break
    report.axioms["axiom1"] = check

    # Axiom 2: the meet witness, where defined, behaves.  Each group of q
    # sharing the meet r must have r <= p, p <=* r and r <= q.
    check = AxiomCheck(True)
    for p in range(n):
        star_p = star[p]
        groups = space._meet_groups(p, star_p)
        defined = bad = 0
        for r, qs in groups.items():
            defined |= qs
            if above[r] >> p & star_p >> r & 1:
                bad |= qs & ~above[r]
            else:
                bad |= qs
        if bad:
            low = bad & -bad
            q = low.bit_length() - 1
            r = next(r for r, qs in groups.items() if qs & low)
            check.passed = False
            check.counterexample = (p, q, r)
            defined &= (low << 1) - 1
        check.checked += defined.bit_count()
        budget.tick(n if check.passed else q + 1)
        if not check.passed:
            break
    report.axioms["axiom2"] = check

    # Axiom 3: fusion over all leq-decreasing chains up to the horizon, in
    # depth-first canonical order, one tick per chain.  A chain extends
    # over the instance's leq column of its last element, and reads the
    # star columns too: ``leq_star.column`` where the relation has it,
    # else ``transpose`` of the star rows.  The fusions of all its
    # extensions come as one row.  An extension r that fuses to itself is
    # right iff r <= chain[0], r <=* r and r <=* m for each member m,
    # which ``allowed`` holds for the whole row (``reflexive`` for the
    # one-element chains, whose first element is r).  The stack holds each
    # open chain with its members, its faulty extensions, the fusions
    # that are not the extension itself and the extensions left.
    check = AxiomCheck(True)
    below = [space._leq_column(r) for r in range(n)]
    if space._star_column is None:
        star_below = transpose(star, n)
    else:
        star_below = [space._star_column(r) for r in range(n)]
    reflexive = star_reflexive = 0
    for r in range(n):
        if star[r] >> r & 1:
            star_reflexive |= 1 << r
            if above[r] >> r & 1:
                reflexive |= 1 << r

    def faults(chain, members, allowed, among):
        same, others = space._fusion_row(chain, among)
        bad = same & ~allowed
        for r, fused in others.items():
            # Honest exhaustion (None) is allowed; a wrong witness is not.
            first = chain[0] if chain else r
            if fused is not None and (
                not above[fused] >> first & 1 or (members | 1 << r) & ~star[fused]
            ):
                bad |= 1 << r
        return bad, others

    def extend(chain, members, allowed, r):
        """The arguments of ``open_chain`` for ``chain + (r,)``."""
        kept = (allowed if chain else below[r] & star_reflexive) & star_below[r]
        return chain + (r,), members | 1 << r, kept, below[r]

    def open_chain(chain, members, allowed, among):
        """Check the extensions of ``chain``: on the last level all at
        once; one level above it, when none of them is faulty, in one
        loop that opens the first with a faulty extension of its own;
        else push them for the depth-first walk.  Returns the
        counterexample or None."""
        bad, others = faults(chain, members, allowed, among)
        if len(chain) + 2 == horizon and not bad:
            # An r on the level fuses its whole leq column to itself, so
            # its faults are the column's bits outside its kept bits.
            level = space._fusion_level(chain, among)
            kept = allowed if chain else star_reflexive
            for r in bits(among):
                if level >> r & 1:
                    faulty = below[r] & ~(kept & star_below[r])
                else:
                    faulty = faults(*extend(chain, members, allowed, r))[0]
                if faulty:
                    budget.tick()
                    check.checked += 1
                    return open_chain(*extend(chain, members, allowed, r))
                row = below[r].bit_count() + 1
                budget.tick(row)
                check.checked += row
            return None
        if len(chain) + 1 < horizon:
            stack.append((chain, members, allowed, bad, others, iter(bits(among))))
            return None
        if bad:
            low = bad & -bad
            among &= (low << 1) - 1
        row = among.bit_count()
        budget.tick(row)
        check.checked += row
        if not bad:
            return None
        r = low.bit_length() - 1
        return chain + (r,), others.get(r, r)

    stack: list = []
    failure = open_chain((), 0, reflexive, (1 << n) - 1)
    while stack and failure is None:
        chain, members, allowed, bad, others, extensions = stack[-1]
        r = next(extensions, None)
        if r is None:
            stack.pop()
            continue
        budget.tick()
        check.checked += 1
        if bad >> r & 1:
            failure = chain + (r,), others.get(r, r)
            break
        failure = open_chain(*extend(chain, members, allowed, r))
    if failure is not None:
        check.passed = False
        check.counterexample = failure
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

    # ``reach[i]`` holds every p admitting some one-point extension of
    # the i-th prefix: the OR of those extensions' admission rows.
    max_prefix = 0 if point_only else horizon - 1
    prefixes = [()] + histories(max_prefix)
    reach = []
    for s in prefixes:
        row = 0
        for x in range(npts):
            row |= space._admits_row(s + (x,))
        reach.append(row)
    check = AxiomCheck(True)
    for p in range(n):
        for s, row in zip(prefixes, reach):
            budget.tick(npts)
            check.checked += 1
            if not row >> p & 1:
                check.passed = False
                check.counterexample = (p, s)
                break
        if not check.passed:
            break
    report.axioms["axiom4"] = check

    # Axiom 5 over the pairs p <= q, p-major: admission below p implies
    # admission below q.  ``before[p]`` counts the pairs of rows before p.
    before = [0]
    for p in range(n):
        before.append(before[-1] + above[p].bit_count())
    all_hists = histories(1 if point_only else horizon)
    check = AxiomCheck(True)
    for s in all_hists:
        admitted = space._admits_row(s)
        row = before[n]
        for p in bits(admitted):
            bad = above[p] & ~admitted
            if bad:
                low = bad & -bad
                row = before[p] + (above[p] & (low - 1)).bit_count() + 1
                check.passed = False
                check.counterexample = (s, p, low.bit_length() - 1)
                break
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
