"""Independent checks of the program's outputs.

Nothing here calls the program's move generators, relations or solver.
Each checker recomputes a verdict from the instance's subspace masks,
the game rules and the payoff definitions, or tests a property the
method must have, and returns a list of problems (empty when the output
is right).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

# Subspace-move relations of the interleaved games, as (her opening, his
# subspaces, her subspaces): "leq" is below the root, "la" is
# full-size below the root up to slack, "last" is below the opponent's
# most recent subspace (the nested game).
INTERLEAVED_RULES = {
    "A": ("leq", "la", "leq"),
    "B": ("la", "leq", "la"),
    "K": ("leq", "last", "last"),
}
CHOOSER_RULES = {"F": "la", "G": "leq", "SF": "la"}


# -- payoffs -------------------------------------------------------------------


def seeded_accepts(seed: int, density: float):
    """The seeded payoff's membership test, recomputed from its definition:
    sha256 of "seed|(e0;e1;...)" (sets written "{a,b}") below the density
    threshold, out of a million."""
    threshold = int(density * 1_000_000)

    def accepts(outcome) -> bool:
        parts = []
        for entry in outcome:
            if isinstance(entry, frozenset):
                parts.append("{" + ",".join(map(str, sorted(entry))) + "}")
            else:
                parts.append(str(entry))
        payload = f"{seed}|(" + ";".join(parts) + ")"
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % 1_000_000 < threshold

    return accepts


# -- relations from masks ----------------------------------------------------------


class MaskRelations:
    """The palette relations recomputed from the instance's point masks.

    ``dims`` is None for set instances (star order: misses at most
    ``slack`` points) and the subspace dimensions for vector and grid
    instances (star order: contains a palette subspace of codimension at
    most ``slack`` inside the intersection).
    """

    def __init__(self, masks, dims, slack):
        self.masks = list(masks)
        self.dims = dims
        self.slack = slack

    def leq(self, p, q) -> bool:
        return self.masks[p] & ~self.masks[q] == 0

    def leq_star(self, p, q) -> bool:
        if self.dims is None:
            return (self.masks[p] & ~self.masks[q]).bit_count() <= self.slack
        if self.leq(p, q):
            return True
        common = self.masks[p] & self.masks[q]
        want = self.dims[p] - self.slack
        return any(
            self.dims[z] >= want and m & ~common == 0 for z, m in enumerate(self.masks)
        )

    def below(self, root) -> list:
        return [q for q in range(len(self.masks)) if self.leq(q, root)]

    def full_below(self, root) -> list:
        return [q for q in self.below(root) if self.leq_star(root, q)]

    def points(self, p) -> list:
        m = self.masks[p]
        return [x for x in range(m.bit_length()) if m >> x & 1]


def relations_of(space) -> MaskRelations:
    return MaskRelations(space.meta["masks"], space.meta.get("dims"), space.asymptotic_slack)


# -- state-keyed minimax -----------------------------------------------------------


def minimax_winner(rel: MaskRelations, kind: str, root: int, horizon: int, accepts,
                   goal: str, family=None) -> str:
    """Winner ("I" or "II") of the finite game, by backward induction on
    states (point or block prefix, most recent subspace, moves played).

    The goal owner targets ``accepts``; a player left without a legal
    move at an unfinished position loses.  ``family`` is the precompact
    system's family for the strong asymptotic game ("SF").
    """
    choice = {"leq": rel.below(root), "la": rel.full_below(root)}
    below_last: dict = {}
    memo: dict = {}

    def to_move(n):
        if kind in INTERLEAVED_RULES:
            return "II" if n % 2 == 0 else "I"
        return "I" if n % 2 == 0 else "II"

    def depth(n):
        return max(0, n - 1) if kind in INTERLEAVED_RULES else n // 2

    def children(prefix, last, n):
        mover = to_move(n)
        if kind in INTERLEAVED_RULES:
            opening, his, hers = INTERLEAVED_RULES[kind]
            if n == 0:
                return [((), q, 1) for q in choice[opening]]
            rule = his if mover == "I" else hers
            if rule == "last":
                if last not in below_last:
                    below_last[last] = rel.below(last)
                subs = below_last[last]
            else:
                subs = choice[rule]
            if mover == "II" and n == horizon:
                return [(prefix + (x,), None, n + 1) for x in rel.points(last)]
            return [(prefix + (x,), q, n + 1) for x in rel.points(last) for q in subs]
        if mover == "I":
            return [(prefix, q, n + 1) for q in choice[CHOOSER_RULES[kind]]]
        if kind == "SF":
            allowed = rel.masks[last]
            return [
                (prefix + (k,), None, n + 1)
                for k, block in enumerate(family)
                if all(allowed >> x & 1 for x in block)
            ]
        return [(prefix + (x,), None, n + 1) for x in rel.points(last)]

    def value(state) -> bool:
        hit = memo.get(state)
        if hit is not None:
            return hit
        prefix, last, n = state
        if depth(n) >= horizon:
            outcome = tuple(family[k] for k in prefix) if kind == "SF" else prefix
            v = bool(accepts(outcome))
        else:
            kids = children(prefix, last, n)
            if not kids:
                v = to_move(n) != goal
            elif to_move(n) == goal:
                v = any(value(c) for c in kids)
            else:
                v = all(value(c) for c in kids)
        memo[state] = v
        return v

    wins = value(((), None, 0))
    return goal if wins else ("II" if goal == "I" else "I")


def check_winner(space, kind, root, horizon, accepts, goal, winner, family=None) -> list:
    expected = minimax_winner(relations_of(space), kind, root, horizon, accepts, goal, family)
    if winner != expected:
        return [f"{space.name} {kind} h{horizon}: program says {winner} wins, minimax says {expected}"]
    return []


def check_replay(label, report) -> list:
    """An exhaustive replay must reach its target on every play."""
    fraction = report.fraction_target
    if report.plays == 0 or fraction != 1:
        return [f"{label}: replay reaches its target in {fraction} of {report.plays} plays"]
    return []


# -- axioms --------------------------------------------------------------------------


def count_decreasing_chains(masks, max_len: int) -> int:
    """Nonempty chains p0 >= p1 >= ... (subset order, repeats allowed) of
    length at most ``max_len``."""
    n = len(masks)
    below = [[q for q in range(n) if masks[q] & ~masks[p] == 0] for p in range(n)]
    ending = [1] * n  # chains of the current length starting at p
    total = n
    for _ in range(max_len - 1):
        ending = [sum(ending[q] for q in below[p]) for p in range(n)]
        total += sum(ending)
    return total


def check_axioms_report(space, horizon, report) -> list:
    problems = []
    failed = [name for name, c in sorted(report.axioms.items()) if not c.passed]
    if failed or len(report.axioms) != 5:
        problems.append(f"{space.name}: axioms {sorted(report.axioms)} failed {failed}")
    n = len(space.palette)
    if report.axioms["axiom1"].checked != n * n:
        problems.append(
            f"{space.name}: axiom1 checked {report.axioms['axiom1'].checked} pairs, not {n * n}"
        )
    chains = count_decreasing_chains(space.meta["masks"], horizon)
    if report.axioms["axiom3"].checked != chains:
        problems.append(
            f"{space.name}: axiom3 checked {report.axioms['axiom3'].checked} chains, not {chains}"
        )
    return problems


# -- metric expansions on integer grid coordinates ---------------------------------------


def grid_coordinates(points, step: Fraction) -> list:
    """Grid points as integer tuples (coordinates divided by the step)."""
    out = []
    for v in points:
        scaled = tuple(c / step for c in v)
        if any(c.denominator != 1 for c in scaled):
            raise ValueError(f"point {v} is off the grid of step {step}")
        out.append(tuple(int(c) for c in scaled))
    return out


def within(a, b, step: Fraction, radius: Fraction) -> bool:
    """Sup distance of two integer grid points, times the step, <= radius."""
    gap = max(abs(x - y) for x, y in zip(a, b))
    bound = radius / step
    return gap * bound.denominator <= bound.numerator


def sup_expansion(coords, step, seqs, delta) -> frozenset:
    """Coordinatewise non-strict delta-expansion of a set of sequences."""
    n = len(coords)
    balls = [
        {x: [y for y in range(n) if within(coords[x], coords[y], step, r)] for x in range(n)}
        for r in delta
    ]
    out = set()
    for seq in seqs:
        partial = [()]
        for i, x in enumerate(seq):
            partial = [p + (y,) for p in partial for y in balls[i][x]]
        out.update(partial)
    return frozenset(out)


def check_expansion(label, coords, step, seqs, delta, got) -> list:
    want = sup_expansion(coords, step, seqs, delta)
    if got != want:
        return [f"{label}: expansion differs on {len(got ^ want)} sequences"]
    return []


def check_net(label, coords, step, points, net) -> list:
    """A greedy net covers its set within the resolution, and its members
    are pairwise farther apart than the resolution."""
    r = net.resolution
    members = list(net.members)
    problems = []
    if any(not any(within(coords[x], coords[m], step, r) for m in members) for x in points):
        problems.append(f"{label}: net at {r} leaves a point uncovered")
    if any(within(coords[a], coords[b], step, r) for i, a in enumerate(members) for b in members[i + 1:]):
        problems.append(f"{label}: net at {r} keeps two members within the resolution")
    return problems


# -- systems and dichotomies ---------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def nonzero_subspaces(q: int, d: int) -> int:
    return sum(gaussian_binomial(d, k, q) for k in range(1, d + 1))


def check_field_system(label, q, d, system) -> list:
    want = nonzero_subspaces(q, d)
    if len(system.family) != want:
        return [f"{label}: field system has {len(system.family)} sets, F{q}^{d} has {want} subspaces"]
    return []


def check_dichotomy(label, space, root, rows) -> list:
    """``rows`` are (q, first_side, second_side).  Both sides cannot hold:
    a winning strategy of the more constrained player is legal in the
    other game.  The rows must cover exactly the subspaces below root."""
    problems = [f"{label}: both sides hold below subspace {q}" for q, a, b in rows if a and b]
    want = relations_of(space).below(root)
    got = [q for q, _, _ in rows]
    if got != want:
        problems.append(f"{label}: {len(got)} rows for the {len(want)} subspaces below the root")
    return problems


def check_point_scan(label, masks, dims, point_set, min_dim, failures) -> list:
    """Subspaces of dimension >= min_dim that miss the set or its
    complement, recomputed from the masks."""
    inside = 0
    for x in point_set:
        inside |= 1 << x
    want = [
        p for p, m in enumerate(masks)
        if (dims is None or dims[p] >= min_dim) and (m & inside == 0 or m & ~inside == 0)
    ]
    if list(failures) != want:
        return [f"{label}: scan found {failures}, masks give {want}"]
    return []
