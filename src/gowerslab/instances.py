"""Concrete space instances, pigeonhole providers, and counterexample sets.

Four families are built here:

* Mathias-Silver: points are integers below N, subspaces all subsets of
  size at least m, admission is membership of the last point.
* Rosendal over a prime field: points are the nonzero vectors of a
  d-dimensional space, subspaces a palette of block subspaces (tails,
  all one-term block spans, all two-term block spans, closed under
  intersection).
* Projective Rosendal: same subspace palette, but points are the vector
  lines, so scalar information is quotiented away.
* Grid sphere: the sup-norm unit sphere of a rational grid, with the
  sup metric; the approximate instance of the family.

Subspace content is kept as integer bitmasks over point ids, which makes
the relation and admission checks cheap enough for the exhaustive scans
the test suite runs.

Finite readings of the asymptotic relations: set-based instances use
"misses at most ``slack`` points", vector instances "contains a palette
block subspace of codimension at most ``slack``".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import sub
from typing import Optional

from .errors import (
    Budget,
    ExhaustionBudget,
    FiniteExhaustion,
    KindMismatch,
    PaletteNotClosedUnderMeet,
    PigeonholeUnavailable,
    SpecInvalid,
    TimeExhausted,
)
from .payoffs import Payoff, outcome_index, register, vector_length
from .space import SpaceInstance, bits, transpose
from .util import json_int, parse_fraction

MATHIAS_SILVER = "mathias-silver"
ROSENDAL = "rosendal"
PROJECTIVE_ROSENDAL = "projective-rosendal"
GRID_SPHERE = "grid-sphere"
SINGLE_SUBSPACE = "single-subspace"


# The fields an instance of each kind reads, besides the ones every kind
# reads (``COMMON_FIELDS``); any other field is refused, so a misspelled
# field is not ignored.
INSTANCE_FIELDS = {
    MATHIAS_SILVER: {"universe", "min_size", "palette"},
    ROSENDAL: {"field_order", "dimension"},
    PROJECTIVE_ROSENDAL: {"field_order", "dimension"},
    GRID_SPHERE: {"dimension", "step"},
    SINGLE_SUBSPACE: {"universe"},
}
COMMON_FIELDS = {"kind", "slack", "name", "system"}


@dataclass
class InstanceSpec:
    """Parsed instance description (the JSON schema of instance files)."""

    kind: str
    params: dict = field(default_factory=dict)
    slack: int = 1
    explicit_palette: Optional[list] = None
    name: str = ""

    @staticmethod
    def from_json(data: dict) -> "InstanceSpec":
        kind = data.get("kind")
        if kind not in INSTANCE_FIELDS:
            raise SpecInvalid(f"unknown instance kind {kind!r}")
        unknown = sorted(set(data) - INSTANCE_FIELDS[kind] - COMMON_FIELDS)
        if unknown:
            raise SpecInvalid(f"instance kind {kind} takes no field {unknown[0]!r}")
        params = {k: v for k, v in data.items() if k not in {"kind", "slack", "palette", "name"}}
        return InstanceSpec(
            kind=kind,
            params=params,
            slack=json_int(data.get("slack", 1), "slack"),
            explicit_palette=data.get("palette"),
            name=data.get("name", ""),
        )


def _attach_system(space: SpaceInstance, description) -> SpaceInstance:
    """Resolve a system description (named or an explicit family with a
    sum table) and attach it to the instance."""
    from .approx import PrecompactSystem, field_subspace_system, ms_singleton_system
    from .space import with_system

    if isinstance(description, str):
        description = {"name": description}
    name = description.get("name")
    if name == "singletons-max":
        return with_system(space, ms_singleton_system(space))
    if name == "field-subspaces":
        return with_system(space, field_subspace_system(space))
    if name is not None:
        raise SpecInvalid(f"unknown precompact system {name!r}")
    label_index = {}
    for i, label in enumerate(space.points):
        label_index[label] = i
        label_index[str(label)] = i
    family = []
    for entry in description["family"]:
        family.append(
            frozenset(
                label_index[tuple(v) if isinstance(v, list) else v] for v in entry
            )
        )
    table = {}
    for i, j, k in description["table"]:
        table[(family[i], family[j])] = family[k]

    def oplus(a, b):
        try:
            return table[(a, b)]
        except KeyError:
            raise SpecInvalid("sum table is not total on the family") from None

    return with_system(space, PrecompactSystem(family, oplus))


def _charged(items, budget: Optional[Budget], name: str):
    """The items, one budget tick each, as an instance builder generates
    its palette elements; running out names the instance being built."""
    if budget is None:
        yield from items
        return
    for item in items:
        try:
            budget.tick()
        except ExhaustionBudget as exc:
            where = f"{exc.where}, building {name}" if exc.where else f"building {name}"
            if isinstance(exc, TimeExhausted):
                raise TimeExhausted(where) from None
            raise ExhaustionBudget(exc.nodes, where) from None
        yield item


def build_instance(spec: InstanceSpec, budget: Optional[Budget] = None) -> SpaceInstance:
    """The instance the spec describes, with its system attached when the
    spec names one; ``budget``, when given, is charged one tick per
    palette element the builder generates."""
    params = spec.params
    if spec.kind == MATHIAS_SILVER:
        space = mathias_silver(
            json_int(params["universe"], "universe"),
            min_size=json_int(params.get("min_size", 2), "min_size"),
            slack=spec.slack,
            explicit_palette=spec.explicit_palette,
            name=spec.name,
            budget=budget,
        )
    elif spec.kind in (ROSENDAL, PROJECTIVE_ROSENDAL):
        build = rosendal if spec.kind == ROSENDAL else projective_rosendal
        space = build(
            json_int(params["field_order"], "field_order"),
            json_int(params["dimension"], "dimension"),
            slack=spec.slack,
            name=spec.name,
            budget=budget,
        )
    elif spec.kind == GRID_SPHERE:
        space = grid_sphere(
            json_int(params.get("dimension", 2), "dimension"),
            parse_fraction(params.get("step", "1/4")),
            slack=spec.slack,
            name=spec.name,
            budget=budget,
        )
    elif spec.kind == SINGLE_SUBSPACE:
        space = single_subspace(json_int(params.get("universe", 2), "universe"), name=spec.name)
    else:
        raise SpecInvalid(f"unknown instance kind {spec.kind!r}")
    system = params.get("system")
    return space if system is None else _attach_system(space, system)


# -- Mathias-Silver ----------------------------------------------------------


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _mask_points(mask: int) -> tuple:
    """The point ids of a point bitmask, ascending."""
    return tuple(bits(mask))


def _mask_space(
    name, points, labels, meta, fusion_message, slack, metric=None
) -> SpaceInstance:
    """An instance whose subspaces are the point bitmasks ``meta["masks"]``:
    inclusion is the order, admission is membership of the last point,
    and meets and fusions are intersections that must stay in the
    palette.  ``fusion_message`` may name the ``{size}`` of an
    intersection that left the palette.

    The star order is "misses at most ``slack`` points", or, when
    ``meta`` carries ``dims``, "contains a palette subspace of
    codimension at most ``slack`` in the common part".  Both relations
    are palette-bitset rows built per subspace on first use (see
    ``gowerslab.space``), and the pairwise tests read those rows.
    Without ``dims`` the star order also has bulk columns, counted from
    the point columns outside the subspace.  The
    admission row of a history is ``contains[x]`` for its last point x,
    the palette ids whose mask holds x.  The meet and fusion witnesses
    carry their bulk forms, ``groups``, ``row`` and ``level``, read off
    the same point columns: a chain's level over ``among`` is the part
    of ``among`` inside the chain's common mask."""
    masks = meta["masks"]
    dims = meta.get("dims")
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    full = (1 << n) - 1
    every_point = (1 << len(points)) - 1
    contains: list = []
    above_rows: list = [None] * n
    star_rows: list = [None] * n
    below_masks: dict = {}

    def holders():
        """contains[x]: the palette ids whose mask holds point x."""
        if not contains:
            contains.extend(transpose(masks, len(points)))
        return contains

    def above(p):
        row = above_rows[p]
        if row is None:
            row = full
            point_rows = holders()
            for x in bits(masks[p]):
                row &= point_rows[x]
            above_rows[p] = row
        return row

    def below_mask(m):
        """The palette ids whose mask lies inside the point mask m."""
        row = below_masks.get(m)
        if row is None:
            point_rows = holders()
            outside = 0
            for x in bits(every_point & ~m):
                outside |= point_rows[x]
            row = below_masks[m] = full & ~outside
        return row

    def below(p):
        return below_mask(masks[p])

    def star(p):
        row = star_rows[p]
        if row is None:
            if dims is None:
                # p <=* q iff q holds all of p but at most slack points.
                pts = bits(masks[p])
                point_rows = holders()
                row = 0
                for kept in combinations(pts, max(len(pts) - slack, 0)):
                    common = full
                    for x in kept:
                        common &= point_rows[x]
                    row |= common
            else:
                # p <=* q iff p <= q or some z <= p of dimension at least
                # dims[p] - slack has z <= q.
                want = dims[p] - slack
                row = above(p)
                for z in bits(below(p)):
                    if dims[z] >= want:
                        row |= above(z)
            star_rows[p] = row
        return row

    def star_column(r):
        """The palette ids q with q <=* r, which have at most slack points
        outside r: ``outside[k]`` holds the ids with more than k of the
        points outside r counted so far, a bit-sliced counter over the
        point columns."""
        point_rows = holders()
        outside = [0] * (slack + 1)
        for x in bits(every_point & ~masks[r]):
            holding = point_rows[x]
            for k in range(slack, 0, -1):
                outside[k] |= outside[k - 1] & holding
            outside[0] |= holding
        return full & ~outside[slack]

    def leq(p, q):
        return (above_rows[p] or above(p)) >> q & 1 == 1

    def leq_star(p, q):
        return (star_rows[p] or star(p)) >> q & 1 == 1

    leq.row, leq.column, leq_star.row = above, below, star
    if dims is None:
        leq_star.column = star_column

    def admits(history, p):
        return bool(masks[p] >> history[-1] & 1)

    def admitting(history):
        return holders()[history[-1]]

    admits.row = admitting

    def meet(p, q):
        return index.get(masks[p] & masks[q])

    def meet_groups(p, among):
        # Split among on each point of p: a part holds the q whose
        # intersection with p is the part's mask.
        point_rows = holders()
        parts = [(among, 0)] if among else []
        for x in bits(masks[p]):
            split = []
            for qs, m in parts:
                inside = qs & point_rows[x]
                if inside:
                    split.append((inside, m | 1 << x))
                if qs & ~inside:
                    split.append((qs & ~inside, m))
            parts = split
        groups = {}
        for qs, m in parts:
            r = index.get(m)
            if r is not None:
                groups[r] = qs
        return groups

    def common(chain):
        m = every_point
        for p in chain:
            m &= masks[p]
        return m

    def fusion(chain):
        m = common(chain)
        hit = index.get(m)
        if hit is None:
            raise FiniteExhaustion("fusion", fusion_message.format(size=m.bit_count()))
        return hit

    def fusion_row(chain, among):
        # chain + (r,) fuses to r iff r lies inside the chain's common part,
        # as every r below the last element of a leq-decreasing chain does.
        m = common(chain)
        same = among & below_mask(m)
        if same == among:
            return same, {}
        return same, {r: index.get(m & masks[r]) for r in bits(among & ~same)}

    def fusion_level(chain, among):
        # chain + (r,) fuses each s <= r to s iff s lies inside the
        # chain's common part, which holds for every such s iff for r.
        return among & below_mask(common(chain))

    meet.groups, fusion.row, fusion.level = meet_groups, fusion_row, fusion_level

    return SpaceInstance(
        name,
        points=points,
        palette=labels,
        leq=leq,
        leq_star=leq_star,
        admits=admits,
        meet_witness=meet,
        fusion_witness=fusion,
        metric=metric,
        asymptotic_slack=slack,
        meta=meta,
    )


def mathias_silver(
    n: int,
    min_size: int = 2,
    slack: int = 1,
    explicit_palette: Optional[list] = None,
    name: str = "",
    budget: Optional[Budget] = None,
) -> SpaceInstance:
    if n < 1 or not (1 <= min_size <= n):
        raise SpecInvalid(f"bad Mathias-Silver parameters N={n}, m={min_size}")
    name = name or f"mathias-silver(N={n},m={min_size},t={slack})"
    if explicit_palette is not None:
        subsets = [tuple(sorted(s)) for s in _charged(explicit_palette, budget, name)]
        if any(not s or min(s) < 0 or max(s) >= n for s in subsets):
            raise SpecInvalid("explicit palette subset out of range")
    else:
        every = (t for r in range(min_size, n + 1) for t in combinations(range(n), r))
        subsets = sorted(_charged(every, budget, name))
    masks = [_mask(t) for t in subsets]
    if explicit_palette is not None:
        # Explicit palettes must already be meet-closed.
        present = set(masks)
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                meet = a & b
                if meet and meet not in present:
                    raise PaletteNotClosedUnderMeet(subsets[i], subsets[j])

    return _mask_space(
        name,
        range(n),
        subsets,
        {"kind": MATHIAS_SILVER, "universe": n, "min_size": min_size, "masks": masks},
        "chain intersection of size {size} left the palette",
        slack,
    )


def single_subspace(n_points: int = 2, name: str = "") -> SpaceInstance:
    """The degenerate one-subspace space: every history is admitted, so
    all six games collapse to plain perfect-information games.  It is
    the mask space of one full mask, at slack 0."""
    if n_points < 0:
        raise SpecInvalid(f"bad single-subspace universe {n_points}")
    return _mask_space(
        name or f"single-subspace({n_points})",
        range(n_points),
        [tuple(range(n_points))],
        {"kind": SINGLE_SUBSPACE, "universe": n_points, "masks": [(1 << n_points) - 1]},
        "chain intersection left the palette",
        0,
    )


# -- Rosendal spaces ----------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def vec_support(vec) -> tuple:
    return tuple(i for i, c in enumerate(vec) if c)


def first_nonzero_value(vec):
    for c in vec:
        if c:
            return c
    return None


def min_support(vec) -> int:
    return vec_support(vec)[0]


def max_support(vec) -> int:
    return vec_support(vec)[-1]


def _block_palette_masks(q: int, d: int, budget, name):
    """Tails, one- and two-term block spans, closed under intersection;
    the budget is charged a tick per span and per closure candidate.

    A vector is read as its base-q numeral, first coordinate most
    significant, so the sorted nonzero vectors are the numerals 1 to
    q**d - 1 and a vector's id is its numeral minus one.  A tail span is
    an id range.  Two vectors with disjoint supports add digit by digit
    with no carry, so the span of a two-term block is the set of the
    numeral sums of the two terms' multiples."""
    size = q**d
    weights = [q ** (d - 1 - i) for i in range(d)]
    # multiples[n]: bit c * v for every scalar c (bit 0 is the zero
    # vector), where v is the vector with numeral n.  after[n]: the
    # vectors whose support lies past v's are the numerals below it.
    # Index 0 is the zero vector.
    multiples, after = [1], [1]
    for vec in product(range(q), repeat=d):
        if not any(vec):
            continue
        row = 1
        for c in range(1, q):
            row |= 1 << sum(c * x % q * w for x, w in zip(vec, weights))
        multiples.append(row)
        after.append(weights[max(i for i, x in enumerate(vec) if x)])

    def spans():
        for j in range(d):
            yield (1 << (q ** (d - j) - 1)) - 1
        for v in range(1, size):
            yield multiples[v] >> 1
        for u in range(1, size):
            shifts = bits(multiples[u])
            for v in range(1, after[u]):
                row = multiples[v]
                span = 0
                for s in shifts:
                    span |= row << s
                yield span >> 1

    masks = set(_charged(spans(), budget, name))
    # Intersection closure; nonzero meets of block spans are block spans.
    while True:
        fresh = set()
        for a, b in _charged(combinations(list(masks), 2), budget, name):
            m = a & b
            if m and m not in masks:
                fresh.add(m)
        if not fresh:
            break
        masks |= fresh
    return masks


def _dim_from_count(count: int, q: int, projective: bool) -> int:
    k = 0
    total = 0
    while total != count:
        k += 1
        total = (q**k - 1) // (q - 1) if projective else q**k - 1
        if k > 64:
            raise SpecInvalid("subspace point count is not a subspace size")
    return k


def _vector_space_instance(
    q: int, d: int, slack: int, projective: bool, name: str, budget: Optional[Budget]
) -> SpaceInstance:
    if not _is_prime(q):
        raise SpecInvalid(f"field order {q} is not prime")
    if d < 1:
        raise SpecInvalid("dimension must be positive")
    kind = PROJECTIVE_ROSENDAL if projective else ROSENDAL
    name = name or f"{kind}(F{q},d={d},t={slack})"
    vectors = sorted(v for v in product(range(q), repeat=d) if any(v))
    vmasks = _block_palette_masks(q, d, budget, name)
    if projective:
        inverse = {a: pow(a, q - 2, q) for a in range(1, q)}

        def normalize(v):
            inv = inverse[first_nonzero_value(v)]
            return tuple(c * inv % q for c in v)

        lines = [normalize(v) for v in vectors]
        points = sorted(set(lines))
        pt_index = {v: i for i, v in enumerate(points)}
        line_bit = [1 << pt_index[line] for line in lines]

        def to_point_mask(vmask):
            out = 0
            for i in bits(vmask):
                out |= line_bit[i]
            return out

        vmasks = {to_point_mask(m) for m in vmasks}
    else:
        points = vectors
    # Canonical palette order: lexicographic on the sorted point tuples.
    masks = sorted(vmasks, key=_mask_points)
    dims = [_dim_from_count(m.bit_count(), q, projective) for m in masks]
    labels = [_mask_points(m)[:1] + (dims[i],) for i, m in enumerate(masks)]
    return _mask_space(
        name,
        points,
        labels,
        {"kind": kind, "field_order": q, "dimension": d, "masks": masks, "dims": dims},
        "chain intersection is the zero subspace",
        slack,
    )


def rosendal(
    q: int, d: int, slack: int = 1, name: str = "", budget: Optional[Budget] = None
) -> SpaceInstance:
    return _vector_space_instance(q, d, slack, False, name, budget)


def projective_rosendal(
    q: int, d: int, slack: int = 1, name: str = "", budget: Optional[Budget] = None
) -> SpaceInstance:
    return _vector_space_instance(q, d, slack, True, name, budget)


# -- Grid sphere ---------------------------------------------------------------


def grid_sphere(
    dimension: int = 2,
    step=Fraction(1, 4),
    slack: int = 1,
    name: str = "",
    budget: Optional[Budget] = None,
) -> SpaceInstance:
    step = parse_fraction(step)
    steps = Fraction(1, 1) / step
    if steps.denominator != 1 or steps <= 0:
        raise SpecInvalid(f"grid step {step} does not divide 1")
    name = name or f"grid-sphere(dim={dimension},step={step},t={slack})"
    # A point is read as its integer coordinates, its label divided by
    # the step: the sphere is where the largest of them is n in size.
    n = int(steps)
    grid = _charged(product(range(-n, n + 1), repeat=dimension), budget, name)
    coords = sorted(v for v in grid if max(map(abs, v)) == n)
    axis = [Fraction(i) * step for i in range(-n, n + 1)]
    points = [tuple(axis[c + n] for c in v) for v in coords]
    pt_index = {v: i for i, v in enumerate(coords)}

    # Palette: the whole sphere, tail sub-spheres (first coordinates zero),
    # and the sphere of every line, which is an antipodal pair of grid
    # points.  Each carries the dimension of the subspace it is the
    # sphere of; the star order is codimension-based, as for the vector
    # instances.
    dim_of = {}
    whole = _mask(range(len(points)))
    dim_of[whole] = dimension
    for j in range(1, dimension):
        tail = _mask(i for i, v in enumerate(coords) if not any(v[:j]))
        dim_of[tail] = dimension - j
    for i, v in enumerate(coords):
        line = _mask((i, pt_index[tuple(-c for c in v)]))
        dim_of.setdefault(line, 1)

    masks = sorted(dim_of, key=_mask_points)
    dims = [dim_of[mask] for mask in masks]
    labels = [(dims[i],) + _mask_points(mask)[:1] for i, mask in enumerate(masks)]
    # The sup distance of two points is k steps for an integer k <= 2n.
    levels = [Fraction(k) * step for k in range(2 * n + 1)]

    def metric(x, y):
        return levels[max(map(abs, map(sub, coords[x], coords[y])))]

    return _mask_space(
        name,
        points,
        labels,
        {
            "kind": GRID_SPHERE,
            "dimension": dimension,
            "step": step,
            "masks": masks,
            "dims": dims,
        },
        "chain intersection left the palette",
        slack,
        metric=metric,
    )


def top_subspace(space: SpaceInstance) -> int:
    """The palette's largest subspace (the canonical game root)."""
    masks = space.meta.get("masks")
    if masks is None:
        return 0
    return max(range(len(masks)), key=lambda i: (masks[i].bit_count(), -i))


def subspace_of_labels(space: SpaceInstance, labels) -> int:
    """Palette id of the subspace with exactly these point labels."""
    wanted = {tuple(v) if isinstance(v, list) else v for v in labels}
    target = _mask(i for i, lab in enumerate(space.points) if lab in wanted)
    masks = space.meta.get("masks")
    if masks is None:
        raise SpecInvalid("instance does not expose subspace masks")
    for i, m in enumerate(masks):
        if m == target:
            return i
    raise SpecInvalid(f"no palette subspace with point labels {sorted(wanted)!r}")


# -- pigeonhole providers --------------------------------------------------------


@dataclass
class PigeonholeProvider:
    """Exhaustive-scan pigeonhole for a finite instance.

    The exact form looks below ``p`` for a palette subspace deciding the
    point set ``A`` against its complement, pointwise on admitted
    continuations of the history.  The approximate form decides the
    complement of ``A`` against the delta-expansion of ``A``.  Both scan
    in canonical palette order and never assume the principle holds:
    failure raises :class:`PigeonholeUnavailable` with a witness pair.
    """

    name: str
    approximate: bool = False

    def _inside(self, space, point_set, delta):
        """The set, or on an approximate provider given a positive delta,
        its delta-expansion."""
        if self.approximate and delta:
            from .approx import expand_point_set  # local import; approx sits above

            return expand_point_set(space, point_set, delta)
        return frozenset(point_set)

    def decide(self, space, history, point_set, p, delta=None):
        inside = self._inside(space, point_set, delta)
        outside_of = frozenset(point_set)
        for q in space.below(p):
            admitted = space.admitted_points(history, q)
            if all(x in inside for x in admitted):
                return q, "subset"
            if all(x not in outside_of for x in admitted):
                return q, "complement"
        admitted = space.admitted_points(history, p)
        a_hit = next((x for x in admitted if x in outside_of), None)
        b_hit = next((x for x in admitted if x not in inside), None)
        raise PigeonholeUnavailable(
            f"no subspace below {p} decides the set", witness=(a_hit, b_hit)
        )

    def subset_refinement(self, space, history, point_set, p, delta=None):
        """First q below p admitting only points inside the set, read as
        ``decide`` reads it (the one-sided strengthening the strategy
        transformations rely on)."""
        inside = self._inside(space, point_set, delta)
        for q in space.below(p):
            if all(x in inside for x in space.admitted_points(history, q)):
                return q
        raise PigeonholeUnavailable(
            f"no subspace below {p} lands inside the reachable set",
            witness=None,
        )


def provider_for(space: SpaceInstance) -> PigeonholeProvider:
    return PigeonholeProvider(
        name=f"exhaustive-scan({space.name})", approximate=space.metric is not None
    )


# -- counterexample constructions ---------------------------------------------


FIRST_COORD_ONE = "FirstCoordOne"
PROJECTIVE_FIRST_LAST = "ProjectiveFirstLast"
PHI_SUPPORT = "PhiSupport"
COUNTEREXAMPLES = (FIRST_COORD_ONE, PROJECTIVE_FIRST_LAST, PHI_SUPPORT)


def phi_map(q: int) -> dict:
    """Canonical bijection from the nonzero field elements to 0..q-2."""
    return {value: value - 1 for value in range(1, q)}


def counterexample_sets(space: SpaceInstance, which: str):
    """The pigeonhole counterexample point sets and the support payoff."""
    kind = space.meta.get("kind")
    if which == FIRST_COORD_ONE:
        if kind != ROSENDAL:
            raise KindMismatch(f"{which} needs a Rosendal instance, got {kind}")
        return frozenset(
            i
            for i, v in enumerate(space.points)
            if first_nonzero_value(v) == 1
        )
    if which == PROJECTIVE_FIRST_LAST:
        if kind != PROJECTIVE_ROSENDAL:
            raise KindMismatch(f"{which} needs a projective instance, got {kind}")
        return frozenset(
            i
            for i, v in enumerate(space.points)
            if v[min_support(v)] == v[max_support(v)]
        )
    if which == PHI_SUPPORT:
        if kind != ROSENDAL:
            raise KindMismatch(f"{which} needs a Rosendal instance, got {kind}")
        phi = phi_map(space.meta["field_order"])

        def accepts(seq):
            x0 = space.points[seq[0]]
            x1 = space.points[seq[1]]
            return phi[first_nonzero_value(x0)] < min_support(x1)

        return Payoff(2, accepts, "phi-support")
    raise KindMismatch(f"unknown counterexample {which!r}")


def meets_both_scan(space: SpaceInstance, point_set, min_dim: int = 1):
    """Subspaces (of dimension at least min_dim) that fail to meet both
    the set and its complement; empty list certifies the counterexample."""
    masks = space.meta["masks"]
    dims = space.meta.get("dims")
    set_mask = _mask(point_set)
    failures = []
    for p, m in enumerate(masks):
        if dims is not None and dims[p] < min_dim:
            continue
        if m & set_mask == 0 or m & ~set_mask == 0:
            failures.append(p)
    return failures


def phi_support_block_scan(space: SpaceInstance):
    """Palette block subspaces of dimension >= 2 all of whose ordered block
    pairs satisfy the support payoff; empty list is the counterexample's
    finite shadow (no subspace is fully inside)."""
    kind = space.meta.get("kind")
    if kind != ROSENDAL:
        raise KindMismatch(f"support scan needs a Rosendal instance, got {kind}")
    phi = phi_map(space.meta["field_order"])
    masks = space.meta["masks"]
    dims = space.meta["dims"]
    fully_inside = []
    for p, m in enumerate(masks):
        if dims[p] < 2:
            continue
        members = [space.points[i] for i in range(len(space.points)) if m >> i & 1]
        min_supports = sorted({min_support(v) for v in members})
        escapes = False
        for a in members:
            hi = max_support(a)
            cap = phi[first_nonzero_value(a)]
            # An escaping pair (a, b) needs hi < min_support(b) <= cap.
            if any(hi < s <= cap for s in min_supports):
                escapes = True
                break
        if not escapes:
            fully_inside.append(p)
    return fully_inside


# -- instance-specific payoffs ---------------------------------------------------


@register("first_nonzero_is")
def _first_nonzero_is(space, horizon, params):
    idx = outcome_index(params, horizon)
    vector_length(space, "payoff first_nonzero_is")
    value = params["value"]

    def accepts(seq):
        return first_nonzero_value(space.points[seq[idx]]) == value

    return Payoff(horizon, accepts, f"first_nonzero_is[{idx}]={value}")


@register("in_counterexample")
def _in_counterexample(space, horizon, params):
    target = counterexample_sets(space, params["which"])
    idx = outcome_index(params, horizon)
    return Payoff(
        horizon, lambda seq: seq[idx] in target, f"in_counterexample[{params['which']}]"
    )


@register("phi_support")
def _phi_support(space, horizon, params):
    payoff = counterexample_sets(space, PHI_SUPPORT)
    if horizon != payoff.horizon:
        raise SpecInvalid("phi_support payoff is horizon-2 only")
    return payoff
