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
from typing import Optional

from .errors import (
    FiniteExhaustion,
    KindMismatch,
    PaletteNotClosedUnderMeet,
    PigeonholeUnavailable,
    SpecInvalid,
)
from .payoffs import Payoff, register
from .space import SpaceInstance
from .util import parse_fraction

MATHIAS_SILVER = "mathias-silver"
ROSENDAL = "rosendal"
PROJECTIVE_ROSENDAL = "projective-rosendal"
GRID_SPHERE = "grid-sphere"
SINGLE_SUBSPACE = "single-subspace"


@dataclass
class InstanceSpec:
    """Parsed instance description (the JSON schema of instance files)."""

    kind: str
    params: dict = field(default_factory=dict)
    slack: int = 1
    palette_rule: str = ""
    explicit_palette: Optional[list] = None
    name: str = ""

    @staticmethod
    def from_json(data: dict) -> "InstanceSpec":
        known = {
            MATHIAS_SILVER,
            ROSENDAL,
            PROJECTIVE_ROSENDAL,
            GRID_SPHERE,
            SINGLE_SUBSPACE,
        }
        kind = data.get("kind")
        if kind not in known:
            raise SpecInvalid(f"unknown instance kind {kind!r}")
        params = {
            k: v
            for k, v in data.items()
            if k not in {"kind", "slack", "palette_rule", "palette", "name"}
        }
        return InstanceSpec(
            kind=kind,
            params=params,
            slack=int(data.get("slack", 1)),
            palette_rule=data.get("palette_rule", ""),
            explicit_palette=data.get("palette"),
            name=data.get("name", ""),
        )


PALETTE_RULES = {
    MATHIAS_SILVER: ("all-subsets-min-size", "explicit"),
    ROSENDAL: ("tail-plus-2-block",),
    PROJECTIVE_ROSENDAL: ("tail-plus-2-block",),
    GRID_SPHERE: ("sphere-tails-and-lines",),
    SINGLE_SUBSPACE: ("single",),
}


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


def build_instance(spec: InstanceSpec) -> SpaceInstance:
    if spec.palette_rule and spec.palette_rule not in PALETTE_RULES[spec.kind]:
        raise SpecInvalid(
            f"instance kind {spec.kind} does not support palette rule "
            f"{spec.palette_rule!r}"
        )
    system = spec.params.get("system")
    if system is not None:
        bare = {k: v for k, v in spec.params.items() if k != "system"}
        space = build_instance(
            InstanceSpec(
                spec.kind, bare, spec.slack, spec.palette_rule,
                spec.explicit_palette, spec.name,
            )
        )
        return _attach_system(space, system)
    if spec.kind == MATHIAS_SILVER:
        return mathias_silver(
            int(spec.params["universe"]),
            min_size=int(spec.params.get("min_size", 2)),
            slack=spec.slack,
            explicit_palette=spec.explicit_palette,
            name=spec.name,
        )
    if spec.kind == ROSENDAL:
        return rosendal(
            int(spec.params["field_order"]),
            int(spec.params["dimension"]),
            slack=spec.slack,
            name=spec.name,
        )
    if spec.kind == PROJECTIVE_ROSENDAL:
        return projective_rosendal(
            int(spec.params["field_order"]),
            int(spec.params["dimension"]),
            slack=spec.slack,
            name=spec.name,
        )
    if spec.kind == GRID_SPHERE:
        return grid_sphere(
            int(spec.params.get("dimension", 2)),
            parse_fraction(spec.params.get("step", "1/4")),
            slack=spec.slack,
            name=spec.name,
        )
    if spec.kind == SINGLE_SUBSPACE:
        return single_subspace(int(spec.params.get("universe", 2)), name=spec.name)
    raise SpecInvalid(f"unknown instance kind {spec.kind!r}")


# -- Mathias-Silver ----------------------------------------------------------


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def mathias_silver(
    n: int,
    min_size: int = 2,
    slack: int = 1,
    explicit_palette: Optional[list] = None,
    name: str = "",
) -> SpaceInstance:
    if n < 1 or not (1 <= min_size <= n):
        raise SpecInvalid(f"bad Mathias-Silver parameters N={n}, m={min_size}")
    if explicit_palette is not None:
        subsets = [tuple(sorted(s)) for s in explicit_palette]
        if any(not s or min(s) < 0 or max(s) >= n for s in subsets):
            raise SpecInvalid("explicit palette subset out of range")
    else:
        subsets = sorted(
            t for r in range(min_size, n + 1) for t in combinations(range(n), r)
        )
    masks = [_mask(t) for t in subsets]
    index = {m: i for i, m in enumerate(masks)}
    if explicit_palette is not None:
        # Explicit palettes must already be meet-closed.
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                meet = a & b
                if meet and meet not in index:
                    raise PaletteNotClosedUnderMeet(subsets[i], subsets[j])

    def leq(p, q):
        return masks[p] & ~masks[q] == 0

    def leq_star(p, q):
        return (masks[p] & ~masks[q]).bit_count() <= slack

    def admits(history, p):
        return bool(masks[p] >> history[-1] & 1)

    def meet(p, q):
        m = masks[p] & masks[q]
        return index.get(m)

    def fusion(chain):
        m = masks[chain[0]]
        for p in chain[1:]:
            m &= masks[p]
        hit = index.get(m)
        if hit is None:
            raise FiniteExhaustion(
                "fusion", f"chain intersection of size {m.bit_count()} left the palette"
            )
        return hit

    def compatible(p, q):
        return (masks[p] & masks[q]).bit_count() >= min_size

    if explicit_palette is not None:
        compatible = None  # fall back to the palette scan

    return SpaceInstance(
        name or f"mathias-silver(N={n},m={min_size},t={slack})",
        points=range(n),
        palette=subsets,
        leq=leq,
        leq_star=leq_star,
        admits=admits,
        meet_witness=meet,
        fusion_witness=fusion,
        asymptotic_slack=slack,
        compatible_hint=compatible,
        meta={
            "kind": MATHIAS_SILVER,
            "universe": n,
            "min_size": min_size,
            "masks": masks,
        },
    )


def single_subspace(n_points: int = 2, name: str = "") -> SpaceInstance:
    """The degenerate one-subspace space: every history is admitted, so
    all six games collapse to plain perfect-information games."""

    def fusion(chain):
        return 0

    return SpaceInstance(
        name or f"single-subspace({n_points})",
        points=range(n_points),
        palette=[tuple(range(n_points))],
        leq=lambda p, q: True,
        leq_star=lambda p, q: True,
        admits=lambda history, p: True,
        meet_witness=lambda p, q: 0,
        fusion_witness=fusion,
        asymptotic_slack=0,
        compatible_hint=lambda p, q: True,
        meta={"kind": SINGLE_SUBSPACE, "universe": n_points},
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


def _span_mask(basis, q, vec_index) -> int:
    mask = 0
    for coeffs in product(range(q), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = tuple(
            sum(c * b[i] for c, b in zip(coeffs, basis)) % q
            for i in range(len(basis[0]))
        )
        mask |= 1 << vec_index[vec]
    return mask


def _block_palette_masks(q: int, d: int, vectors, vec_index):
    """Tails, one- and two-term block spans, closed under intersection."""
    masks = set()
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    for j in range(d):
        masks.add(_span_mask(basis[j:], q, vec_index))
    for v in vectors:
        masks.add(_span_mask([v], q, vec_index))
    for u in vectors:
        hi = max_support(u)
        for v in vectors:
            if min_support(v) > hi:
                masks.add(_span_mask([u, v], q, vec_index))
    # Intersection closure; nonzero meets of block spans are block spans.
    while True:
        fresh = set()
        current = list(masks)
        for i, a in enumerate(current):
            for b in current[i + 1 :]:
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


def _codimension_leq_star(masks, dims, slack):
    """The star order of the vector and sphere instances, cached per pair:
    p <=* r iff p <= r or a palette subspace of dimension at least
    ``dims[p] - slack`` lies inside their common part."""
    cache: dict = {}
    palette = range(len(masks))

    def leq_star(p, r):
        hit = cache.get((p, r))
        if hit is None:
            common = masks[p] & masks[r]
            want = dims[p] - slack
            hit = common == masks[p] or any(
                dims[z] >= want and masks[z] & ~common == 0 for z in palette
            )
            cache[p, r] = hit
        return hit

    return leq_star


def _vector_space_instance(
    q: int, d: int, slack: int, projective: bool, name: str
) -> SpaceInstance:
    if not _is_prime(q):
        raise SpecInvalid(f"field order {q} is not prime")
    if d < 1:
        raise SpecInvalid("dimension must be positive")
    vectors = sorted(v for v in product(range(q), repeat=d) if any(v))
    vec_index = {v: i for i, v in enumerate(vectors)}

    if projective:
        inverse = {a: pow(a, q - 2, q) for a in range(1, q)}

        def normalize(v):
            inv = inverse[first_nonzero_value(v)]
            return tuple(c * inv % q for c in v)

        points = sorted({normalize(v) for v in vectors})
        pt_index = {v: i for i, v in enumerate(points)}

        def to_point_mask(vmask):
            out = 0
            for v, i in vec_index.items():
                if vmask >> i & 1:
                    out |= 1 << pt_index[normalize(v)]
            return out

    else:
        points = vectors
        to_point_mask = None

    vmasks = _block_palette_masks(q, d, vectors, vec_index)
    if projective:
        masks = sorted({to_point_mask(m) for m in vmasks})
    else:
        masks = sorted(vmasks)
    # Canonical palette order: lexicographic on the sorted point tuples.
    def mask_points(m):
        return tuple(i for i in range(len(points)) if m >> i & 1)

    order = sorted(range(len(masks)), key=lambda i: mask_points(masks[i]))
    masks = [masks[i] for i in order]
    index = {m: i for i, m in enumerate(masks)}
    dims = [_dim_from_count(m.bit_count(), q, projective) for m in masks]
    labels = [mask_points(m)[:1] + (dims[i],) for i, m in enumerate(masks)]

    def leq(p, r):
        return masks[p] & ~masks[r] == 0

    def admits(history, p):
        return bool(masks[p] >> history[-1] & 1)

    def meet(p, r):
        return index.get(masks[p] & masks[r])

    def fusion(chain):
        m = masks[chain[0]]
        for p in chain[1:]:
            m &= masks[p]
        hit = index.get(m)
        if hit is None:
            raise FiniteExhaustion("fusion", "chain intersection is the zero subspace")
        return hit

    def compatible(p, r):
        return masks[p] & masks[r] != 0

    kind = PROJECTIVE_ROSENDAL if projective else ROSENDAL
    return SpaceInstance(
        name or f"{kind}(F{q},d={d},t={slack})",
        points=points,
        palette=labels,
        leq=leq,
        leq_star=_codimension_leq_star(masks, dims, slack),
        admits=admits,
        meet_witness=meet,
        fusion_witness=fusion,
        asymptotic_slack=slack,
        compatible_hint=compatible,
        meta={
            "kind": kind,
            "field_order": q,
            "dimension": d,
            "masks": masks,
            "dims": dims,
        },
    )


def rosendal(q: int, d: int, slack: int = 1, name: str = "") -> SpaceInstance:
    return _vector_space_instance(q, d, slack, projective=False, name=name)


def projective_rosendal(q: int, d: int, slack: int = 1, name: str = "") -> SpaceInstance:
    return _vector_space_instance(q, d, slack, projective=True, name=name)


# -- Grid sphere ---------------------------------------------------------------


def grid_sphere(
    dimension: int = 2, step=Fraction(1, 4), slack: int = 1, name: str = ""
) -> SpaceInstance:
    step = parse_fraction(step)
    steps = Fraction(1, 1) / step
    if steps.denominator != 1 or steps <= 0:
        raise SpecInvalid(f"grid step {step} does not divide 1")
    m = int(steps)
    axis = [Fraction(i) * step for i in range(-m, m + 1)]
    points = sorted(
        v for v in product(axis, repeat=dimension) if max(abs(c) for c in v) == 1
    )
    pt_index = {v: i for i, v in enumerate(points)}

    # Palette: the whole sphere, tail sub-spheres (first coordinates zero),
    # and the sphere of every line, which is an antipodal pair of grid
    # points.  Each carries the dimension of the subspace it is the
    # sphere of; the star order is codimension-based, as for the vector
    # instances.
    dim_of = {}
    whole = _mask(range(len(points)))
    dim_of[whole] = dimension
    for j in range(1, dimension):
        m = _mask(i for i, v in enumerate(points) if all(c == 0 for c in v[:j]))
        dim_of[m] = dimension - j
    for v in points:
        anti = tuple(-c for c in v)
        m = _mask((pt_index[v], pt_index[anti]))
        dim_of.setdefault(m, 1)

    def mask_points(mm):
        return tuple(i for i in range(len(points)) if mm >> i & 1)

    masks = sorted(dim_of, key=mask_points)
    index = {mm: i for i, mm in enumerate(masks)}
    dims = [dim_of[mm] for mm in masks]
    labels = [(dims[i],) + mask_points(masks[i])[:1] for i in range(len(masks))]

    def leq(p, r):
        return masks[p] & ~masks[r] == 0

    def admits(history, p):
        return bool(masks[p] >> history[-1] & 1)

    def meet(p, r):
        return index.get(masks[p] & masks[r])

    def fusion(chain):
        mm = masks[chain[0]]
        for p in chain[1:]:
            mm &= masks[p]
        hit = index.get(mm)
        if hit is None:
            raise FiniteExhaustion("fusion", "chain intersection left the palette")
        return hit

    def metric(x, y):
        return max(abs(a - b) for a, b in zip(points[x], points[y]))

    return SpaceInstance(
        name or f"grid-sphere(dim={dimension},step={step},t={slack})",
        points=points,
        palette=labels,
        leq=leq,
        leq_star=_codimension_leq_star(masks, dims, slack),
        admits=admits,
        meet_witness=meet,
        fusion_witness=fusion,
        metric=metric,
        asymptotic_slack=slack,
        compatible_hint=lambda p, r: masks[p] & masks[r] != 0,
        meta={
            "kind": GRID_SPHERE,
            "dimension": dimension,
            "step": step,
            "masks": masks,
            "dims": dims,
        },
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

    def _expanded(self, space, point_set, delta):
        from .approx import expand_point_set  # local import; approx sits above

        return expand_point_set(space, point_set, delta)

    def decide(self, space, history, point_set, p, delta=None):
        inside = (
            self._expanded(space, point_set, delta)
            if self.approximate and delta is not None
            else frozenset(point_set)
        )
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

    def subset_refinement(self, space, history, point_set, p):
        """First q below p admitting only points of the set (the one-sided
        strengthening the strategy transformations rely on)."""
        wanted = frozenset(point_set)
        for q in space.below(p):
            if all(x in wanted for x in space.admitted_points(history, q)):
                return q
        raise PigeonholeUnavailable(
            f"no subspace below {p} lands inside the reachable set",
            witness=None,
        )

    def subset_refinement_expanded(self, space, point_set, p, delta):
        return self.subset_refinement(
            space, (), self._expanded(space, point_set, delta), p
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
    idx = params.get("index", 0)
    value = params["value"]

    def accepts(seq):
        return first_nonzero_value(space.points[seq[idx]]) == value

    return Payoff(horizon, accepts, f"first_nonzero_is[{idx}]={value}")


@register("in_counterexample")
def _in_counterexample(space, horizon, params):
    target = counterexample_sets(space, params["which"])
    idx = params.get("index", 0)
    return Payoff(
        horizon, lambda seq: seq[idx] in target, f"in_counterexample[{params['which']}]"
    )


@register("phi_support")
def _phi_support(space, horizon, params):
    payoff = counterexample_sets(space, PHI_SUPPORT)
    if horizon != payoff.horizon:
        raise SpecInvalid("phi_support payoff is horizon-2 only")
    return payoff
