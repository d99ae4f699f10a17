"""Space contract: axioms, derived relations, witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowerslab import check_axioms, iterated_meet
from gowerslab.errors import Budget, ExhaustionBudget, FiniteExhaustion
from gowerslab import instances
from gowerslab.approx import DeltaSeq, discretize
from gowerslab.games import _subspace_row
from gowerslab.instances import (
    grid_sphere,
    mathias_silver,
    projective_rosendal,
    rosendal,
    single_subspace,
    top_subspace,
)
from gowerslab.space import FORGETFUL, FULL_HISTORY, AxiomCheck, SpaceInstance, bits, transpose
from corpus import corpus_space


def palette_id(space, label):
    return space.palette.index(label)


class TestCheckAxioms:
    def test_mathias_silver_all_pass(self, ms6):
        report = check_axioms(ms6, 2)
        assert report.all_pass, report.summary()

    def test_degenerate_single_subspace(self, degenerate):
        # Every quantifier ranges over one palette element.
        report = check_axioms(degenerate, 2)
        assert report.all_pass

    def test_constructed_axiom1_violation(self):
        # leq is strict-ish inclusion, leq_star deliberately equality.
        base = mathias_silver(4, 2, 0)
        broken = SpaceInstance(
            "broken",
            points=base.points,
            palette=base.palette,
            leq=base.leq,
            leq_star=lambda p, q: p == q,
            admits=base.admits,
            meet_witness=base.meet_witness,
            fusion_witness=base.fusion_witness,
        )
        report = check_axioms(broken, 1)
        check = report.axioms["axiom1"]
        assert not check.passed
        p, q = check.counterexample
        assert broken.leq(p, q) and not (p == q)

    def test_approximate_point_only_form(self, grid_quarter):
        report = check_axioms(grid_quarter, 2)
        assert report.all_pass

    def test_forgetful_admission_ignores_prefix(self, grid_quarter):
        # All history prefixes sharing a last point admit identically.
        space = grid_quarter
        for p in range(len(space.palette)):
            for x in range(0, len(space.points), 5):
                one = space.admits((x,), p)
                assert space.admits((0, x), p) == one
                assert space.admits((1, 0, x), p) == one


class TestDerivedRelations:
    def test_cofinite_lessapprox(self, ms6):
        # N missing one point of M sits lessapprox below it at slack 1.
        m = palette_id(ms6, (0, 1, 2, 3, 4, 5))
        n = palette_id(ms6, (0, 1, 2, 4, 5))
        assert ms6.lessapprox(n, m)
        assert not ms6.lessapprox(m, n)

    def test_lessapprox_reflexive(self, ms6):
        for p in range(len(ms6.palette)):
            assert ms6.lessapprox(p, p)

    def test_compatibility_matches_palette_search(self, ms6):
        a = palette_id(ms6, (0, 1, 2))
        b = palette_id(ms6, (3, 4, 5))
        c = palette_id(ms6, (0, 1, 4))
        assert not ms6.compatible(a, b)
        assert ms6.compatible(a, c)

    def test_compatibility_hint_agrees_with_scan(self, ms6):
        # Compatibility, read off the two leq columns, must match the
        # defining palette search on every instance family.
        explicit = mathias_silver(
            5, 1, 1, explicit_palette=[[0, 1, 2, 3, 4], [0, 1, 2], [2, 3, 4], [2], [0, 1], [3, 4]]
        )
        spaces = [
            (ms6, 7, 5),
            (rosendal(2, 3, 1), 1, 1),
            (projective_rosendal(3, 2, 1), 1, 1),
            (grid_sphere(2, "1/2", 1), 1, 1),
            (single_subspace(2), 1, 1),
            (explicit, 1, 1),
        ]
        for space, p_step, q_step in spaces:
            n = len(space.palette)
            verdicts = set()
            for p in range(0, n, p_step):
                for q in range(0, n, q_step):
                    scan = any(space.leq(r, p) and space.leq(r, q) for r in range(n))
                    assert space.compatible(p, q) == scan, (space.name, p, q)
                    verdicts.add(scan)
            assert verdicts == ({True} if n == 1 else {True, False}), space.name


class TestDerive:
    def test_overrides_replace_and_the_rest_is_shared(self):
        base = mathias_silver(5, 2, 1)
        base.below(top_subspace(base))
        view = base.derive(name="view", asymptotic_slack=2, meta={"view": True})
        assert (view.name, view.asymptotic_slack, view.meta) == ("view", 2, {"view": True})
        assert view.points == base.points and view.leq is base.leq
        assert view.admits is base.admits and view.system is base.system
        # A fresh instance: its caches start empty.
        assert base._below and not view._below

    def test_unknown_field_rejected(self, ms6):
        with pytest.raises(TypeError):
            ms6.derive(colour="red")


class TestWitnesses:
    def test_meet_confirms_lessapprox(self, ms6):
        # Wherever the meet witness is defined under the star order, the
        # result sits lessapprox below its first argument.
        n = len(ms6.palette)
        checked = 0
        for p in range(n):
            for q in range(n):
                if not ms6.leq_star(p, q):
                    continue
                r = ms6.meet_witness(p, q)
                if r is None:
                    continue
                checked += 1
                assert ms6.lessapprox(r, p)
                assert ms6.leq(r, q)
        assert checked > 0

    def test_fusion_singleton_and_constant_chain(self, ms6):
        p = palette_id(ms6, (0, 2, 4))
        star = ms6.fusion_witness((p,))
        assert ms6.leq_star(star, p)
        same = ms6.fusion_witness((p, p, p))
        assert same == p

    def test_fusion_respects_chain(self, ms6):
        top = top_subspace(ms6)
        mid = palette_id(ms6, (0, 1, 2, 3))
        low = palette_id(ms6, (1, 2, 3))
        star = ms6.fusion_witness((top, mid, low))
        assert ms6.leq(star, top)
        for q in (top, mid, low):
            assert ms6.leq_star(star, q)

    def test_fusion_exhausts_on_disjoint_chain(self, ms6):
        evens = palette_id(ms6, (0, 2, 4))
        odds = palette_id(ms6, (1, 3, 5))
        with pytest.raises(FiniteExhaustion):
            ms6.fusion_witness((evens, odds))

    def test_iterated_meet_lower_bounds_all_parts(self, ms6):
        top = top_subspace(ms6)
        parts = [
            palette_id(ms6, (0, 1, 2, 3, 4)),
            palette_id(ms6, (0, 1, 2, 3, 4, 5)),
            palette_id(ms6, (0, 1, 2, 3, 4)),
        ]
        meet = iterated_meet(ms6, parts, top)
        assert ms6.lessapprox(meet, top)
        for part in parts:
            assert ms6.leq(meet, part)

    def test_iterated_meet_reports_slack_exhaustion(self, ms6):
        # Each part misses a different point; at slack one the chained
        # meet leaves the lessapprox cone and must say so.
        top = top_subspace(ms6)
        parts = [
            palette_id(ms6, (0, 1, 2, 3, 4)),
            palette_id(ms6, (0, 1, 2, 3, 5)),
            palette_id(ms6, (1, 2, 3, 4, 5)),
        ]
        with pytest.raises(FiniteExhaustion):
            iterated_meet(ms6, parts, top)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_compatibility_symmetric(data):
    ms = mathias_silver(5, 2, 1)
    n = len(ms.palette)
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1))
    assert ms.compatible(p, q) == ms.compatible(q, p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_axiom5_upward_admission(data):
    ms = mathias_silver(5, 2, 1)
    n = len(ms.palette)
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1))
    x = data.draw(st.integers(0, len(ms.points) - 1))
    if ms.leq(p, q) and ms.admits((x,), p):
        assert ms.admits((x,), q)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_fusion_of_decreasing_chains(data):
    ms = mathias_silver(6, 2, 1)
    n = len(ms.palette)
    chain = [data.draw(st.integers(0, n - 1))]
    for _ in range(data.draw(st.integers(0, 2))):
        lower = [q for q in range(n) if ms.leq(q, chain[-1])]
        chain.append(data.draw(st.sampled_from(lower)))
    star = ms.fusion_witness(tuple(chain))
    assert ms.leq(star, chain[0])
    assert all(ms.leq_star(star, q) for q in chain)


def test_axiom_check_respects_node_budget(ms10):
    with pytest.raises(ExhaustionBudget):
        check_axioms(ms10, 3, Budget(100, "tight"))


def test_metric_distance_is_exact(grid_quarter):
    x = grid_quarter.points.index((Fraction(1), Fraction(1, 2)))
    y = grid_quarter.points.index((Fraction(1), Fraction(-1, 4)))
    assert grid_quarter.distance(x, y) == Fraction(3, 4)
    assert grid_quarter.distance(x, x) == 0


def test_plain_space_has_no_metric(ms6):
    from gowerslab.errors import NoMetric

    with pytest.raises(NoMetric):
        ms6.require_metric()


def p_major_axioms(space, horizon, budget):
    """The per-pair sweep that check_axioms replaced, kept as an oracle:
    every pair of every quantifier visited in p-major order with one
    tick each, and chains extended by scanning the palette with leq.
    Returns {axiom: (passed, counterexample, checked)}."""
    n = len(space.palette)
    npts = len(space.points)
    out = {}

    check = AxiomCheck(True)
    for p in range(n):
        for q in range(n):
            budget.tick()
            check.checked += 1
            if space.leq(p, q) and not space.leq_star(p, q):
                check.passed, check.counterexample = False, (p, q)
                break
        if not check.passed:
            break
    out["axiom1"] = check

    check = AxiomCheck(True)
    for p in range(n):
        for q in range(n):
            budget.tick()
            if not space.leq_star(p, q):
                continue
            r = space.meet_witness(p, q)
            if r is None:
                continue
            check.checked += 1
            if not (space.leq(r, p) and space.leq(r, q) and space.leq_star(p, r)):
                check.passed, check.counterexample = False, (p, q, r)
                break
        if not check.passed:
            break
    out["axiom2"] = check

    def chains():
        def extend(chain):
            yield chain
            if len(chain) == horizon:
                return
            for q in range(n):
                if space.leq(q, chain[-1]):
                    budget.tick()
                    yield from extend(chain + (q,))

        for p in range(n):
            budget.tick()
            yield from extend((p,))

    check = AxiomCheck(True)
    for chain in chains():
        check.checked += 1
        try:
            star = space.fusion_witness(chain)
        except FiniteExhaustion:
            continue
        if not space.leq(star, chain[0]) or not all(space.leq_star(star, p) for p in chain):
            check.passed, check.counterexample = False, (chain, star)
            break
    out["axiom3"] = check

    point_only = space.metric is not None or space.admission == FORGETFUL

    def histories(max_len):
        out, frontier = [], [()]
        for _ in range(max_len):
            new = []
            for h in frontier:
                for x in range(npts):
                    budget.tick()
                    new.append(h + (x,))
            out.extend(new)
            frontier = new
        return out

    prefixes = [()] + histories(0 if point_only else horizon - 1)
    check = AxiomCheck(True)
    for p in range(n):
        for s in prefixes:
            budget.tick(npts)
            check.checked += 1
            if not any(space.admits(s + (x,), p) for x in range(npts)):
                check.passed, check.counterexample = False, (p, s)
                break
        if not check.passed:
            break
    out["axiom4"] = check

    all_hists = histories(1 if point_only else horizon)
    leq_pairs = [(p, q) for p in range(n) for q in range(n) if space.leq(p, q)]
    check = AxiomCheck(True)
    for s in all_hists:
        for p, q in leq_pairs:
            budget.tick()
            check.checked += 1
            if space.admits(s, p) and not space.admits(s, q):
                check.passed, check.counterexample = False, (s, p, q)
                break
        if not check.passed:
            break
    out["axiom5"] = check
    return {k: (c.passed, c.counterexample, c.checked) for k, c in out.items()}


def planted_instances():
    """Instances with a wrong leq_star, meet witness, fusion witness or
    admission planted at seeded places, several per instance, so the
    first counterexample in p-major order is not the first planted one."""
    rng = random.Random(5)
    out = []
    for base in (mathias_silver(5, 2, 1), rosendal(2, 3, 1)):
        n = len(base.palette)
        top = top_subspace(base)
        pairs = [(p, q) for p in range(n) for q in range(n)]
        leq_pairs = [pq for pq in pairs if base.leq(*pq)]
        bad = set(rng.sample(leq_pairs, 3) + rng.sample(pairs, 3))
        out.append(base.derive(
            name=f"wrong leq_star {base.name}",
            leq_star=lambda p, q, b=base, bad=bad: b.leq_star(p, q) and (p, q) not in bad,
        ))
        star_pairs = [pq for pq in pairs if base.leq_star(*pq) and top not in pq]
        bad = set(rng.sample(star_pairs, 3))
        out.append(base.derive(
            name=f"wrong meet {base.name}",
            meet_witness=lambda p, q, b=base, bad=bad, top=top: (
                top if (p, q) in bad else b.meet_witness(p, q)
            ),
        ))
        last = set(rng.sample(range(n), 3)) - {top}
        out.append(base.derive(
            name=f"wrong fusion {base.name}",
            fusion_witness=lambda chain, b=base, last=last, top=top: (
                top if len(chain) > 1 and chain[-1] in last else b.fusion_witness(chain)
            ),
        ))
        extra = {(rng.randrange(n), rng.randrange(len(base.points))) for _ in range(3)}
        out.append(base.derive(
            name=f"wrong admission {base.name}",
            admits=lambda h, p, b=base, extra=extra: b.admits(h, p) or (p, h[-1]) in extra,
        ))
        # History-dependent admission, wrong only after an odd-length
        # history: axioms 4 and 5 run over histories longer than one.
        out.append(base.derive(
            name=f"wrong full-history admission {base.name}",
            admission=FULL_HISTORY,
            admits=lambda h, p, b=base, extra=extra: b.admits(h, p) or (
                len(h) % 2 == 0 and (p, h[-1]) in extra
            ),
        ))
    return out


class TestAxiomSweepAgainstPairwiseOracle:
    @pytest.mark.parametrize("space", planted_instances(), ids=lambda s: s.name)
    def test_same_counterexamples_checked_and_ticks(self, space):
        for horizon in (1, 2, 3, 4):
            mine, theirs = Budget(10**8), Budget(10**8)
            report = check_axioms(space, horizon, mine)
            got = {k: (c.passed, c.counterexample, c.checked) for k, c in report.axioms.items()}
            want = p_major_axioms(space, horizon, theirs)
            assert got == want
            assert mine.used == theirs.used
        # Every planted fault is found by at least one axiom.
        assert not report.all_pass

    @pytest.mark.parametrize(
        "space", [rosendal(2, 3, 1), planted_instances()[0]], ids=["passing", "failing"]
    )
    def test_budget_one_short_of_the_sweep_runs_out(self, space):
        for horizon in (2, 3, 4):
            need = Budget(10**8)
            check_axioms(space, horizon, need)
            check_axioms(space, horizon, Budget(need.used))
            with pytest.raises(ExhaustionBudget):
                check_axioms(space, horizon, Budget(need.used - 1))


# Budget.used and the per-axiom counts of the per-pair sweep, on the
# benchmark's six axiom instances.
BENCH_AXIOMS = [
    ("mathias_silver", (9, 2, 1), 3, 861119, [252004, 64396, 200781, 502, 151803]),
    ("mathias_silver", (10, 2, 1), 2, 2645446, [1026169, 221575, 53918, 1013, 529050]),
    ("rosendal", (2, 4, 1), 3, 5255, [1156, 363, 468, 34, 1950]),
    ("rosendal", (3, 4, 1), 3, 43377, [5776, 1042, 1105, 76, 24560]),
    ("projective_rosendal", (3, 4, 1), 3, 28017, [5776, 1042, 1105, 76, 12280]),
    ("grid_sphere", (2, Fraction(1, 4), 1), 3, 2309, [289, 49, 99, 17, 1056]),
]


@pytest.mark.parametrize("factory,args,horizon,ticks,checked", BENCH_AXIOMS)
def test_axiom_ticks_match_the_per_pair_sweep(factory, args, horizon, ticks, checked):
    budget = Budget(30_000_000)
    report = check_axioms(getattr(instances, factory)(*args), horizon, budget)
    assert report.all_pass
    assert budget.used == ticks
    assert [report.axioms[k].checked for k in sorted(report.axioms)] == checked


# -- relation rows ----------------------------------------------------------------


def mask_formula_rows(space):
    """The above, below and star rows of a mask instance, rebuilt pair by
    pair from the masks: inclusion, and "misses at most t points" or,
    with dims, "a palette subspace of dimension at least dims[p] - t
    lies in the common part"."""
    masks, dims = space.meta["masks"], space.meta.get("dims")
    t = space.asymptotic_slack
    n = len(masks)

    def subset(a, b):
        return a & ~b == 0

    def star(p, q):
        common = masks[p] & masks[q]
        if dims is None:
            return (masks[p] & ~masks[q]).bit_count() <= t
        return common == masks[p] or any(
            dims[z] >= dims[p] - t and subset(masks[z], common) for z in range(n)
        )

    def rows(holds):
        return [sum(1 << q for q in range(n) if holds(p, q)) for p in range(n)]

    return (
        rows(lambda p, q: subset(masks[p], masks[q])),
        rows(lambda p, q: subset(masks[q], masks[p])),
        rows(star),
    )


def bulk_rows(space):
    n = range(len(space.palette))
    return (
        [space.leq.row(p) for p in n],
        [space.leq.column(p) for p in n],
        [space.leq_star.row(p) for p in n],
    )


MASK_FACTORIES = [
    ("ms5-t0", lambda: mathias_silver(5, 2, 0)),
    ("ms6-t1", lambda: mathias_silver(6, 2, 1)),
    ("ms6-t2", lambda: mathias_silver(6, 1, 2)),
    (
        "ms5-explicit",
        lambda: mathias_silver(
            5, 2, 1, explicit_palette=[[0, 1, 2, 3, 4], [0, 1, 2], [1, 2, 3], [1, 2], [2, 3], [2]]
        ),
    ),
    ("rosendal-f2-d4", lambda: rosendal(2, 4, 1)),
    ("rosendal-f3-d3-t2", lambda: rosendal(3, 3, 2)),
    ("projective-f3-d3", lambda: projective_rosendal(3, 3, 1)),
    ("grid-quarter", lambda: grid_sphere(2, Fraction(1, 4), 1)),
    ("grid3-half-t0", lambda: grid_sphere(3, Fraction(1, 2), 0)),
]


def flipped_star(space, p, q):
    """The instance with bit q of star row p flipped, on both the row and
    the pairwise relation."""
    row = space.leq_star.row

    def mutant_row(r):
        return row(r) ^ (1 << q) if r == p else row(r)

    def leq_star(a, b):
        return mutant_row(a) >> b & 1 == 1

    leq_star.row = mutant_row
    return space.derive(name=f"flipped star {space.name}", leq_star=leq_star)


class TestRelationRows:
    @pytest.mark.parametrize("factory", [f for _, f in MASK_FACTORIES],
                             ids=[name for name, _ in MASK_FACTORIES])
    def test_bulk_rows_match_the_mask_formula(self, factory):
        space = factory()
        want = mask_formula_rows(space)
        assert bulk_rows(space) == want
        n = len(space.palette)
        above, below, star = want
        for p in range(n):
            assert space.below(p) == tuple(q for q in range(n) if below[p] >> q & 1)
            assert bits(_subspace_row(space, p, "la")) == [
                q for q in range(n) if below[p] >> q & 1 and star[p] >> q & 1
            ]
            for q in range(n):
                assert space.leq(p, q) == bool(above[p] >> q & 1)
                assert space.leq_star(p, q) == bool(star[p] >> q & 1)

    @pytest.mark.parametrize("factory", [f for _, f in MASK_FACTORIES],
                             ids=[name for name, _ in MASK_FACTORIES])
    def test_star_columns_are_the_star_rows_transposed(self, factory):
        space = factory()
        n = len(space.palette)
        star = mask_formula_rows(space)[2]
        if "dims" in space.meta:
            # The vector instances keep the transpose of their star rows.
            assert space._star_column is None and not hasattr(space.leq_star, "column")
            return
        columns = transpose(star, n)
        assert [space.leq_star.column(r) for r in range(n)] == columns
        # A view keeps them, as it keeps the rows; a new star order does not.
        assert space.derive(name="view")._star_column is space.leq_star.column
        assert space.derive(leq_star=lambda p, q: p == q)._star_column is None

    @pytest.mark.parametrize("seed", range(12))
    def test_corpus_star_columns_and_axioms_match_the_transpose(self, seed):
        space = corpus_space(seed)
        n = len(space.palette)
        columns = transpose([space._star_row(p) for p in range(n)], n)
        assert [space._star_column(r) for r in range(n)] == columns
        # Without the columns, the sweep transposes the rows: the same
        # answers, counts and ticks.
        transposed = space.derive(name="transposed")
        transposed._star_column = None
        for horizon in (2, 3):
            mine, theirs = Budget(10**8), Budget(10**8)
            a, b = check_axioms(space, horizon, mine), check_axioms(transposed, horizon, theirs)
            assert a.all_pass
            assert {k: vars(c) for k, c in a.axioms.items()} == {k: vars(c) for k, c in b.axioms.items()}
            assert mine.used == theirs.used

    def test_one_flipped_star_bit_is_caught(self):
        base = mathias_silver(5, 2, 1)
        p, q = palette_id(base, (0, 1)), top_subspace(base)
        mutant = flipped_star(base, p, q)
        assert bulk_rows(mutant) != mask_formula_rows(mutant)
        report = check_axioms(mutant, 1)
        assert report.axioms["axiom1"].counterexample == (p, q)

    def test_an_override_without_rows_gets_rows_from_pair_calls(self):
        base = mathias_silver(5, 2, 1)
        n = len(base.palette)
        calls = []

        def equality(p, q):
            calls.append((p, q))
            return p == q

        view = base.derive(leq_star=equality)
        top = top_subspace(view)
        assert _subspace_row(view, top, "la") == 1 << top
        assert calls == [(top, q) for q in range(n)]
        # The kept leq still reads the instance's bulk rows.
        assert view.below(top) == base.below(top)
        check = check_axioms(view, 1).axioms["axiom1"]
        assert not check.passed and check.counterexample == (0, 1)

    def test_a_wrapper_put_on_leq_later_keeps_the_bulk_rows(self):
        space = mathias_silver(5, 2, 1)
        calls = []
        leq = space.leq

        def counted(p, q):
            calls.append((p, q))
            return leq(p, q)

        space.leq = counted
        top = top_subspace(space)
        assert len(space.below(top)) == len(space.palette)
        assert space.derive(name="view").below(0) == (0,)
        assert calls == []

    def test_a_wrapper_put_on_admits_later_keeps_the_bulk_rows(self):
        space = mathias_silver(5, 2, 1)
        calls = []
        admits = space.admits

        def counted(history, p):
            calls.append((history, p))
            return admits(history, p)

        space.admits = counted
        # Axioms 4 and 5 read admission rows only, on the instance and on
        # a view that keeps its admission.
        assert check_axioms(space, 3).all_pass
        assert check_axioms(space.derive(name="view"), 2).all_pass
        assert calls == []


# -- witness rows -----------------------------------------------------------------


WITNESS_FACTORIES = [
    ("ms5", lambda: mathias_silver(5, 2, 1)),
    ("rosendal-f2-d3", lambda: rosendal(2, 3, 1)),
    ("projective-f3-d3", lambda: projective_rosendal(3, 3, 1)),
    ("grid-half", lambda: grid_sphere(2, Fraction(1, 2), 1)),
]


def decreasing_chains(space, longest):
    """Every leq-decreasing chain of up to ``longest`` elements, the empty
    one included."""
    out, frontier = [()], [()]
    for _ in range(longest):
        frontier = [
            c + (q,) for c in frontier for q in range(len(space.palette))
            if not c or space.leq(q, c[-1])
        ]
        out.extend(frontier)
    return out


def assert_admission_rows_match_admits(space):
    """Every history of one or two points has the admission row of the
    subspaces that admit it, call by call."""
    npts, n = len(space.points), len(space.palette)
    ones = [(x,) for x in range(npts)]
    for history in ones + [h + (y,) for h in ones for y in range(npts)]:
        want = sum(1 << p for p in range(n) if space.admits(history, p))
        assert space._admits_row(history) == want, history


class TestWitnessRows:
    @pytest.mark.parametrize("factory", [f for _, f in WITNESS_FACTORIES],
                             ids=[name for name, _ in WITNESS_FACTORIES])
    def test_bulk_forms_match_the_per_call_witnesses(self, factory):
        space = factory()
        n = len(space.palette)
        everything = (1 << n) - 1
        # The mask instances carry the bulk forms; the fallbacks call the
        # per-call witnesses once per pair or chain.
        assert space._meet_groups is space.meet_witness.groups
        assert space._fusion_row is space.fusion_witness.row
        assert space._fusion_level is space.fusion_witness.level
        assert space._admits_row is space.admits.row
        for p in range(n):
            for among in (everything, space.leq_star.row(p)):
                assert space._meet_groups(p, among) == space._groups_by_pair(p, among)
        for chain in decreasing_chains(space, 3):
            below = space.leq.column(chain[-1]) if chain else everything
            for among in (everything, below):
                assert space._fusion_row(chain, among) == space._row_by_chain(chain, among)
                assert space._fusion_level(chain, among) == space._level_by_row(chain, among)
        assert_admission_rows_match_admits(space)

    def test_a_view_with_its_own_admission_gets_rows_from_admits(self):
        grid = grid_sphere(2, Fraction(1, 2), 1)
        view = discretize(grid, range(len(grid.points)), DeltaSeq.of(Fraction(1), Fraction(1, 2)))
        # Length-indexed admission: the view's rows come from its own
        # admits, one call per subspace, and not from the host's rows.
        assert grid._admits_row is grid.admits.row
        assert view._admits_row == view._admitting_by_pair
        assert_admission_rows_match_admits(view)
        mine, theirs = Budget(10**8), Budget(10**8)
        report = check_axioms(view, 2, mine)
        got = {k: (c.passed, c.counterexample, c.checked) for k, c in report.axioms.items()}
        assert got == p_major_axioms(view, 2, theirs)
        assert mine.used == theirs.used

    def test_meet_groups_leave_undefined_meets_out(self):
        space = mathias_silver(5, 2, 1)
        p, q = palette_id(space, (0, 1)), palette_id(space, (2, 3))
        assert space.meet_witness(p, q) is None
        groups = space._meet_groups(p, 1 << q | 1 << p)
        assert groups == {p: 1 << p}

    def test_fusion_row_reports_exhaustion_as_none(self):
        space = mathias_silver(5, 2, 1)
        evens, odds = palette_id(space, (0, 2, 4)), palette_id(space, (1, 3))
        same, others = space._fusion_row((evens,), 1 << odds | 1 << evens)
        assert same == 1 << evens and others == {odds: None}

    @pytest.mark.parametrize("base", [mathias_silver(5, 2, 1), rosendal(2, 3, 1)],
                             ids=lambda s: s.name)
    def test_planted_bulk_faults_match_the_pairwise_oracle(self, base):
        for length in (1, 2):
            space = planted_bulk_instance(base, length)
            assert space._meet_groups.__name__ == "wrong_groups"
            assert space._fusion_row.__name__ == "wrong_row"
            assert space._fusion_level.__name__ == "wrong_level"
            everything = (1 << len(space.palette)) - 1
            for c in decreasing_chains(space, 2):
                assert space._fusion_level(c, everything) == space._level_by_row(c, everything)
            for horizon in (1, 2, 3, 4):
                mine, theirs = Budget(10**8), Budget(10**8)
                report = check_axioms(space, horizon, mine)
                got = {k: (c.passed, c.counterexample, c.checked) for k, c in report.axioms.items()}
                want = p_major_axioms(space, horizon, theirs)
                assert got == want
                assert mine.used == theirs.used
                assert not got["axiom2"][0]
                # The faulty chain has length + 1 elements.  With two,
                # it is the last level at horizon 2 and an inner level
                # at horizon 3; with three, it is met at horizon 3 in
                # the loop over the last two levels, after clean chains.
                assert got["axiom3"][0] == (horizon <= length)


def planted_bulk_instance(base, length=1):
    """A mask instance whose meet and fusion witnesses are wrong at one
    seeded pair and at one seeded extension of a chain of ``length``
    elements (one or two), both per call and in their bulk forms (the
    fusion's level form leaves that chain's last element out).  The
    wrong meet of p and q is p itself, which is below p and star-above
    it but not below q.  A planted two-element chain is not the first
    extension of its first element, so clean ones come before it."""
    rng = random.Random(14)
    n = len(base.palette)
    top = top_subspace(base)
    meet, fusion = base.meet_witness, base.fusion_witness
    pairs = [
        (p, q) for p in range(n) for q in range(n)
        if top not in (p, q) and base.leq_star(p, q) and not base.leq(p, q)
        and meet(p, q) is not None
    ]
    p, q = rng.choice(pairs[len(pairs) // 2:])
    if length == 1:
        chains = [((c,), r) for c in range(n) if c != top for r in base.below(c) if r != c]
    else:
        chains = [
            ((c, d), r) for c in range(n) if c != top
            for d in base.below(c)[2:] for r in base.below(d)
        ]
    chain, r = rng.choice(chains[len(chains) // 2:])

    def wrong_meet(a, b):
        return p if (a, b) == (p, q) else meet(a, b)

    def wrong_groups(a, among):
        groups = meet.groups(a, among)
        if a == p and among >> q & 1:
            groups = {t: qs & ~(1 << q) for t, qs in groups.items() if qs != 1 << q}
            groups[p] = groups.get(p, 0) | 1 << q
        return groups

    def wrong_fusion(c):
        return top if c == chain + (r,) else fusion(c)

    def wrong_row(c, among):
        same, others = fusion.row(c, among)
        if c == chain and among >> r & 1:
            same, others = same & ~(1 << r), {**others, r: top}
        return same, others

    def wrong_level(c, among):
        # chain[-1] is off its parent's level: chain + (r,) fuses to top.
        level = fusion.level(c, among)
        return level & ~(1 << chain[-1]) if c + chain[-1:] == chain else level

    wrong_meet.groups, wrong_fusion.row, wrong_fusion.level = wrong_groups, wrong_row, wrong_level
    return base.derive(
        name=f"wrong bulk witnesses {base.name}", meet_witness=wrong_meet, fusion_witness=wrong_fusion
    )
