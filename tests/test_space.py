"""Space contract: axioms, derived relations, witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowerslab import check_axioms, derive_relations, iterated_meet
from gowerslab.errors import FiniteExhaustion
from gowerslab.instances import mathias_silver, single_subspace, top_subspace
from gowerslab.space import SpaceInstance


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
        relations = derive_relations(ms6)
        assert relations.lessapprox(n, m)
        assert not relations.lessapprox(m, n)

    def test_lessapprox_reflexive(self, ms6):
        relations = derive_relations(ms6)
        for p in range(len(ms6.palette)):
            assert relations.lessapprox(p, p)

    def test_compatibility_matches_palette_search(self, ms6):
        relations = derive_relations(ms6)
        a = palette_id(ms6, (0, 1, 2))
        b = palette_id(ms6, (3, 4, 5))
        c = palette_id(ms6, (0, 1, 4))
        assert not relations.compatible(a, b)
        assert relations.compatible(a, c)

    def test_compatibility_hint_agrees_with_scan(self, ms6):
        # The fast hint must match the defining palette search.
        n = len(ms6.palette)
        for p in range(0, n, 7):
            for q in range(0, n, 5):
                scan = any(
                    ms6.leq(r, p) and ms6.leq(r, q) for r in range(n)
                )
                assert ms6.compatible(p, q) == scan


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
        relations = derive_relations(ms6)
        checked = 0
        for p in range(n):
            for q in range(n):
                if not ms6.leq_star(p, q):
                    continue
                r = ms6.meet_witness(p, q)
                if r is None:
                    continue
                checked += 1
                assert relations.lessapprox(r, p)
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
    from gowerslab.errors import Budget, ExhaustionBudget

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
