"""Instance builders, pigeonhole providers, counterexample sets."""

import re
import time
from fractions import Fraction

import pytest

from gowerslab import check_axioms
from gowerslab.errors import (
    CLOCK_EVERY,
    Budget,
    ExhaustionBudget,
    KindMismatch,
    PaletteNotClosedUnderMeet,
    PigeonholeUnavailable,
    SpecInvalid,
    TimeExhausted,
)
from gowerslab.instances import (
    FIRST_COORD_ONE,
    PHI_SUPPORT,
    PROJECTIVE_FIRST_LAST,
    InstanceSpec,
    build_instance,
    counterexample_sets,
    grid_sphere,
    mathias_silver,
    meets_both_scan,
    phi_support_block_scan,
    projective_rosendal,
    provider_for,
    rosendal,
    subspace_of_labels,
    top_subspace,
)
from oracle import vector_palette_reference


class TestBuilders:
    def test_mathias_silver_palette_rule(self):
        ms = mathias_silver(6, 2, 1)
        assert all(len(s) >= 2 for s in ms.palette)
        assert len(ms.palette) == 2**6 - 1 - 6
        assert check_axioms(ms, 2).all_pass

    def test_rosendal_palette_closed_under_intersection(self, f2d3):
        masks = f2d3.meta["masks"]
        index = set(masks)
        for a in masks:
            for b in masks:
                meet = a & b
                assert meet == 0 or meet in index
        assert check_axioms(f2d3, 2).all_pass

    def test_rosendal_points_exclude_zero(self, f2d3):
        assert all(any(v) for v in f2d3.points)
        assert len(f2d3.points) == 7

    def test_grid_sphere_has_metric_and_point_admission(self, grid_quarter):
        assert grid_quarter.metric is not None
        assert grid_quarter.admission == "forgetful"
        assert all(
            max(abs(c) for c in v) == 1 for v in grid_quarter.points
        )

    def test_explicit_palette_closure_enforced(self):
        with pytest.raises(PaletteNotClosedUnderMeet):
            mathias_silver(6, 2, 1, explicit_palette=[[0, 1, 2], [1, 2, 3]])
        ms = mathias_silver(
            6, 2, 1, explicit_palette=[[0, 1, 2], [1, 2, 3], [1, 2]]
        )
        # Canonical order of an explicit palette is the file order.
        assert ms.palette == ((0, 1, 2), (1, 2, 3), (1, 2))

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            rosendal(4, 3)  # not a prime order
        with pytest.raises(SpecInvalid):
            mathias_silver(5, 0)
        with pytest.raises(SpecInvalid):
            grid_sphere(2, Fraction(3, 7))

    def test_instance_spec_round_trip(self):
        spec = InstanceSpec.from_json(
            {"kind": "mathias-silver", "universe": 6, "min_size": 2, "slack": 1}
        )
        space = build_instance(spec)
        assert space.meta["universe"] == 6
        with pytest.raises(SpecInvalid):
            InstanceSpec.from_json({"kind": "unheard-of"})

    def test_top_and_label_lookup(self, ms6):
        top = top_subspace(ms6)
        assert ms6.palette[top] == (0, 1, 2, 3, 4, 5)
        assert subspace_of_labels(ms6, [0, 2, 4]) == ms6.palette.index((0, 2, 4))

    def test_single_subspace_resolves_a_labelled_root(self):
        # Built by the mask builder, it carries its one mask.
        space = build_instance(InstanceSpec.from_json({"kind": "single-subspace", "universe": 3}))
        assert subspace_of_labels(space, [0, 1, 2]) == top_subspace(space) == 0
        with pytest.raises(SpecInvalid):
            subspace_of_labels(space, [0, 1])
        assert meets_both_scan(space, {1}) == []
        with pytest.raises(SpecInvalid):
            build_instance(InstanceSpec.from_json({"kind": "single-subspace", "universe": -1}))


BUILDS = [
    ("ms6", lambda budget: mathias_silver(6, 2, 1, budget=budget)),
    ("ms5-explicit", lambda budget: mathias_silver(5, 2, 1, [[0, 1, 2], [1, 2]], budget=budget)),
    ("rosendal-f2-d3", lambda budget: rosendal(2, 3, 1, budget=budget)),
    ("projective-f3-d3", lambda budget: projective_rosendal(3, 3, 1, budget=budget)),
    ("grid-quarter", lambda budget: grid_sphere(2, Fraction(1, 4), 1, budget=budget)),
]


class TestBuildBudget:
    @pytest.mark.parametrize("build", [b for _, b in BUILDS], ids=[name for name, _ in BUILDS])
    def test_a_charged_build_is_the_same_instance_and_stops_at_the_limit(self, build):
        budget = Budget(10**6)
        space = build(budget)
        plain = build(None)
        assert (space.name, space.palette, space.meta) == (plain.name, plain.palette, plain.meta)
        assert budget.used >= len(space.palette)
        build(Budget(budget.used))
        with pytest.raises(ExhaustionBudget, match=re.escape(f"building {space.name}")):
            build(Budget(budget.used - 1))

    def test_one_tick_per_subset_and_per_grid_point(self):
        budget = Budget(10**6)
        assert len(mathias_silver(6, 2, 1, budget=budget).palette) == budget.used == 57
        budget = Budget(10**6)
        grid_sphere(2, Fraction(1, 4), 1, budget=budget)
        assert budget.used == 9 * 9

    def test_the_build_stops_at_the_first_subset_past_the_limit(self):
        # 65,519 subsets of at least two of 16 points; the sixth overruns.
        budget = Budget(5, "scenario")
        with pytest.raises(ExhaustionBudget) as info:
            mathias_silver(16, 2, 1, budget=budget)
        assert budget.used == 6
        assert str(info.value) == (
            "node budget of 5 exhausted in scenario, building mathias-silver(N=16,m=2,t=1)"
        )

    def test_a_past_deadline_stops_the_build_at_its_first_clock_read(self):
        # The build reads the budget's clock as it charges the budget, so
        # a deadline stops it within one clock period, however large the
        # palette: 65,519 subsets here, and the build stops at the first
        # tick past CLOCK_EVERY.
        budget = Budget(deadline=time.monotonic() - 1)
        spec = InstanceSpec("mathias-silver", {"universe": 16})
        with pytest.raises(TimeExhausted) as info:
            build_instance(spec, budget)
        assert budget.used == CLOCK_EVERY + 1
        assert str(info.value) == (
            "time budget exhausted in building mathias-silver(N=16,m=2,t=1)"
        )


    @pytest.mark.parametrize(
        "build,args,ticks",
        [
            (rosendal, (3, 4, 1), 3070),
            (projective_rosendal, (3, 4, 1), 3070),
            (rosendal, (2, 4, 1), 597),
            (projective_rosendal, (2, 4, 1), 597),
            (rosendal, (3, 3, 1), 267),
            (projective_rosendal, (3, 3, 1), 267),
            (rosendal, (2, 3, 1), 93),
            (projective_rosendal, (2, 3, 1), 93),
        ],
    )
    def test_one_tick_per_span_and_per_closure_candidate(self, build, args, ticks):
        # The README's charge for the vector instances: d tails, one span
        # per nonzero vector, one per two-term block, and one per pair of
        # masks each closure round looks at.
        budget = Budget(10**6)
        build(*args, budget=budget)
        assert budget.used == ticks


class TestPaletteReference:
    @pytest.mark.parametrize("projective", [False, True], ids=["rosendal", "projective"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_the_numeral_build_gives_the_tuple_arithmetic_palette(self, q, d, projective):
        reference = vector_palette_reference(q, d, projective)
        budget = Budget(10**7)
        space = (projective_rosendal if projective else rosendal)(q, d, 1, budget=budget)
        built = (
            space.points,
            space.meta["masks"],
            space.meta["dims"],
            space.palette,
            budget.used,
        )
        assert built == reference


class TestGridMetric:
    @pytest.mark.parametrize("step", ["1", "1/2", "1/3", "1/4"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_distance_is_the_sup_of_the_label_differences(self, dimension, step):
        grid = grid_sphere(dimension, Fraction(step), 1)
        for x, a in enumerate(grid.points):
            for y, b in enumerate(grid.points):
                distance = grid.distance(x, y)
                assert type(distance) is Fraction
                assert distance == max(abs(s - t) for s, t in zip(a, b))


class TestPigeonhole:
    def test_even_half_is_decided(self, ms8):
        top = top_subspace(ms8)
        evens = frozenset({0, 2, 4, 6})
        q, side = provider_for(ms8).decide(ms8, (), evens, top)
        assert side == "subset"
        assert all(x in evens for x in ms8.admitted_points((), q))

    def test_binary_field_decides_first_coordinate(self, f2d4):
        top = top_subspace(f2d4)
        target = frozenset(
            i for i, v in enumerate(f2d4.points) if v[0] == 1
        )
        q, side = provider_for(f2d4).decide(f2d4, (), target, top)
        admitted = f2d4.admitted_points((), q)
        if side == "subset":
            assert all(x in target for x in admitted)
        else:
            assert all(x not in target for x in admitted)

    def test_ternary_counterexample_refused_with_witness(self, f3d4):
        top = top_subspace(f3d4)
        target = counterexample_sets(f3d4, FIRST_COORD_ONE)
        with pytest.raises(PigeonholeUnavailable) as exc:
            provider_for(f3d4).decide(f3d4, (), target, top)
        a, b = exc.value.witness
        assert a in target and b not in target

    def test_approximate_form_expands_the_set(self, grid_quarter):
        top = top_subspace(grid_quarter)
        x = grid_quarter.points.index((Fraction(1), Fraction(0)))
        q, side = provider_for(grid_quarter).decide(
            grid_quarter, (), frozenset({x}), top, "1/4"
        )
        assert side in ("subset", "complement")


class TestCounterexampleSets:
    def test_first_coordinate_membership(self, f3d4):
        target = counterexample_sets(f3d4, FIRST_COORD_ONE)
        assert f3d4.points.index((1, 0, 0, 0)) in target
        assert f3d4.points.index((2, 0, 0, 0)) not in target

    def test_every_subspace_meets_both_sides(self, f3d4):
        target = counterexample_sets(f3d4, FIRST_COORD_ONE)
        assert meets_both_scan(f3d4, target, min_dim=1) == []

    def test_projective_first_last_membership(self, proj3d4):
        target = counterexample_sets(proj3d4, PROJECTIVE_FIRST_LAST)
        assert proj3d4.points.index((1, 0, 1, 0)) in target
        assert proj3d4.points.index((1, 0, 2, 0)) not in target

    def test_projective_scan_above_lines(self, proj3d4):
        target = counterexample_sets(proj3d4, PROJECTIVE_FIRST_LAST)
        assert meets_both_scan(proj3d4, target, min_dim=2) == []

    def test_support_payoff_evaluation(self):
        ros5 = rosendal(5, 4, 1)
        payoff = counterexample_sets(ros5, PHI_SUPPORT)
        x0 = ros5.points.index((2, 0, 0, 0))
        e1 = ros5.points.index((0, 1, 0, 0))
        e2 = ros5.points.index((0, 0, 1, 0))
        # phi(2) = 1, so membership needs the second support to start
        # past position one.
        assert not payoff.accepts((x0, e1))
        assert payoff.accepts((x0, e2))

    def test_kind_mismatch(self, ms6, f3d4):
        with pytest.raises(KindMismatch):
            counterexample_sets(ms6, FIRST_COORD_ONE)
        with pytest.raises(KindMismatch):
            counterexample_sets(f3d4, PROJECTIVE_FIRST_LAST)

    def test_phi_support_block_scan_finds_no_inside_subspace(self):
        ros5 = rosendal(5, 4, 1)
        assert phi_support_block_scan(ros5) == []

    def test_phi_support_block_scan_detects_small_field(self):
        # With too few scalars, some two-dimensional subspaces sit fully
        # inside the target: the finite shadow needs the scalar range.
        ros3 = rosendal(3, 4, 1)
        assert phi_support_block_scan(ros3) != []
