"""Generator constructions and their closed-form properties."""

from dataclasses import replace
from fractions import Fraction

import pytest

from pqpierce.bounds import binom, dim1_threshold
from pqpierce.errors import ArityError, BudgetExceededError
from pqpierce.family import max_r, satisfies_pqr
from pqpierce.generators import (
    GeneratorSpec,
    disjoint_plus_container,
    extremal_dim1,
    random_family,
    sample_until,
)
from pqpierce.geometry import ConvexPolygon, Interval, Point, convex_hull
from pqpierce.piercing import min_piercing


class TestExtremalDim1:
    def test_shape_40(self):
        F = extremal_dim1(4, 0)
        assert F.bodies == (Interval(1, 1), Interval(2, 2), Interval(0, 3), Interval(0, 3))
        assert max_r(F, 4, 2).max_r == 5
        assert len(min_piercing(F)) == 2

    def test_61_counts(self):
        F = extremal_dim1(6, 1)
        assert max_r(F, 6, 3).max_r == 10 == dim1_threshold(6, 3, 1).threshold_r - 1
        assert len(min_piercing(F)) == 3

    def test_tightness_across_q(self):
        for p, k in [(5, 0), (6, 1), (7, 2), (8, 0)]:
            F = extremal_dim1(p, k)
            for q in range(2, p - k):
                assert max_r(F, p, q).max_r == dim1_threshold(p, q, k).threshold_r - 1
            assert len(min_piercing(F)) == k + 2

    def test_all_singletons_boundary(self):
        F = extremal_dim1(4, 2)
        assert len(F) == 4
        assert max_r(F, 4, 2).max_r == 0

    def test_parameter_validation(self):
        with pytest.raises(ArityError):
            extremal_dim1(3, 2)


class TestDisjointPlusContainer:
    def test_closed_form_count(self):
        # with |F| = p = a+b the minimum over p-subsets is the whole family:
        # q-tuples intersect iff they use at most one of the disjoint bodies
        for a, b, q in [(2, 4, 2), (3, 3, 3), (4, 2, 2), (1, 5, 4)]:
            for dim in (1, 2):
                F = disjoint_plus_container(a, b, dim)
                p = a + b
                assert max_r(F, p, q).max_r == binom(b, q) + a * binom(b, q - 1)

    def test_min_piercing(self):
        assert len(min_piercing(disjoint_plus_container(3, 0, 1))) == 3
        assert len(min_piercing(disjoint_plus_container(2, 4, 2))) == 2
        assert len(min_piercing(disjoint_plus_container(0, 3, 2))) == 1

    def test_pure_disjoint(self):
        F = disjoint_plus_container(3, 0, 2)
        assert max_r(F, 3, 2).max_r == 0

    def test_squares_match_hand_built_vertices(self):
        def square(x0, x1):
            return (Point(Fraction(x0), Fraction(0)), Point(Fraction(x1), Fraction(0)),
                    Point(Fraction(x1), Fraction(1)), Point(Fraction(x0), Fraction(1)))

        for a in range(7):
            for b in range(5):
                if a + b == 0:
                    continue
                want = [square(2 * i, 2 * i + 1) for i in range(a)]
                want += [square(0, max(2 * a - 1, 1))] * b
                F = disjoint_plus_container(a, b, 2)
                assert [body.vertices for body in F.bodies] == want

    def test_validation(self):
        with pytest.raises(ArityError):
            disjoint_plus_container(0, 0, 1)
        with pytest.raises(ArityError):
            disjoint_plus_container(1, 1, 3)


class TestRandomFamilies:
    def test_interval_determinism(self):
        spec = GeneratorSpec("random_intervals", n=6, seed=1)
        assert random_family(spec) == random_family(spec)

    def test_polygon_determinism_and_validity(self):
        spec = GeneratorSpec("random_polygons", n=5, seed=7)
        F = random_family(spec)
        assert F == random_family(spec)
        for body in F.bodies:
            assert convex_hull(body.vertices) == body.vertices

    def test_distinct_seeds_differ(self):
        a = random_family(GeneratorSpec("random_intervals", n=6, seed=1))
        b = random_family(GeneratorSpec("random_intervals", n=6, seed=2))
        assert a != b

    def test_filtered_sampling_terminates(self):
        spec = GeneratorSpec("random_polygons", n=6, seed=0, span=6, extent=8)
        F = sample_until(spec, lambda fam: satisfies_pqr(fam, 6, 5, 1), max_tries=200)
        assert satisfies_pqr(F, 6, 5, 1)

    def test_filtered_sampling_budget(self):
        spec = GeneratorSpec("random_intervals", n=3, seed=0)
        with pytest.raises(BudgetExceededError):
            sample_until(spec, lambda fam: False, max_tries=5)

    def test_filtered_sampling_returns_the_first_accepted_seed(self):
        # seeds 7, 8, 9, ... are drawn in turn, and the first family the
        # predicate accepts is returned
        spec = GeneratorSpec("random_intervals", n=4, seed=7)
        seen = []
        F = sample_until(spec, lambda fam: seen.append(fam) or len(seen) == 3, max_tries=5)
        assert seen == [random_family(replace(spec, seed=seed)) for seed in (7, 8, 9)]
        assert F == seen[-1]

    def test_filtered_sampling_budget_counts_tries(self):
        spec = GeneratorSpec("random_polygons", n=3, seed=11)
        seen = []
        with pytest.raises(BudgetExceededError, match="^no accepted family within 4 tries from seed 11$"):
            sample_until(spec, lambda fam: seen.append(fam), max_tries=4)
        assert seen == [random_family(replace(spec, seed=seed)) for seed in range(11, 15)]

    @pytest.mark.parametrize("seed", [None, True, 1.0, "1"])
    def test_seed_must_be_int(self, seed):
        with pytest.raises(ArityError):
            GeneratorSpec("random_intervals", n=3, seed=seed)

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_must_be_positive(self, grid):
        with pytest.raises(ArityError, match="grid must be >= 1"):
            GeneratorSpec("random_intervals", n=3, grid=grid)

    @pytest.mark.parametrize("kind, field, value", [
        ("random_intervals", "span", -1), ("random_polygons", "span", -1),
        ("random_intervals", "extent", 0), ("random_polygons", "extent", -1),
        ("random_polygons", "min_vertices", 0), ("random_polygons", "max_vertices", 2),
    ])
    def test_ranges_must_be_drawable(self, kind, field, value):
        with pytest.raises(ArityError, match=f"^{field} must be >= "):
            GeneratorSpec(kind, n=3, **{field: value})

    def test_ranges_unread_by_a_kind_are_free(self):
        # extremal_dim1 draws nothing, random_intervals makes no vertices
        assert len(random_family(GeneratorSpec("extremal_dim1", p=4, k=0, span=-1))) == 4
        GeneratorSpec("random_intervals", n=3, min_vertices=0, max_vertices=-1)

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "x" * 5000}, "unknown generator kind '" + "x" * 49 + "..."),
        ({"kind": 10 ** 5000}, f"unknown generator kind a number of {(10 ** 5000).bit_length()} bits"),
        ({"kind": "random_intervals", "seed": "1" * 5000}, "seed must be an int, got '" + "1" * 49 + "..."),
        ({"kind": "random_intervals", "grid": -10 ** 5000},
         f"grid must be >= 1, got a negative number of {(10 ** 5000).bit_length()} bits"),
        ({"kind": "random_polygons", "span": -10 ** 5000},
         f"span must be >= 0, got a negative number of {(10 ** 5000).bit_length()} bits"),
        ({"kind": "mystery"}, "unknown generator kind 'mystery'"),
        ({"kind": "random_intervals", "seed": "1"}, "seed must be an int, got '1'"),
    ])
    def test_long_values_are_cut(self, fields, message):
        with pytest.raises(ArityError) as got:
            GeneratorSpec(**fields)
        assert str(got.value) == message

    def test_unknown_kind(self):
        with pytest.raises(ArityError):
            GeneratorSpec("mystery")
