"""Tests for the benchmark's independent checkers.

    python3 -m pytest perfbench -q

They pin the checkers to hand-worked values and show that each rejects a
corrupted output, so a checker that accepts everything cannot pass.
"""

import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from pqpierce import family, geometry, piercing  # noqa: E402


def fam2(bodies):
    return family.Family(2, tuple(
        geometry.ConvexPolygon.from_points([geometry.Point(x, y) for x, y in b]) for b in bodies))


def square(x0, y0, x1, y1):
    return [(Fraction(x0), Fraction(y0)), (Fraction(x1), Fraction(y0)),
            (Fraction(x1), Fraction(y1)), (Fraction(x0), Fraction(y1))]


def brute_max_r(nerve, p, q):
    import itertools
    return min(checks.count_in(nerve, s, q) for s in itertools.combinations(range(nerve.n), p))


# -- thresholds ---------------------------------------------------------------

def worked_args(**extra):
    args = {"p": 6, "q": 3, "d": 2, "k": 0, "f": 2, "s": 1, "epsilon": "1/10", "r": 1}
    args.update(extra)
    return args


def test_paper_worked_example_6_3():
    want = checks.expected_thresholds(worked_args())
    assert want["thm1"] == (11, 4)
    assert want["lemma-r0"] == (17, 2)
    assert want["thm3"] == (16, 2)


@pytest.mark.parametrize("p,q,d", [(6, 3, 2), (9, 4, 3), (40, 17, 2), (300, 150, 3)])
def test_thm3_at_top_k_is_thm1(p, q, d):
    want = checks.expected_thresholds(worked_args(p=p, q=q, d=d, f=1, k=0))
    assert want["thm3-top"][0] == want["thm1"][0]


def test_implied_r_is_the_ceiling():
    for p, q, d in [(6, 3, 2), (10, 5, 2), (30, 12, 3)]:
        r = checks.implied_r(p, q, d)
        c = checks.binom(p, q)
        assert r ** (2 * d) * p ** q >= c ** (2 * d) > (r - 1) ** (2 * d) * p ** q


def test_binom_and_kalai_small_values():
    assert [checks.binom(6, k) for k in range(-1, 8)] == [0, 1, 6, 15, 20, 15, 6, 1, 0]
    # q-subsets of [p] with at most d members outside a fixed s-set
    assert checks.kalai(6, 3, 2, 2) == 0 * 1 + 1 * 4 + 2 * 6


def thresholds_outputs(args):
    from pqpierce import cli  # only to produce the outputs under test
    import contextlib, io, json
    outputs = {}
    base = ["--p", str(args["p"]), "--q", str(args["q"]), "--d", str(args["d"])]
    extra = {"thm1": [], "thm2": ["--epsilon", args["epsilon"]], "thm3": ["--k", str(args["k"])],
             "thm3-top": ["--k", str(args["p"] - args["q"] - 1)], "lemma-r0": ["--f", str(args["f"])],
             "remark": ["--f", str(args["f"])], "kalai": ["--s", str(args["s"])],
             "hd-region": [], "implied-q": ["--r", str(args["r"])]}
    for key, tail in extra.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["bounds", "thm3" if key == "thm3-top" else key] + base + tail) == 0
        outputs[key] = json.loads(out.getvalue())
    return outputs


def test_thresholds_check_accepts_program_and_rejects_corruption():
    args = worked_args(p=40, q=17, d=2, k=5, f=4, s=20)
    args["r"] = checks.implied_r(40, 17, 2)
    outputs = thresholds_outputs(args)
    checks.check_thresholds(args, outputs)
    bad = dict(outputs, thm1=dict(outputs["thm1"], threshold_r=str(int(outputs["thm1"]["threshold_r"]) + 1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_thresholds(args, bad)
    qp = outputs["implied-q"]["q_prime"]
    for wrong in (qp - 1, qp + 1):
        with pytest.raises(checks.CheckFailed):
            checks.check_thresholds(args, dict(outputs, **{"implied-q": {"q_prime": wrong}}))


# -- geometry and f-vectors ---------------------------------------------------

def test_hull_drops_collinear_and_repeats():
    pts = [(0, 0), (2, 0), (1, 0), (2, 2), (0, 2), (1, 1), (2, 2)]
    assert checks.hull(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert checks.hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
    assert checks.hull([(3, 3), (3, 3)]) == [(3, 3)]


def test_hand_counted_f_vector_1d():
    ivs = [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(3)),
           (Fraction(2), Fraction(4)), (Fraction(5), Fraction(6))]
    assert checks.Nerve1D(ivs).f_vector() == [4, 3, 1, 0]


def test_hand_counted_f_vector_2d():
    # three segments forming a triangle meet pairwise at its corners but
    # share no point; a point body sits on the first segment
    o, a, b = (Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)), (Fraction(2), Fraction(4))
    bodies = [[o, a], [a, b], [b, o], [(Fraction(2), Fraction(0))]]
    nerve = checks.Nerve2D(bodies)
    assert nerve.f_vector() == [4, 4, 0, 0]
    assert list(family.f_vector(fam2(bodies))) == [4, 4, 0, 0]
    # nested squares: everything meets
    nested = [square(0, 0, 4, 4), square(1, 1, 3, 3), square(2, 2, 5, 5)]
    assert checks.Nerve2D(nested).f_vector() == [3, 3, 1]


def test_f_vector_check_rejects_a_wrong_entry():
    bodies = [square(0, 0, 2, 2), square(1, 1, 3, 3), square(5, 5, 6, 6)]
    nerve = checks.Nerve2D(bodies)
    checks.check_f_vector([3, 1, 0], nerve)
    with pytest.raises(checks.CheckFailed):
        checks.check_f_vector([3, 2, 0], nerve)


@pytest.mark.parametrize("seed", range(6))
def test_nerve_agrees_with_program_on_random_families(seed):
    rng = random.Random(seed)
    bodies = inputs.dense_polygons(rng, 6) if seed % 2 else inputs.clustered_polygons(rng, 3, 2)
    nerve = checks.Nerve2D(bodies)
    assert nerve.f_vector() == list(family.f_vector(fam2(bodies)))


# -- max_r ----------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_max_r_check_rejects_off_by_one(dim):
    rng = random.Random(7)
    if dim == 1:
        data = inputs.dense_intervals(rng, 9)
        nerve = checks.Nerve1D(data)
        F = family.Family(1, tuple(geometry.Interval(lo, hi) for lo, hi in data))
    else:
        data = inputs.dense_polygons(rng, 6)
        nerve = checks.Nerve2D(data)
        F = fam2(data)
    p, q = 5, 3
    report = family.max_r(F, p, q)
    assert report.max_r == brute_max_r(nerve, p, q)
    checks.check_max_r(report.max_r, report.witness_subset, nerve, p, q, random.Random(1))
    for wrong in (report.max_r - 1, report.max_r + 1):
        with pytest.raises(checks.CheckFailed):
            checks.check_max_r(wrong, report.witness_subset, nerve, p, q, random.Random(1))


def test_max_r_check_rejects_a_witness_that_is_not_the_minimum():
    data = [square(0, 0, 4, 4), square(1, 1, 5, 5), square(2, 2, 6, 6), square(10, 10, 11, 11)]
    nerve = checks.Nerve2D(data)
    # {0,1,2} carries 3 meeting pairs, but {0,1,3} carries only 1
    with pytest.raises(checks.CheckFailed):
        checks.check_max_r(3, (0, 1, 2), nerve, 3, 2, random.Random(0), samples=20)


# -- piercing -----------------------------------------------------------------

def test_dropped_piercing_point_is_rejected_2d():
    data = inputs.clustered_polygons(random.Random(3), 4, 2)
    nerve = checks.Nerve2D(data)
    result = piercing.min_piercing(fam2(data))
    points = [(p.x, p.y) for p in result.points]
    checks.check_min_piercing_2d(points, nerve)
    with pytest.raises(checks.CheckFailed):
        checks.check_min_piercing_2d(points[1:], nerve)


def test_larger_than_optimal_piercing_is_rejected_2d():
    data = [square(0, 0, 2, 2), square(1, 1, 3, 3)]
    nerve = checks.Nerve2D(data)
    checks.check_min_piercing_2d([(Fraction(1), Fraction(1))], nerve)
    with pytest.raises(checks.CheckFailed):
        checks.check_min_piercing_2d([(Fraction(0), Fraction(0)), (Fraction(3), Fraction(3))], nerve)


def test_dropped_piercing_point_is_rejected_1d():
    ivs = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5, 2))]
    checks.check_min_piercing_1d([Fraction(1), Fraction(3)], ivs)
    with pytest.raises(checks.CheckFailed):
        checks.check_min_piercing_1d([Fraction(1)], ivs)
    with pytest.raises(checks.CheckFailed):  # pierces all, but not minimum
        checks.check_min_piercing_1d([Fraction(0), Fraction(2), Fraction(3)], ivs)


def test_ms_line_check():
    data = inputs.hd_family(random.Random(5), 6, 0)
    nerve = checks.Nerve2D(data)
    witness = piercing.ms_line(fam2(data))
    checks.check_ms_line(witness, nerve)
    # a line far from every body cannot be met by A, which meets A and B
    far = piercing.LineLemmaWitness(witness.A_index, witness.B_index,
                                    geometry.Line(0, 1, 1000), witness.x0)
    with pytest.raises(checks.CheckFailed):
        checks.check_ms_line(far, nerve)


def test_degeneracy_check_rejects_a_shallow_point():
    data = [square(0, 0, 2, 2), square(1, 1, 3, 3), square(1, 0, 4, 2)]
    nerve = checks.Nerve2D(data)
    checks.check_degeneracy_2d(0, geometry.Point(Fraction(3, 2), Fraction(3, 2)), nerve)
    with pytest.raises(checks.CheckFailed):
        checks.check_degeneracy_2d(1, geometry.Point(Fraction(0), Fraction(0)), nerve)


def test_line_family_premise_holds():
    """The line workload relies on this count for its premise."""
    assert inputs.min_line_pairs(6, [3, 3, 3], 1) == 2
    assert inputs.min_line_pairs(5, [4, 4], 1) == 2
