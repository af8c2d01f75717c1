"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Every tolerance is exact (integer equality or zero
violations); random suites are seeded and deterministic.
"""

import itertools
import time
from pqpierce.bounds import (
    dim1_threshold,
    kalai_bound,
    implied_q,
    lemma_r0_threshold,
    ms_threshold,
    thm3_threshold,
)
from pqpierce.family import (
    degeneracy_level,
    f_vector,
    max_r,
    satisfies_pqr,
)
from pqpierce.generators import (
    GeneratorSpec,
    disjoint_plus_container,
    extremal_dim1,
    random_family,
    sample_until,
)
from pqpierce.geometry import body_contains_point, intersect_bodies, lexmax_body, line_meets_body
from pqpierce.piercing import (
    branch_and_bound_piercing,
    hd_pierce,
    min_piercing,
    ms_line,
    sweep_piercing_1d,
)

from conftest import (
    exhaustive_candidate_points,
    frozenset_branch_and_bound,
    intersecting_subfamilies,
    ring_caps,
)


def report(criterion: str, detail: str, started: float) -> None:
    print(f"PASS {criterion}: {detail} [{time.time() - started:.1f}s]")


def test_criterion_1_paper_anchored_bounds():
    started = time.time()
    ms = ms_threshold(6, 3, 2)
    assert (ms.threshold_r, ms.pierce_bound) == (11, 4)
    r0 = lemma_r0_threshold(6, 3, 2, 2)
    assert (r0.threshold_r, r0.pierce_bound) == (17, 2)
    t3 = thm3_threshold(6, 3, 2, 0)
    assert (t3.threshold_r, t3.pierce_bound) == (16, 2)
    assert time.time() - started < 1.0
    report("criterion 1", "worked example (11, 17, 16) reproduced exactly", started)


def test_criterion_2_reduction_identity():
    started = time.time()
    checked = 0
    for p in range(3, 21):
        for q in range(2, p):
            for d in range(1, q):
                if d > 1 and q < d + 1:
                    continue
                assert (
                    thm3_threshold(p, q, d, p - q - 1).threshold_r
                    == ms_threshold(p, q, d).threshold_r
                )
                checked += 1
    assert time.time() - started < 10.0
    report("criterion 2", f"identity holds at all {checked} grid points, p <= 20", started)


def test_criterion_3_dim1_tightness_sweep():
    started = time.time()
    # extremal half: exact tightness and piercing number
    grid_points = 0
    for p in range(3, 10):
        for k in range(0, p - 2):
            F = extremal_dim1(p, k)
            assert len(min_piercing(F)) == k + 2
            for q in range(2, p - k):
                assert max_r(F, p, q).max_r == dim1_threshold(p, q, k).threshold_r - 1
                grid_points += 1
    # random half: above the threshold, k+1 points always suffice
    families = 0
    premise_hits = 0
    for seed in range(500):
        n = 5 + seed % 5  # sizes 5..9
        F = random_family(GeneratorSpec("random_intervals", n=n, seed=10_000 + seed))
        families += 1
        pierce = len(sweep_piercing_1d(F))
        for p in range(3, min(n, 9) + 1):
            for q in range(2, p + 1):
                observed = max_r(F, p, q).max_r
                for k in range(0, p - q):
                    if observed >= dim1_threshold(p, q, k).threshold_r:
                        premise_hits += 1
                        assert pierce <= k + 1
    assert families >= 500 and premise_hits > 0
    assert time.time() - started < 300.0
    report(
        "criterion 3",
        f"{grid_points} extremal grid points tight; {families} random families, "
        f"{premise_hits} threshold hits, zero violations",
        started,
    )


def test_criterion_4_kalai_property_suite():
    started = time.time()
    families = 0
    checks = 0
    suites = [
        (1, "random_intervals", range(250), (6, 10)),
        (2, "random_polygons", range(250), (5, 8)),
    ]
    for d, kind, seeds, (n_lo, n_hi) in suites:
        for seed in seeds:
            n = n_lo + seed % (n_hi - n_lo + 1)
            F = random_family(GeneratorSpec(kind, n=n, seed=20_000 + seed))
            families += 1
            fvec = f_vector(F)
            for s in range(0, n - d):
                if fvec[d + s] != 0:
                    continue
                for q in range(1, n + 1):
                    assert fvec[q - 1] <= kalai_bound(n, q, s, d)
                    checks += 1
    assert families >= 500
    assert time.time() - started < 300.0
    report("criterion 4", f"{families} families, {checks} bound checks, zero violations", started)


def test_criterion_5_implication_engine():
    started = time.time()
    families = 0
    checks = 0
    enlargements = 0
    suites = [
        (1, "random_intervals", range(150), (6, 8)),
        (2, "random_polygons", range(150), (5, 6)),
    ]
    for d, kind, seeds, (n_lo, n_hi) in suites:
        for seed in seeds:
            n = n_lo + seed % (n_hi - n_lo + 1)
            F = random_family(GeneratorSpec(kind, n=n, seed=30_000 + seed, span=8))
            families += 1
            for p in range(d + 1, n + 1):
                for q in range(max(2, d + 1), p + 1):
                    r = max_r(F, p, q).max_r
                    if r < 1:
                        continue
                    q_prime = implied_q(p, q, r, d)
                    assert satisfies_pqr(F, p, q_prime, 1)
                    checks += 1
                    if q_prime > q:
                        enlargements += 1
    assert families >= 300 and enlargements > 0
    assert time.time() - started < 300.0
    report(
        "criterion 5",
        f"{families} families, {checks} grid points ({enlargements} proper "
        "enlargements), zero violations",
        started,
    )


def test_criterion_6_constructive_hd():
    started = time.time()
    instances = 0
    # dimension 1: every q >= 2 is in the exact regime
    pairs_1d = [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 5)]
    for i in range(150):
        p, q = pairs_1d[i % len(pairs_1d)]
        spec = GeneratorSpec("random_intervals", n=p + i % 3, seed=40_000 + i, extent=6)
        F = sample_until(spec, lambda fam: satisfies_pqr(fam, p, q, 1), max_tries=300)
        result = hd_pierce(F, p, q)
        assert result.certified and len(result) <= p - q + 1
        for body in F.bodies:
            assert any(body_contains_point(body, pt) for pt in result.points)
        instances += 1
    # dimension 2: pairs with 2q > p + 2
    pairs_2d = [(4, 4), (5, 4), (5, 5), (6, 5), (6, 6), (7, 6)]
    for i in range(150):
        p, q = pairs_2d[i % len(pairs_2d)]
        spec = GeneratorSpec("random_polygons", n=p, seed=50_000 + i, span=6, extent=9)
        F = sample_until(spec, lambda fam: satisfies_pqr(fam, p, q, 1), max_tries=500)
        result = hd_pierce(F, p, q)
        assert result.certified and len(result) <= p - q + 1
        for body in F.bodies:
            assert any(body_contains_point(body, pt) for pt in result.points)
        instances += 1
    assert instances >= 300
    assert time.time() - started < 300.0
    report("criterion 6", f"{instances} filtered instances, all certificates verified", started)


def test_criterion_7_line_lemma_suite():
    started = time.time()
    families = 0
    for seed in range(300):
        n = 4 + seed % 3
        F = random_family(
            GeneratorSpec("random_polygons", n=n, seed=60_000 + seed, span=6 + seed % 5)
        )
        witness = ms_line(F)
        A, B = F.bodies[witness.A_index], F.bodies[witness.B_index]
        for C in F.bodies:
            if (
                intersect_bodies([A, C]) is not None
                and intersect_bodies([B, C]) is not None
            ):
                assert line_meets_body(witness.line, C)
        families += 1
    assert families >= 300
    assert time.time() - started < 300.0
    report("criterion 7", f"{families} witnesses verified against every member", started)


def test_criterion_8_pair_lemma():
    started = time.time()
    families = 0
    subfamilies = 0
    for seed in range(300):
        n = 5 + seed % 2
        F = random_family(GeneratorSpec("random_polygons", n=n, seed=70_000 + seed, span=5))
        pair_max = {}
        for i, j in itertools.combinations(range(n), 2):
            region = intersect_bodies([F.bodies[i], F.bodies[j]])
            if region is not None:
                pair_max[(i, j)] = lexmax_body(region)

        for chosen, region in intersecting_subfamilies(F, range(3, 7)):
            target = lexmax_body(region)
            assert any(
                pair_max.get((a, b)) == target
                for a, b in itertools.combinations(chosen, 2)
            )
            subfamilies += 1
        families += 1
    assert families >= 300 and subfamilies > 0
    assert time.time() - started < 300.0
    report(
        "criterion 8",
        f"{families} families, {subfamilies} intersecting subfamilies matched a pair",
        started,
    )


def test_criterion_9_thm3_end_to_end():
    started = time.time()
    p, q, d = 6, 3, 2
    thresholds = {k: thm3_threshold(p, q, d, k).threshold_r for k in (0, 1, 2)}
    corpus = [("pinwheel9", ring_caps())]
    for a in range(0, 6):
        for b in range(1, 6):
            if a + b >= p:
                corpus.append((f"dpc({a},{b})", disjoint_plus_container(a, b, 2)))
    for seed in range(150):
        n = 6 + seed % 3
        spec = GeneratorSpec(
            "random_polygons", n=n, seed=80_000 + seed, span=4 + seed % 6, extent=8
        )
        corpus.append((f"random{seed}", random_family(spec)))

    premise_hits = {0: 0, 1: 0, 2: 0}
    for name, F in corpus:
        level, _ = degeneracy_level(F)
        if level <= p - q:  # (p-q)-degenerate: excluded by the premise
            continue
        observed = max_r(F, p, q).max_r
        pierced = None
        for k in (0, 1, 2):
            if observed >= thresholds[k]:
                if pierced is None:
                    pierced = len(min_piercing(F))
                premise_hits[k] += 1
                assert pierced <= k + 2, (name, k, pierced)
    assert premise_hits[2] >= 1  # the cap construction genuinely fires the theorem
    assert time.time() - started < 600.0
    report(
        "criterion 9",
        f"{len(corpus)} families; premise hits per k: {premise_hits}; zero violations",
        started,
    )


def test_criterion_10_solver_cross_validation():
    started = time.time()
    for seed in range(200):
        n = 5 + seed % 6
        F = random_family(GeneratorSpec("random_intervals", n=n, seed=90_000 + seed))
        assert len(sweep_piercing_1d(F)) == len(frozenset_branch_and_bound(F))
    for seed in range(100):
        n = 5 + seed % 4
        F = random_family(GeneratorSpec("random_polygons", n=n, seed=95_000 + seed))
        restricted = branch_and_bound_piercing(F)
        exhaustive = frozenset_branch_and_bound(
            F, candidates=exhaustive_candidate_points(F)
        )
        assert len(restricted) == len(exhaustive)
    assert time.time() - started < 300.0
    report("criterion 10", "200 sweep/bnb + 100 restricted/exhaustive matches", started)
