"""Threshold formulas: anchored values, identities, hypothesis checks."""

import random
import time
from fractions import Fraction

import pytest

from pqpierce import bounds
from pqpierce.bounds import (
    CAVEAT_NON_DEGENERATE,
    CAVEAT_P0_UNKNOWN,
    binom,
    ceil_power,
    dim1_threshold,
    hd_exact_region,
    implied_q,
    kalai_bound,
    lemma_r0_threshold,
    m0,
    ms_threshold,
    remark_threshold,
    thm2_threshold,
    thm3_threshold,
)
from pqpierce.errors import ArityError, BudgetExceededError


class TestBinom:
    def test_values(self):
        assert binom(6, 3) == 20
        assert binom(5, 0) == 1

    def test_zero_convention(self):
        assert binom(2, 3) == 0
        assert binom(-1, 0) == 0
        assert binom(4, -1) == 0


class TestKalaiBound:
    def test_anchored_662(self):
        assert kalai_bound(6, 3, 2, 2) == 16
        assert kalai_bound(6, 3, 2, 2) == lemma_r0_threshold(6, 3, 2, 2).threshold_r - 1

    def test_s_zero_collapses(self):
        for p in range(3, 8):
            for d in range(2, 5):
                for q in range(1, d + 1):
                    assert kalai_bound(p, q, 0, d) == binom(p, q)

    def test_all_terms_vanish(self):
        assert kalai_bound(6, 6, 3, 2) == 0

    def test_nondecreasing_in_s(self):
        # stronger emptiness hypotheses (smaller s) cap the count harder,
        # so the bound grows with s on the tested grid
        for p in range(3, 31):
            for d in (1, 2, 3):
                for q in range(d + 1, p + 1):
                    values = [kalai_bound(p, q, s, d) for s in range(0, p + 1)]
                    assert values == sorted(values)


class TestMsThreshold:
    def test_anchored_632(self):
        result = ms_threshold(6, 3, 2)
        assert result.threshold_r == 11 and result.pierce_bound == 4

    def test_helly_case(self):
        for d in (1, 2, 3):
            result = ms_threshold(d + 1, d + 1, d)
            assert result.threshold_r == 1 and result.pierce_bound == 1

    def test_742(self):
        result = ms_threshold(7, 4, 2)
        assert result.threshold_r == 16 and result.pierce_bound == 4

    def test_hypothesis_rejected(self):
        with pytest.raises(ArityError):
            ms_threshold(4, 2, 2)


class TestLemmaR0:
    def test_anchored_17(self):
        result = lemma_r0_threshold(6, 3, 2, 2)
        assert result.threshold_r == 17 and result.pierce_bound == 2

    def test_identity_with_kalai(self):
        for p in range(4, 16):
            for d in (1, 2):
                for q in range(max(2, d + 1), p + 1):
                    for f in range(1, p // d):
                        if d * (f + 1) > p:
                            continue
                        assert (
                            lemma_r0_threshold(p, q, d, f).threshold_r
                            == kalai_bound(p, q, p - f - d, d) + 1
                        )

    def test_max_f_instantiation(self):
        # f = floor(p/d) - 1 is the largest admissible piercing target
        result = lemma_r0_threshold(12, 5, 2, 5)
        assert result.pierce_bound == 5
        with pytest.raises(ArityError):
            lemma_r0_threshold(12, 5, 2, 6)

    def test_derived_8423(self):
        result = lemma_r0_threshold(8, 4, 2, 3)
        assert result.threshold_r == 36 and result.pierce_bound == 3
        # oracle-checked chain: r=36 certifies the (8,6) property, whose
        # piercing number in the exact regime is 3 = f
        assert implied_q(8, 4, 36, 2) == 6
        assert hd_exact_region(8, 6, 2) == 3

    def test_f_range(self):
        with pytest.raises(ArityError):
            lemma_r0_threshold(6, 3, 2, 0)


class TestRemarkThreshold:
    def test_derived_6322(self):
        result = remark_threshold(6, 3, 2, 2)
        assert result.threshold_r == 20
        assert CAVEAT_P0_UNKNOWN in result.caveats

    def test_f1_matches_kalai_form(self):
        for p in range(4, 12):
            for d in (1, 2):
                for q in range(max(2, d + 1), p + 1):
                    assert (
                        remark_threshold(p, q, d, 1).threshold_r
                        == kalai_bound(p, q, p - d, d) + 1
                    )

    def test_epsilon_range_enforced(self):
        # with epsilon given, f is capped at p - ceil(p^((d-1)/d+eps)) + 2
        m = ceil_power(16, Fraction(1, 2) + Fraction(1, 4))
        limit = 16 - m + 2
        remark_threshold(16, 3, 2, limit, epsilon=Fraction(1, 4))
        with pytest.raises(ArityError):
            remark_threshold(16, 3, 2, limit + 1, epsilon=Fraction(1, 4))

    def test_boundary_f_matches_thm2_case2(self):
        # at the top of the admissible range the remark instantiates the
        # same piercing number as the second threshold case
        p, q, d, eps = 16, 8, 2, Fraction(1, 2)
        m = ceil_power(p, Fraction(d - 1, d) + eps)
        f = p - m + 2
        assert remark_threshold(p, q, d, f, epsilon=eps).pierce_bound == f
        assert thm2_threshold(p, q, d, eps).pierce_bound == f


class TestCeilPower:
    def test_exact_integer_power(self):
        assert ceil_power(16, Fraction(1)) == 16
        assert ceil_power(27, Fraction(2, 3)) == 9
        assert ceil_power(26, Fraction(2, 3)) == 9
        assert ceil_power(28, Fraction(2, 3)) == 10

    def test_tiny_exponent(self):
        assert ceil_power(8, Fraction(1, 100)) == 2
        assert ceil_power(1, Fraction(5, 7)) == 1

    def test_huge_values_exact(self):
        # spot-check the pure-integer comparison far beyond float precision
        p, e = 10**6, Fraction(5, 3)
        m = ceil_power(p, e)
        assert m**3 >= p**5 > (m - 1) ** 3

    def test_power_budget(self):
        # 2^1048575 has 2^20 bits and 3^661577 one fewer: both are built;
        # one more factor of either passes the budget, as does 100^1000005
        assert bounds.POWER_BIT_BUDGET == 1 << 20
        assert ceil_power(2, Fraction(1048575)) == 2**1048575
        assert ceil_power(3, Fraction(661577)) == 3**661577
        for p, a in ((2, 1048576), (3, 661578), (100, 1000005)):
            with pytest.raises(BudgetExceededError, match=(
                    rf"^ceil_power needs p\^a with p of {p.bit_length()} bits and a of "
                    rf"{a.bit_length()} bits, past the budget of 1048576 bits$")):
                ceil_power(p, Fraction(a, 7))

    def test_power_budget_message_past_the_str_limit(self):
        # a numerator of 5001 digits, past CPython's 4300-digit int-to-str
        # limit: the message gives its size, so it prints and stays short
        a = 10 ** 5000 + 1
        with pytest.raises(BudgetExceededError) as got:
            ceil_power(10, Fraction(a, 10 ** 4999))
        assert str(got.value) == (f"ceil_power needs p^a with p of 4 bits and a of "
                                  f"{a.bit_length()} bits, past the budget of 1048576 bits")
        assert len(str(got.value)) < 200

    def test_arity_messages_past_the_str_limit(self):
        # a negative exponent or epsilon over a 5001-digit denominator is
        # refused by its bit lengths, not by the int-to-str ValueError;
        # short values keep their exact messages
        den = 10 ** 5000
        cases = (
            (lambda: ceil_power(10, Fraction(-den - 1, den // 10)),
             "need p >= 1 and exponent >= 0, got p=10, "
             f"e=a negative rational of {(den + 1).bit_length()} bits over {(den // 10).bit_length()} bits"),
            (lambda: ceil_power(-den, Fraction(1)),
             f"need p >= 1 and exponent >= 0, got p=a negative number of {den.bit_length()} bits, e=1"),
            (lambda: thm2_threshold(10, 6, 2, Fraction(-1, den)),
             f"epsilon must be positive, got a negative rational of 1 bits over {den.bit_length()} bits"),
            (lambda: ceil_power(10, Fraction(-1, 3)), "need p >= 1 and exponent >= 0, got p=10, e=-1/3"),
            (lambda: thm2_threshold(10, 6, 2, Fraction(-1, 7)), "epsilon must be positive, got -1/7"),
        )
        for call, message in cases:
            with pytest.raises(ArityError) as got:
                call()
            assert str(got.value) == message

    def test_root_of_a_long_power(self):
        # the root's start comes from a float estimate, so the Newton
        # steps are few however large the root's degree
        start = time.process_time()
        m = ceil_power(3, Fraction(391001, 40000))
        assert m == 46119 and m**40000 >= 3**391001 > (m - 1) ** 40000
        # p^(1/1000000007) lies in (1, 2): no root of degree 10^9 is taken
        assert thm2_threshold(10, 5, 1, Fraction(1, 1000000007)).threshold_r == 7
        assert time.process_time() - start < 1

    def test_square_root_matches_the_newton_path(self):
        # floor(sqrt(x)) is floor((x^2)^(1/4)), which the Newton steps take
        rng = random.Random(2)
        for bits in (1, 2, 30, 52, 53, 54, 200, 1000, 3000):
            for _ in range(5):
                s = rng.getrandbits(bits) | 1 << (bits - 1)
                for x in (s * s - 1, s * s, s * s + 1):
                    r = bounds._floor_root(x, 2)
                    assert r * r <= x < (r + 1) * (r + 1)
                    assert r == bounds._floor_root(x * x, 4)

    def test_long_square_root(self):
        # 2^524287 has a 2^19-bit root; Newton steps divide numbers of
        # 2^20 bits, isqrt does not
        start = time.process_time()
        m = ceil_power(2, Fraction(524287, 2))
        assert time.process_time() - start < 1
        assert m * m >= 2**524287 > (m - 1) * (m - 1)

    @pytest.mark.parametrize("p, q, d, f, epsilon", [
        (100, 50, 2, None, Fraction(1, 1000003)),
        (100, 50, 2, None, Fraction(1, 10000019)),
        (100, 50, 2, None, Fraction(10000019)),
        (10, 5, 2, 1, Fraction(1, 10000019)),
    ])
    def test_power_past_the_budget_raises_quickly(self, p, q, d, f, epsilon):
        start = time.process_time()
        with pytest.raises(BudgetExceededError):
            if f is None:
                thm2_threshold(p, q, d, epsilon)
            else:
                remark_threshold(p, q, d, f, epsilon)
        assert time.process_time() - start < 1


class TestThm2Threshold:
    def test_dim1_small_epsilon_first_case(self):
        # exponent collapses to epsilon; ceil(p^eps) = 2, so every q >= 3
        # lands in the large-q case with piercing p-q+1
        for p in range(4, 10):
            for q in range(3, p + 1):
                result = thm2_threshold(p, q, 1, Fraction(1, 100))
                assert result.pierce_bound == p - q + 1

    def test_derived_16_8_2_half(self):
        # frozen from the binomial-sum oracle
        result = thm2_threshold(16, 8, 2, Fraction(1, 2))
        expected = sum(binom(13, 8 - i) * binom(3, i) for i in range(3)) + 1
        assert expected == 11584
        assert result.threshold_r == 11584
        assert result.pierce_bound == 2
        assert CAVEAT_P0_UNKNOWN in result.caveats

    def test_certified_piercing_monotone_in_epsilon(self):
        # larger epsilon never shrinks the q-enlargement k = ceil(...) - q
        p, q, d = 20, 5, 2
        ks = []
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            m = ceil_power(p, Fraction(d - 1, d) + eps)
            ks.append(max(m - q, 0))
        assert ks == sorted(ks)


class TestM0:
    def test_derived_values(self):
        assert m0(6, 3, 0) == 3
        assert m0(10, 4, 2) == 6
        assert m0(7, 4, 1) == 3

    def test_k_max_is_one(self):
        for p in range(4, 12):
            for q in range(2, p):
                assert m0(p, q, p - q - 1) == 1

    def test_direct_search_oracle(self):
        # independent restatement: first m whose triangular number C(m+1,2)
        # reaches the target, on every valid (p, q, k) with p < 40
        for p in range(1, 40):
            for q in range(p + 1):
                for k in range(p - q):
                    target = (p - q - k - 1) * (p - q + k + 2) // 2 + 1
                    m = 1
                    while (m + 1) * m // 2 < target:
                        m += 1
                    assert m0(p, q, k) == m

    def test_k_range(self):
        with pytest.raises(ArityError):
            m0(6, 3, 3)


class TestThm3Threshold:
    def test_anchored_16(self):
        result = thm3_threshold(6, 3, 2, 0)
        assert result.threshold_r == 16 and result.pierce_bound == 2
        assert CAVEAT_NON_DEGENERATE in result.caveats

    def test_anchored_reduction_point(self):
        assert thm3_threshold(6, 3, 2, 2).threshold_r == ms_threshold(6, 3, 2).threshold_r == 11

    def test_derived_7421(self):
        result = thm3_threshold(7, 4, 2, 1)
        assert result.threshold_r == 23 and result.pierce_bound == 3

    def test_k_range(self):
        with pytest.raises(ArityError):
            thm3_threshold(6, 3, 2, 3)
        with pytest.raises(ArityError):
            thm3_threshold(6, 6, 2, 0)


class TestDim1Threshold:
    def test_derived_420(self):
        result = dim1_threshold(4, 2, 0)
        assert result.threshold_r == 6 and result.pierce_bound == 1

    def test_derived_631(self):
        result = dim1_threshold(6, 3, 1)
        assert result.threshold_r == 11 and result.pierce_bound == 2

    def test_boundary_k_equals_p_minus_q(self):
        # both binomials vanish at p-k-2 = q-2, so the threshold is 1:
        # the plain (p,q) property already gives p-q+1 points in 1D
        for p in range(4, 10):
            for q in range(2, p + 1):
                result = dim1_threshold(p, q, p - q)
                assert result.threshold_r == 1
                assert result.pierce_bound == p - q + 1

    def test_range(self):
        with pytest.raises(ArityError):
            dim1_threshold(4, 2, 3)


class TestHdExactRegion:
    def test_anchored(self):
        assert hd_exact_region(6, 5, 2) == 2
        assert hd_exact_region(5, 2, 1) == 4
        assert hd_exact_region(6, 4, 2) is None

    def test_dim1_always_exact(self):
        for p in range(2, 12):
            for q in range(2, p + 1):
                assert hd_exact_region(p, q, 1) == p - q + 1


def implied_q_scan(p, q, r, d):
    """The linear scan implied_q replaced: q' from p down, first certified."""
    for q_prime in range(p, q, -1):
        if r > kalai_bound(p, q, q_prime - 1 - d, d):
            return q_prime
    return q


def paper_r(p, q, d):
    """The paper's r = ceil(C(p,q) / p^(q/(2d))), decided over the integers."""
    x = -(-(binom(p, q) ** (2 * d)) // p**q)
    return ceil_power(x, Fraction(1, 2 * d))


class TestImpliedQ:
    def test_anchored_17_gives_5(self):
        assert implied_q(6, 3, 17, 2) == 5
        assert hd_exact_region(6, 5, 2) == 2

    def test_derived_11_gives_4(self):
        assert implied_q(6, 3, 11, 2) == 4
        assert hd_exact_region(6, 4, 2) is None

    def test_r1_certifies_nothing(self):
        for p in range(4, 10):
            for d in (1, 2):
                for q in range(d + 1, p + 1):
                    assert implied_q(p, q, 1, d) == q

    def test_guarantee_condition_holds_at_answer(self):
        for p, q, r, d in [(6, 3, 17, 2), (6, 3, 11, 2), (8, 4, 36, 2), (9, 2, 5, 1)]:
            qp = implied_q(p, q, r, d)
            if qp > q:
                assert r > kalai_bound(p, q, qp - 1 - d, d)

    def test_linear_scan_oracle(self):
        rng = random.Random(7)
        cases = 0
        for _ in range(600):
            d = rng.choice((1, 2, 3))
            p = rng.randint(d + 1, 90)
            q = rng.randint(max(2, d + 1), p)
            c = binom(p, q)
            for r in (1, c, c + 1, paper_r(p, q, d), rng.randint(1, c + 1)):
                assert implied_q(p, q, r, d) == implied_q_scan(p, q, r, d)
                cases += 1
        for p in (100, 300, 1000):
            for d in (2, 3):
                for q in (p // 4, p // 2):
                    r = paper_r(p, q, d)
                    assert implied_q(p, q, r, d) == implied_q_scan(p, q, r, d)
                    cases += 1
        assert cases > 3000

    def test_logarithmic_kalai_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return kalai_bound(*args)

        monkeypatch.setattr(bounds, "kalai_bound", counting)
        p, q = 2000, 1000
        c = binom(p, q)
        for d in (1, 2, 3):
            for r in (1, 2, paper_r(p, q, d), c // 3, c, c + 1):
                calls.clear()
                qp = implied_q(p, q, r, d)
                assert 0 < len(calls) <= (p - q).bit_length() + 1
                # the answer is certified and the next q' is not
                assert qp == q or r > kalai_bound(p, q, qp - 1 - d, d)
                assert qp == p or r <= kalai_bound(p, q, qp - d, d)


def thm2_oracle(p, q, d, epsilon):
    """Theorem 2's two Kalai-count cases as first written, None where its
    piercing number p-(q+k)+2 falls below 1."""
    m = ceil_power(p, Fraction(d - 1, d) + epsilon)
    if q > m:
        return kalai_bound(p, q, q - d, d) + 1, p - q + 1
    k = m - q
    if p - (q + k) + 2 < 1:
        return None
    return kalai_bound(p, q, q + k - d - 1, d) + 1, p - (q + k) + 2


def thm3_oracle(p, q, d, k):
    """Theorem 3's threshold as one sum, without Theorem 1's."""
    m = m0(p, q, k)
    return (binom(p, q) - binom(p - d + 1, q - d + 1) + 1
            + binom(q - d - 2 + m, q - d) + binom(q - d - 1 + m, q - d + 1))


EPSILONS = (Fraction(1, 100), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2), Fraction(1), 2)


def standing_cases(top, rng=None, count=0):
    """Every (p, q, d) in the standing hypotheses with p <= top and d in
    1-3, or count random ones with p up to top."""
    if rng is None:
        return [(p, q, d) for d in (1, 2, 3) for p in range(d + 1, top + 1)
                for q in range(max(2, d + 1), p + 1)]
    cases = []
    for _ in range(count):
        d = rng.choice((1, 2, 3))
        p = rng.randint(d + 1, top)
        cases.append((p, rng.randint(max(2, d + 1), p), d))
    return cases


class TestFormulaOracles:
    """thm2 and thm3 read the remark and Theorem 1; their first sums stay
    here as oracles."""

    @pytest.mark.parametrize("cases", ["small", "random"])
    def test_thm2_is_its_first_sum(self, cases):
        rng = random.Random(14)
        grid = standing_cases(60) if cases == "small" else standing_cases(2500, rng, 60)
        for p, q, d in grid:
            for eps in EPSILONS:
                want = thm2_oracle(p, q, d, eps)
                if want is None:
                    with pytest.raises(ArityError, match=r"M=\d+"):
                        thm2_threshold(p, q, d, eps)
                    continue
                result = thm2_threshold(p, q, d, eps)
                assert (result.threshold_r, result.pierce_bound) == want
                assert result.caveats == (CAVEAT_P0_UNKNOWN,)

    @pytest.mark.parametrize("cases", ["small", "random"])
    def test_thm3_is_its_first_sum(self, cases):
        rng = random.Random(15)
        grid = standing_cases(60) if cases == "small" else standing_cases(2500, rng, 60)
        for p, q, d in grid:
            ends = {0, 1, (p - q) // 2, p - q - 2, p - q - 1} & set(range(p - q))
            for k in range(p - q) if p <= 30 else ends:
                result = thm3_threshold(p, q, d, k)
                assert result.threshold_r == thm3_oracle(p, q, d, k)
                assert result.pierce_bound == k + 2

    def test_thm2_outside_its_domain(self):
        # ceil(40^(1/2 + 1)) = 253 > p + 1: no piercing target is admissible
        with pytest.raises(ArityError, match="M=253, p=40"):
            thm2_threshold(40, 18, 2, Fraction(1))
        # M = ceil(40^1) = 40 <= p + 1 gives f = p - M + 2 = 2
        assert thm2_threshold(40, 18, 2, Fraction(1, 2)).pierce_bound == 2

    def test_thm2_errors_in_order(self):
        with pytest.raises(ArityError, match="need p >= q"):
            thm2_threshold(4, 2, 2, Fraction(-1))
        with pytest.raises(ArityError, match="epsilon must be positive"):
            thm2_threshold(40, 18, 2, Fraction(0))

    def test_thm3_k_range_message(self):
        with pytest.raises(ArityError, match=r"need 0 <= k <= p-q-1, got k=3, p=6, q=3"):
            thm3_threshold(6, 3, 2, 3)
        with pytest.raises(ArityError, match="need p >= q >= d"):
            thm3_threshold(6, 2, 2, 9)


class TestReductionIdentity:
    def test_thm3_reduces_to_ms_sweep(self):
        for p in range(3, 21):
            for q in range(2, p):
                for d in range(1, q):
                    if d == 1 and q < 2:
                        continue
                    if d > 1 and q < d + 1:
                        continue
                    assert (
                        thm3_threshold(p, q, d, p - q - 1).threshold_r
                        == ms_threshold(p, q, d).threshold_r
                    )
