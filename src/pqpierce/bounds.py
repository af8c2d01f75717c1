"""Closed-form piercing thresholds and the intersection-count bound.

Every function works in exact big-integer arithmetic with the convention
C(n, k) = 0 outside 0 <= k <= n (the sums below silently rely on
vanishing terms).  Thresholds are the exact binomial sums from the
underlying proofs, not their asymptotic forms, so each returned value is
certifiable at desk scale.  Fractional exponents are compared exactly:
m >= p^(a/b) is decided as m^b >= p^a over the integers.

Each formula and regime is written here once, for the solvers and the CLI:
thm2_threshold is the remark at one f, thm3_threshold adds two terms to
Theorem 1's, and only hd_exact_region tests the Hadwiger-Debrunner regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt, log2

from .errors import ArityError, BudgetExceededError, _number

#: Attached whenever a result relies on an asymptotic hypothesis whose
#: explicit constant is unknown.
CAVEAT_P0_UNKNOWN = "requires p >= p0(epsilon), p0 unknown"

#: Attached to results that presume no single point pierces all but p-q members.
CAVEAT_NON_DEGENERATE = "requires non-(p-q)-degenerate family"

#: Most bits of the power p^a that :func:`ceil_power` builds to decide
#: m >= p^(a/b); past it the call raises instead of running for minutes.
POWER_BIT_BUDGET = 1 << 20


@dataclass(frozen=True)
class BoundResult:
    """Smallest r certified by a threshold formula and the piercing number
    it guarantees, plus applicability caveats."""

    threshold_r: int
    pierce_bound: int
    caveats: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.threshold_r < 1 or self.pierce_bound < 1:
            raise ValueError("threshold_r and pierce_bound must be >= 1")


def binom(n: int, k: int) -> int:
    """C(n, k), zero when k < 0, n < 0 or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def check_standing(p: int, q: int, d: int) -> None:
    if d < 1:
        raise ArityError(f"d must be >= 1, got {d}")
    if d == 1:
        if not p >= q >= 2:
            raise ArityError(f"need p >= q >= 2 in dimension 1, got p={p}, q={q}")
    elif not p >= q >= d + 1:
        raise ArityError(f"need p >= q >= d+1, got p={p}, q={q}, d={d}")


def kalai_bound(p: int, q: int, s: int, d: int) -> int:
    """Upper bound on the number of intersecting q-tuples among p convex
    bodies in dimension d, valid whenever no (d+s+1)-tuple intersects:
    sum_{i=0}^{d} C(s, q-i) * C(p-s, i)."""
    if p < 1 or q < 1 or s < 0 or d < 1:
        raise ArityError(f"invalid kalai_bound arguments p={p}, q={q}, s={s}, d={d}")
    return sum(binom(s, q - i) * binom(p - s, i) for i in range(d + 1))


def ms_threshold(p: int, q: int, d: int) -> BoundResult:
    """Threshold above which p-q+1 points always suffice:
    r > C(p,q) - C(p+1-d, q+1-d)."""
    check_standing(p, q, d)
    return BoundResult(
        threshold_r=binom(p, q) - binom(p + 1 - d, q + 1 - d) + 1,
        pierce_bound=p - q + 1,
    )


def lemma_r0_threshold(p: int, q: int, d: int, f: int) -> BoundResult:
    """Threshold certifying piercing by f points for 1 <= f <= p/d - 1:
    r >= kalai_bound(p, q, p-f-d, d) + 1."""
    check_standing(p, q, d)
    if f < 1 or d * (f + 1) > p:
        raise ArityError(f"need 1 <= f <= p/d - 1, got f={f}, p={p}, d={d}")
    return BoundResult(
        threshold_r=kalai_bound(p, q, p - f - d, d) + 1,
        pierce_bound=f,
    )


def _floor_root(x: int, k: int) -> int:
    """floor(x^(1/k)) by integer Newton iteration from a float estimate,
    or by :func:`math.isqrt` for k = 2, which skips the long divisions.

    One step from any positive r lands at or above the answer (by AM-GM,
    the step's mean is at least x^(1/k)), and from there each step falls
    until the answer; the estimate only makes the steps few."""
    if x < 2 or k == 1:
        return x
    if k == 2:
        return isqrt(x)
    if k >= x.bit_length():  # then 1 <= x^(1/k) < 2
        return 1
    bits = log2(x) / k  # log2 of the answer
    scale = max(int(bits) - 52, 0)
    r = (int(2 ** (bits - scale)) + 1) << scale
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def ceil_power(p: int, exponent: Fraction) -> int:
    """Smallest integer m with m >= p^exponent, decided exactly over the
    integers (m >= p^(a/b) iff m^b >= p^a).  Raises BudgetExceededError
    when p^a has more than :data:`POWER_BIT_BUDGET` bits."""
    if p < 1 or exponent < 0:
        raise ArityError(f"need p >= 1 and exponent >= 0, got p={_number(p)}, e={_number(exponent)}")
    num, den = exponent.numerator, exponent.denominator
    # p^a has over num * (p.bit_length() - 1) bits, so it is built only
    # when it has at most twice the budget's bits
    if num * (p.bit_length() - 1) >= POWER_BIT_BUDGET or (
            target := p**num).bit_length() > POWER_BIT_BUDGET:
        raise BudgetExceededError(f"ceil_power needs p^a with p of {p.bit_length()} bits and a of "
                                  f"{num.bit_length()} bits, past the budget of {POWER_BIT_BUDGET} bits")
    root = _floor_root(target, den)
    return root if root**den == target else root + 1


def _regime_m(p: int, d: int, epsilon) -> int:
    """M = ceil(p^((d-1)/d + epsilon)), the edge of Theorem 2's regime."""
    if (epsilon := Fraction(epsilon)) <= 0:
        raise ArityError(f"epsilon must be positive, got {_number(epsilon)}")
    return ceil_power(p, Fraction(d - 1, d) + epsilon)


def remark_threshold(p: int, q: int, d: int, f: int,
                     epsilon: Fraction | None = None) -> BoundResult:
    """Kalai-count threshold certifying piercing by f points:
    r > kalai_bound(p, q, p-f+1-d, d) = sum_i C(p-f+1-d, q-i) * C(f-1+d, i).

    When epsilon is given, the admissible range f <= p - M + 2 with
    M = ceil(p^((d-1)/d + epsilon)) is enforced; without it only f >= 1 is
    checked.  Either way the result carries the unknown-constant caveat.
    """
    check_standing(p, q, d)
    if f < 1:
        raise ArityError(f"need f >= 1, got f={f}")
    if epsilon is not None:
        m = _regime_m(p, d, epsilon)
        if f > p - m + 2:
            raise ArityError(f"need f <= p - ceil(p^((d-1)/d+eps)) + 2 = {p - m + 2}, got {f}")
    return BoundResult(
        threshold_r=kalai_bound(p, q, p - f + 1 - d, d) + 1,
        pierce_bound=f,
        caveats=(CAVEAT_P0_UNKNOWN,),
    )


def thm2_threshold(p: int, q: int, d: int, epsilon: Fraction) -> BoundResult:
    """Exact threshold behind the large-q asymptotic bound: the remark's
    threshold at f = p-q+1 when q > M and at f = p-M+2 otherwise, where
    M = ceil(p^((d-1)/d + epsilon)).  No f is admissible when M > p+1.
    Valid only for p beyond an unknown p0(epsilon), recorded as a caveat.
    """
    check_standing(p, q, d)
    if (m := _regime_m(p, d, epsilon)) > p + 1:
        raise ArityError(f"need M = ceil(p^((d-1)/d+eps)) <= p+1, got M={m}, p={p}")
    return remark_threshold(p, q, d, p - q + 1 if q > m else p - m + 2)


def m0(p: int, q: int, k: int) -> int:
    """Smallest m with C(m+1, 2) >= (p-q-k-1)(p-q+k+2)/2 + 1.

    Closed form: m = (isqrt(8*target + 1) - 1) // 2 is the largest m with
    C(m+1, 2) = m(m+1)/2 <= target, so the answer is m, or m + 1 when
    C(m+1, 2) falls short of the target.
    """
    if not p >= q:
        raise ArityError(f"need p >= q, got p={p}, q={q}")
    if not 0 <= k <= p - q - 1:
        raise ArityError(f"need 0 <= k <= p-q-1, got k={k}, p={p}, q={q}")
    product = (p - q - k - 1) * (p - q + k + 2)
    assert product % 2 == 0  # the factors always differ by an odd number
    target = product // 2 + 1
    m = (isqrt(8 * target + 1) - 1) // 2
    return m if binom(m + 1, 2) >= target else m + 1


def thm3_threshold(p: int, q: int, d: int, k: int) -> BoundResult:
    """Threshold certifying piercing by k+2 points for non-(p-q)-degenerate
    families: :func:`ms_threshold`'s threshold plus
    C(q-d-2+m, q-d) + C(q-d-1+m, q-d+1) with m = m0(p, q, k).  Both terms
    vanish at k = p-q-1, where m = 1 and it coincides with Theorem 1."""
    base = ms_threshold(p, q, d).threshold_r
    m = m0(p, q, k)  # rejects k outside 0 <= k <= p-q-1
    return BoundResult(
        threshold_r=base + binom(q - d - 2 + m, q - d) + binom(q - d - 1 + m, q - d + 1),
        pierce_bound=k + 2,
        caveats=(CAVEAT_NON_DEGENERATE,),
    )


def dim1_threshold(p: int, q: int, k: int) -> BoundResult:
    """Tight 1D threshold: r >= C(p-k-2, q) + (k+2) C(p-k-2, q-1) + 1
    certifies piercing by k+1 points, and a family one r below exists that
    needs k+2."""
    if not p >= q >= 2:
        raise ArityError(f"need p >= q >= 2, got p={p}, q={q}")
    if not 0 <= k <= p - q:
        raise ArityError(f"need 0 <= k <= p-q, got k={k}, p={p}, q={q}")
    return BoundResult(
        threshold_r=binom(p - k - 2, q) + (k + 2) * binom(p - k - 2, q - 1) + 1,
        pierce_bound=k + 1,
    )


def hd_exact_region(p: int, q: int, d: int):
    """p-q+1 when d*q > (d-1)*p + d, the regime where the plain (p,q)
    property already pins the worst-case piercing number; else None."""
    check_standing(p, q, d)
    if d * q > (d - 1) * p + d:
        return p - q + 1
    return None


def implied_q(p: int, q: int, r: int, d: int) -> int:
    """Largest q' in [q, p] such that every family with the (p,q)_r
    property must satisfy the (p,q') property; q itself when r certifies
    no enlargement.

    A p-subset with no intersecting q'-tuple has f_{q'-1} = 0, so its
    q-tuple count is capped by kalai_bound(p, q, q'-1-d, d); r above that
    cap forces an intersecting q'-tuple.

    kalai_bound(p, q, s, d) counts the q-subsets of a p-set that meet a
    fixed (p-s)-set in at most d elements.  Growing s shrinks that set, so
    the count never decreases in s = q'-1-d, and the q' in (q, p] whose
    cap r exceeds form a prefix.  Bisection finds its last element with
    at most (p-q).bit_length() evaluations of the bound.
    """
    check_standing(p, q, d)
    if r < 1:
        raise ArityError(f"r must be >= 1, got {r}")
    lo, hi = q, p  # lo is q or certified; every q' above hi is not
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if r > kalai_bound(p, q, mid - 1 - d, d):
            lo = mid
        else:
            hi = mid - 1
    return lo
