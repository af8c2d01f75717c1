"""Exact piercing numbers and intersection-pattern thresholds for
families of convex sets in dimensions 1 and 2."""

from .bounds import (
    BoundResult,
    binom,
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
from .errors import (
    ArityError,
    BudgetExceededError,
    DimensionMismatchError,
    ParseError,
    PQPierceError,
    PremiseViolationError,
)
from .family import (
    Family,
    PQRReport,
    count_intersecting_qtuples,
    degeneracy_level,
    f_vector,
    is_t_degenerate,
    max_r,
    satisfies_pqr,
    satisfies_pqr_through_line,
)
from .generators import (
    GeneratorSpec,
    disjoint_plus_container,
    extremal_dim1,
    random_family,
    sample_until,
)
from .geometry import (
    ConvexBody,
    ConvexPolygon,
    Interval,
    Line,
    Point,
    Rational,
    body_contains_point,
    convex_hull,
    intersect_bodies,
    lexmax_body,
    line_meets_body,
    pt,
    separating_line,
)
from .piercing import (
    LineLemmaWitness,
    PiercingSet,
    candidate_points,
    hd_pierce,
    line_pierce,
    min_piercing,
    ms_line,
)

__version__ = "0.1.0"
