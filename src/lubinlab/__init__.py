"""p-adic dynamics over Z_p: Newton polygons, power-series logarithms,
Lubin-Tate formal groups, and certification of commuting pairs."""

from .errors import (
    AmbiguousAtPrecision,
    ConstantTermError,
    DivisionByZeroToPrecision,
    DomainError,
    IntegralityFailure,
    LubinlabError,
    NoCandidate,
    NonUniqueLift,
    NotInvertible,
    PrecisionExhausted,
    PrimeMismatch,
    TorsionDetected,
    TruncationInconclusive,
)
from .padic import INF, PadicNum, is_root_of_unity, padic_exp, padic_log, padic_pow
from .series import PSeries
from .polygon import (
    NewtonPolygon,
    count_roots_open_disk,
    is_eisenstein,
    iterate,
    newton_polygon,
    verify_iterate_shape,
    weierstrass_factor,
    weierstrass_preparation,
)
from .dynamics import (
    Logarithm,
    check_commute,
    dlog_integrality,
    logarithm_limit,
    logarithm_recurrence,
    normalize_u,
    ramification_index,
    zp_iterate,
)
from .formalgroup import (
    FormalGroupLaw,
    bracket,
    exp_from_log,
    frobenius_multiplier,
    group_from_log,
    lubin_tate_lift,
)
from .analyzer import (
    AnalysisReport,
    CERTIFIED,
    Config,
    INCONCLUSIVE,
    REJECTED,
    analyze,
    analyze_fixture,
    batch_run,
    gm_pair,
    lt_pair,
    load_fixtures,
    make_twist_fixture,
    summary_table,
)

__version__ = "0.1.0"
