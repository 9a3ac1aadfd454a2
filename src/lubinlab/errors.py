"""Exception taxonomy shared by all lubinlab modules.

Two families matter to callers: *mathematical* failures (the input provably
violates a hypothesis) and *precision* failures (the working precision or
truncation order cannot resolve the question).  ``analyzer.REJECTIONS`` maps
the first to REJECTED, and ``analyzer.PRECISION_FAILURES`` the second to
INCONCLUSIVE.
"""


class LubinlabError(Exception):
    """Base class for all errors raised by this package."""


class PrimeMismatch(LubinlabError):
    """Operands live over different primes."""


class DomainError(LubinlabError):
    """Argument outside the convergence domain of log/exp/pow."""


class DivisionByZeroToPrecision(LubinlabError):
    """Division by a scalar that is indistinguishable from zero."""


class PrecisionExhausted(LubinlabError):
    """A result would carry no significant p-adic digits."""


class ConstantTermError(LubinlabError):
    """A substituted series has (or may have) a nonzero constant term."""


class NotInvertible(LubinlabError):
    """Series reversion requires an invertible linear coefficient."""


class TruncationInconclusive(LubinlabError):
    """The answer depends on coefficients beyond the truncation order."""


class TorsionDetected(LubinlabError):
    """u'(0) is a root of unity to working precision.

    ``identity_to_precision`` is True when the corresponding finite iterate
    of u is itself the identity to working precision, i.e. u looks torsion
    as a power series and not merely on its derivative.
    """

    def __init__(self, message: str, identity_to_precision: bool = False):
        super().__init__(message)
        self.identity_to_precision = identity_to_precision


class IntegralityFailure(LubinlabError):
    """A coefficient that must lie in Z_p certifies negative valuation.

    ``certified`` is True when the negative valuation is exact (mathematical
    failure), False when it is merely unresolved at the working precision.
    """

    def __init__(self, message: str, exponents=None, certified: bool = True):
        super().__init__(message)
        self.exponents = exponents
        self.certified = certified


class NonUniqueLift(LubinlabError):
    """The degree-by-degree group-law lift has no integral solution."""


class NoCandidate(LubinlabError):
    """No scalar of valuation one has a bracket congruent to x^p mod p."""


class AmbiguousAtPrecision(LubinlabError):
    """Several scalar digits pass the Frobenius congruence; raise M."""
