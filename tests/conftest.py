import random

import pytest

from lubinlab import PSeries
from oracles import binom


def series_from_fractions(p, coeffs, M, N, shift=1):
    return PSeries.from_univariate_coeffs(p, coeffs, M, N, shift=shift)


def one_plus_x_pow(p, exponent, M, N):
    """(1+x)^exponent - 1 as an exact truncated series (exponent may be < 0)."""
    ncoeffs = M - 1 if exponent < 0 else min(abs(exponent), M - 1)
    return PSeries.from_univariate_coeffs(
        p, [binom(exponent, k) for k in range(1, ncoeffs + 1)], M, N
    )


def outcome(f):
    """A call's result, or the class and message of what it raised."""
    try:
        return f()
    except Exception as ex:
        return type(ex), str(ex)


def random_s0(rnd: random.Random, p, M, N, unit_linear=False, terms=None):
    """Random integral series without constant term."""
    coeffs = {}
    for i in range(1, M if terms is None else min(M, terms + 1)):
        c = rnd.randrange(0, p**min(N, 12))
        if c:
            coeffs[(i,)] = c
    lin = rnd.randrange(1, p**min(N, 12))
    if unit_linear and lin % p == 0:
        lin += 1
    coeffs[(1,)] = lin
    return PSeries(p, M, coeffs, N)


@pytest.fixture
def rnd():
    return random.Random(0xC0FFEE)
