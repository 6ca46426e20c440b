"""Field invariants checked against sympy, which shares no code with the package.

- The norm that CycloRing.inv yields (w * inv(w) = N_{K/Q}(w)) against the
  resultant: N_{K/Q}(x)^[Q(zeta_n):K] = Res_t(Phi_n(t), x(t)).
- The ramification index e, the residue degree f and the number of primes
  above ell of each descriptor against sympy's prime_decomp, on a defining
  polynomial of K found by resultants.
- Certified valuations, and the integrality test, against sympy's
  prime_valuation in Q(zeta_n) where a single prime lies above ell.
- Valuations where ell splits in Q(zeta_n), against the norm: the
  valuations at the chosen prime P of the conjugates sigma_t(w) add up to
  e_full v_ell(Res_t(Phi_n(t), w(t))); and P is the prime of the chosen
  factor g of Phi_m mod ell, g(zeta_m) lying in P and every other factor
  of sympy's factor_list, evaluated at zeta_m, outside it.
- The factors of Phi_m mod ell from cyclotomic_factors_mod against sympy's
  factor_list over GF(ell).

Runs only where sympy is installed; the package itself does not depend on it.
"""

import functools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.numberfields.exceptions import ClosureFailure  # noqa: E402
from sympy.polys.numberfields.modules import to_col  # noqa: E402
from sympy.polys.numberfields.primes import prime_decomp, prime_valuation  # noqa: E402

from isodescent.exactfield import make_descriptor  # noqa: E402
from isodescent.finitefield import cyclotomic_factors_mod  # noqa: E402

from conftest import power_numerator, random_field_element  # noqa: E402

T, X = sympy.symbols("t X")


@functools.lru_cache(maxsize=None)
def cyclotomic(n):
    return sympy.cyclotomic_poly(n, T)


def as_polynomial(x):
    """The element x as a polynomial in t = zeta_n, rational coefficients."""
    return sum(sympy.Rational(c.numerator, c.denominator) * T ** i
               for i, c in enumerate(x.coeffs))


# ---------------------------------------------------------------------------
# the norm against the resultant

NORM_FIELDS = [
    (1, 5, (1,)), (4, 5, (1,)), (5, 5, (1, 4)), (7, 7, (1, 2, 4)), (9, 3, (1,)),
    (12, 5, (1, 11)), (20, 5, (1, 19)), (28, 7, (1, 13)),
]


@pytest.mark.parametrize("n, ell, sub", NORM_FIELDS)
def test_norm_from_inv_is_the_resultant(n, ell, sub):
    desc = make_descriptor(n, ell, subgroup=sub)
    ring = desc.ring
    rng = random.Random(f"norm-{n}-{ell}-{sub}")
    for _ in range(12):
        x = random_field_element(rng, desc)
        if x.is_zero:
            continue
        w = power_numerator(x)
        prod = ring.mul(w, ring.inv(w, desc.conjugates))
        assert not any(prod[1:])
        norm = Fraction(prod[0], x.den ** desc.degree)
        res = sympy.resultant(cyclotomic(n), as_polynomial(x), T)
        assert sympy.Rational(norm.numerator, norm.denominator) ** len(desc.subgroup) == res


# ---------------------------------------------------------------------------
# e, f and the prime count against prime_decomp

# (n, ell, subgroup): split, inert and ramified primes, tame and wild
# ramification, with and without a subgroup
DECOMP_GRID = [
    (1, 3, (1,)), (3, 7, (1,)), (4, 3, (1,)), (4, 5, (1,)), (5, 5, (1, 4)),
    (5, 11, (1, 4)), (7, 3, (1, 6)), (7, 7, (1, 2, 4)), (7, 13, (1,)),
    (8, 3, (1, 7)), (9, 3, (1,)), (9, 5, (1, 8)), (12, 5, (1, 11)),
    (12, 7, (1,)), (13, 3, (1, 3, 9)), (15, 5, (1,)), (15, 7, (1, 4)),
    (16, 3, (1, 15)), (20, 5, (1, 19)), (21, 3, (1, 8)), (21, 13, (1, 20)),
    (24, 5, (1, 5)), (28, 7, (1, 13)), (28, 11, (1,)),
    # ell^2 | n with H the units that are 1 mod ell: wild ramification
    # inside a nontrivial subgroup, e_rel = |H & I| > 1
    (25, 5, (1, 6, 11, 16, 21)), (27, 3, (1, 4, 7, 10, 13, 16, 19, 22, 25)),
    (49, 7, (1, 8, 15, 22, 29, 36, 43)), (50, 5, (1, 11, 21, 31, 41)),
]


def primitive_elements(desc):
    """Elements of K that may generate it: zeta_n itself when H is trivial,
    then orbit sums and small combinations of two of them."""
    if len(desc.subgroup) == 1:
        yield desc.zeta_power(1)
    for j in range(1, desc.n):
        yield desc.orbit_sum(j)
    for j in range(1, desc.n):
        for k in range(1, desc.n):
            yield desc.orbit_sum(j) + 2 * desc.orbit_sum(k)


def decompose(desc):
    """prime_decomp of ell on the minimal polynomial of a generator of K,
    found as the squarefree part of Res_t(Phi_n(t), X - theta(t))."""
    if desc.degree == 1:
        return prime_decomp(desc.ell, T=sympy.Poly(X, X))
    for theta in primitive_elements(desc):
        res = sympy.resultant(cyclotomic(desc.n), X - as_polynomial(theta), T)
        _, factors = sympy.factor_list(res, X)
        poly = sympy.Poly(factors[0][0], X)
        if len(factors) != 1 or poly.degree() != desc.degree:
            continue
        try:
            return prime_decomp(desc.ell, T=poly)
        except ClosureFailure:
            # sympy 1.14 fails on some defining polynomials, e.g. the
            # Gaussian period of Q(zeta_13)^(1,3,9) at 3; try the next one
            continue
    raise AssertionError("no generator of K that sympy can decompose")


@pytest.mark.parametrize("n, ell, sub", DECOMP_GRID)
def test_e_f_and_prime_count_match_prime_decomp(n, ell, sub):
    desc = make_descriptor(n, ell, subgroup=sub)
    primes = decompose(desc)
    assert len(primes) == desc.n_primes
    assert {(p.e, p.f) for p in primes} == {(desc.e, desc.f)}
    assert desc.e * desc.f * desc.n_primes == desc.degree


# ---------------------------------------------------------------------------
# certified valuations against prime_valuation

# (n, ell, subgroup) with a single prime P above ell in Q(zeta_n), so the
# prime of K below P is the descriptor's: inert (7, 3), (5, 3), (4, 7) and
# totally ramified (7, 7), (9, 3), (5, 5), each without and with a subgroup
VALUATION_FIELDS = [
    (7, 3, (1,)), (7, 3, (1, 6)), (7, 7, (1,)), (7, 7, (1, 2, 4)),
    (9, 3, (1,)), (9, 3, (1, 8)), (5, 5, (1,)), (5, 5, (1, 4)),
    (5, 3, (1,)), (5, 3, (1, 4)), (4, 7, (1,)), (4, 7, (1, 3)),
]


@functools.lru_cache(maxsize=None)
def cyclotomic_prime(n, ell):
    (prime,) = prime_decomp(ell, T=sympy.Poly(cyclotomic(n), T))
    return prime


def sympy_valuation(x, prime):
    """v_P(x) in Q(zeta_n) for x = num / den: the valuation of the principal
    ideal of num, an integer of Q(zeta_n), less e(P | ell) v_ell(den)."""
    zk = prime.ZK
    v = prime_valuation(zk * zk.parent(to_col(list(power_numerator(x)))), prime)
    den, ell = x.den, x.field.ell
    while den % ell == 0:
        den //= ell
        v -= prime.e
    return v


@pytest.mark.parametrize("n, ell, sub", VALUATION_FIELDS)
def test_valuation_is_prime_valuation(n, ell, sub):
    desc = make_descriptor(n, ell, subgroup=sub)
    prime = cyclotomic_prime(n, ell)
    assert prime.e == desc.e * desc.e_rel
    rng = random.Random(f"valuation-{n}-{ell}-{sub}")
    xs = [random_field_element(rng, desc) for _ in range(10)]
    # pi^k / ell^t on either side of integrality, k = e t - 1 and k = e t
    xs += [desc.pi_power(k) / desc.rational(ell ** t)
           for t in (1, 2, 3) for k in (desc.e * t - 1, desc.e * t)]
    for x in xs:
        if x.is_zero:
            continue
        v_p = sympy_valuation(x, prime)
        assert v_p % desc.e_rel == 0
        # the integer test first, on a copy without a memoized valuation
        assert desc.from_integer(x.num, x.den).is_integral() == (v_p >= 0)
        assert x.valuation() == v_p // desc.e_rel


# ---------------------------------------------------------------------------
# valuations at a split prime against the norm

# (n, ell) where ell splits in Q(zeta_n) into two or more primes: unramified
# with residue degree 1, 2, 3, 4 and 6, and ramified at (20, 5) and (21, 7)
SPLIT_FIELDS = [(5, 11), (8, 17), (12, 13), (20, 5), (21, 7), (15, 7), (24, 7),
                (28, 3), (36, 5), (13, 3)]


@pytest.mark.parametrize("n, ell", SPLIT_FIELDS)
def test_split_prime_valuation_matches_the_norm(n, ell):
    first = make_descriptor(n, ell)
    assert first.n_primes > 1
    ring, m = first.ring, first.m
    units = [t for t in range(1, n) if sympy.gcd(t, n) == 1]
    _, factors = sympy.Poly(sympy.cyclotomic_poly(m, X), X, modulus=ell).factor_list()
    factors = [tuple(int(c) % ell for c in reversed(f.all_coeffs())) for f, _ in factors]

    def at_zeta_m(poly):
        acc = ring.zero
        for i, c in enumerate(poly):
            acc = ring.add(acc, tuple(c * z for z in ring.zeta_power(i * (n // m))))
        return acc

    for choice in range(first.n_primes):
        desc = make_descriptor(n, ell, prime_choice=choice)
        eng = desc.engine
        assert desc.factor in factors
        for poly in factors:
            assert (eng.valuation(at_zeta_m(poly)) > 0) == (poly == desc.factor)
        g = at_zeta_m(desc.factor)
        rng = random.Random(f"split-{n}-{ell}-{choice}")
        for _ in range(6):
            w = tuple(rng.randint(-5, 5) for _ in range(ring.degree))
            if not any(w):
                continue
            for _ in range(rng.randrange(3)):
                w = ring.mul(w, g)
            w = tuple(c * ell ** rng.randrange(2) for c in w)
            res = sympy.resultant(cyclotomic(n), sum(c * T ** i for i, c in enumerate(w)), T)
            total = sum(eng.valuation(ring.galois(w, t)) for t in units)
            assert total == desc.e_full * sympy.multiplicity(ell, abs(res))


# ---------------------------------------------------------------------------
# cyclotomic factorization against factor_list over GF(ell)

FACTOR_GRID = [(ell, m) for ell in (3, 5, 7) for m in range(1, 41) if m % ell]


@pytest.mark.parametrize("ell, m", FACTOR_GRID)
def test_cyclotomic_factors_match_factor_list(ell, m):
    _, factors = sympy.Poly(sympy.cyclotomic_poly(m, X), X, modulus=ell).factor_list()
    # Phi_m is squarefree mod ell for m prime to ell; sympy prints GF(ell)
    # coefficients symmetrically, so they are taken mod ell, low degree first
    assert all(mult == 1 for _, mult in factors)
    expect = sorted(tuple(int(c) % ell for c in reversed(f.all_coeffs()))
                    for f, _ in factors)
    assert [poly for poly, _ in cyclotomic_factors_mod(ell, m)] == expect
