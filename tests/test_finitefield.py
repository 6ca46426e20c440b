"""The int-matrix F_p routines checked against the generic linear algebra.

`fp_kernel`, `fp_solve` and `fp_det` work on plain int lists; `linalg` works
on ResidueElement objects over F_p = ResidueField(p, y).  The two share no
code, so agreement on random matrices is an independent check of each.
"""

import math
import random

import pytest

from isodescent import linalg as la
from isodescent.cyclotomic import euler_phi, least_factor, prime_factors
from isodescent.errors import SingularMatrix
from isodescent.finitefield import (
    ResidueField,
    cyclotomic_factors_mod,
    find_irreducible,
    fp_det,
    fp_gcd,
    fp_is_irreducible,
    fp_kernel,
    fp_mat_mul,
    fp_mat_pow,
    fp_mod,
    fp_mul,
    fp_powmod,
    fp_solve,
    fp_sub,
    fp_trim,
    multiplicative_order_mod,
)

PRIMES = (3, 5, 7)
TRIALS = 40


def prime_field(p):
    return ResidueField(p, (0, 1))


def lift(m, F):
    return [[F.element(v) for v in row] for row in m]


def ints(m):
    return [[x.coeffs[0] for x in row] for row in m]


def random_matrix(rng, p, r, c):
    # entries outside [0, p) so the routines' own reduction is exercised
    return [[rng.randrange(-2 * p, 2 * p) for _ in range(c)] for _ in range(r)]


def rank(m, F):
    return len(m[0]) - len(la.kernel_basis(m, F))


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_matches_generic(p):
    rng = random.Random(f"kernel-{p}")
    F = prime_field(p)
    for _ in range(TRIALS):
        m = random_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 5))
        # the kernel basis read off the reduced row echelon form is unique
        assert fp_kernel(m, p) == ints(la.kernel_basis(lift(m, F), F))


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_generic(p):
    rng = random.Random(f"solve-{p}")
    F = prime_field(p)
    for _ in range(TRIALS):
        n = rng.randint(1, 4)
        a = random_matrix(rng, p, n, n)
        b = [rng.randrange(p) for _ in range(n)]
        x = fp_solve(a, b, p)
        try:
            expect = la.solve(lift(a, F), lift([[v] for v in b], F), F)
        except SingularMatrix:
            # a singular system is consistent iff b adds nothing to the rank
            aug = [row + [v] for row, v in zip(a, b)]
            if rank(lift(aug, F), F) > rank(lift(a, F), F):
                assert x is None
            else:
                assert fp_mat_mul(a, [[v] for v in x], p) == [[v] for v in b]
            continue
        assert x == [row[0] for row in ints(expect)]


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_generic(p):
    rng = random.Random(f"det-{p}")
    F = prime_field(p)
    for _ in range(TRIALS):
        n = rng.randint(1, 4)
        m = random_matrix(rng, p, n, n)
        assert fp_det(m, p) == la.det(lift(m, F), F).coeffs[0]


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_power_matches_generic(p):
    rng = random.Random(f"pow-{p}")
    F = prime_field(p)
    for _ in range(TRIALS // 4):
        m = random_matrix(rng, p, 3, 3)
        e = rng.randint(0, 9)
        expect = la.identity(F, 3)
        for _ in range(e):
            expect = la.mat_mul(expect, lift(m, F))
        assert fp_mat_pow(m, e, p) == ints(expect)


@pytest.mark.parametrize("p, degree", [(5, 2), (7, 3)])
def test_every_nonzero_element_has_an_inverse(p, degree):
    F = ResidueField(p, find_irreducible(p, degree))
    count = 0
    for x in F.elements():
        if x.is_zero():
            continue
        assert x * x.inverse() == F.one
        count += 1
    assert count == F.order - 1


@pytest.mark.parametrize("p, degree, pairs", [
    (3, 2, None), (5, 2, None), (7, 2, None), (3, 6, 500), (5, 4, 500),
])
def test_product_matches_polynomial_division(p, degree, pairs):
    # ResidueElement products fold through CycloRing.mul; the reference
    # divides the plain product by the modulus
    F = ResidueField(p, find_irreducible(p, degree))
    if pairs is None:
        todo = [(x, y) for x in F.elements() for y in F.elements()]
    else:
        rng = random.Random(f"product-{p}-{degree}")
        todo = [tuple(F.element([rng.randrange(p) for _ in range(degree)])
                      for _ in range(2)) for _ in range(pairs)]
    for x, y in todo:
        expect = fp_mod(fp_mul(fp_trim(x.coeffs), fp_trim(y.coeffs), p), F.modulus, p)
        assert fp_trim((x * y).coeffs) == expect
        assert len((x * y).coeffs) == degree


def rabin_is_irreducible(h, p):
    """Rabin's test, the former fp_is_irreducible: x^(p^d) = x mod h, and
    gcd(h, x^(p^(d/r)) - x) = 1 for every prime r dividing d."""
    d = len(h) - 1
    if d < 1:
        return False
    x = (0, 1)
    if fp_powmod(x, p ** d, h, p) != fp_mod(x, h, p):
        return False
    for r in prime_factors(d):
        g = fp_sub(fp_powmod(x, p ** (d // r), h, p), x, p)
        if len(fp_gcd(g, h, p)) != 1:
            return False
    return True


def monic_polynomials(p, d):
    for idx in range(p ** d):
        coeffs = []
        for _ in range(d):
            coeffs.append(idx % p)
            idx //= p
        yield tuple(coeffs) + (1,)


@pytest.mark.parametrize("p, max_degree", [(3, 6), (5, 4), (7, 3)])
def test_irreducibility_matches_rabin_exhaustively(p, max_degree):
    for d in range(1, max_degree + 1):
        count = 0
        for h in monic_polynomials(p, d):
            got = fp_is_irreducible(h, p)
            assert got == rabin_is_irreducible(h, p), h
            count += got
        # Gauss: the number of monic irreducibles of degree d over F_p
        assert d * count == sum(_mobius(d // k) * p ** k for k in range(1, d + 1) if d % k == 0)


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, d", [(3, 7), (3, 8), (5, 6), (7, 5), (11, 4), (31, 3)])
def test_find_irreducible_is_the_first_in_lexicographic_order(p, d):
    h = find_irreducible(p, d)
    first = next(g for g in monic_polynomials(p, d) if rabin_is_irreducible(g, p))
    assert h == first


def reference_cyclotomic_factors_mod(ell, m):
    """The factorization as first written: every power of the primitive root
    by ResidueElement.__pow__, the root search over ResidueElements."""
    if m == 1:
        return [(((ell - 1) % ell, 1), frozenset({0}))]
    d = multiplicative_order_mod(ell, m)
    Fq = ResidueField(ell, find_irreducible(ell, d))
    cofactor = (Fq.order - 1) // m
    xi = None
    for c in Fq.elements():
        if c.is_zero():
            continue
        eta = c ** cofactor
        if all(eta ** (m // q) != Fq.one for q in prime_factors(m)):
            xi = eta
            break
    units = [j for j in range(1, m) if math.gcd(j, m) == 1]
    seen, factors = set(), []
    for j in units:
        if j in seen:
            continue
        orbit = []
        cur = j
        while cur not in orbit:
            orbit.append(cur)
            cur = (cur * ell) % m
        seen.update(orbit)
        poly = [Fq.one]
        for i in orbit:
            root = xi ** i
            nxt = [Fq.zero] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - c * root
            poly = nxt
        factors.append((tuple(c.coeffs[0] for c in poly), frozenset(orbit)))
    factors.sort(key=lambda fo: fo[0])
    return factors


# split, inert and mixed cases, m a prime power, squarefree and neither, and
# the slowest pair under the descriptor caps (f = 15)
@pytest.mark.parametrize("ell, m", [
    (3, 1), (5, 4), (7, 4), (3, 5), (11, 5), (3, 7), (13, 7), (3, 8), (5, 9),
    (7, 12), (3, 20), (5, 21), (3, 28), (11, 31), (5, 63), (971, 31),
])
def test_cyclotomic_factors_match_the_reference(ell, m):
    assert list(cyclotomic_factors_mod(ell, m)) == reference_cyclotomic_factors_mod(ell, m)


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_of_a_constant_matches_the_field_power(p):
    # fp_powmod takes constants by an integer power; ResidueElement.__pow__
    # multiplies in the field
    F = ResidueField(p, find_irreducible(p, 3))
    for c in range(p):
        for e in (0, 1, 2, p, 10 ** 6 + 3):
            assert fp_powmod((c,) if c else (), e, F.modulus, p) == \
                fp_trim((F.element(c) ** e).coeffs)


def test_trial_division_matches_brute_force():
    # least_factor is the one trial-division loop; prime_factors and
    # euler_phi are built on it
    is_prime = [False, False] + [all(d % k for k in range(2, d)) for d in range(2, 2001)]
    for n in range(1, 2001):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        if n >= 2:
            assert least_factor(n) == divisors[0], n
        assert prime_factors(n) == [d for d in divisors if is_prime[d]], n
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1), n
