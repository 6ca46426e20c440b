"""The int-matrix F_p routines checked against the generic linear algebra.

`fp_kernel`, `fp_solve` and `fp_det` work on plain int lists; `linalg` works
on ResidueElement objects over F_p = ResidueField(p, y).  The two share no
code, so agreement on random matrices is an independent check of each.
"""

import random

import pytest

from isodescent import linalg as la
from isodescent.errors import SingularMatrix
from isodescent.finitefield import (
    ResidueField,
    find_irreducible,
    fp_det,
    fp_kernel,
    fp_mat_mul,
    fp_mat_pow,
    fp_solve,
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
