"""Exact arithmetic in Z[zeta_n] on the power basis 1, zeta, ..., zeta^(phi(n)-1).

This is the coefficient-level substrate: vectors are plain tuples of ints,
with no subfield constraint attached.  Sums, products, matrix products and
Galois maps stay in Z[zeta_n]; division is left to the caller, which keeps
one common denominator per element (see exactfield).  inv returns the
product y of the nontrivial conjugates of w over a subfield, so that w * y
is the norm of w, an integer.  Ambient-field elements proper (vectors over
a denominator, fixed by the chosen Galois subgroup, with a designated prime
above ell) are built on top of this in exactfield.

All functions are pure; CycloRing instances only hold precomputed tables.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache


def euler_phi(n: int) -> int:
    result, k, m = 1, 2, n
    while k * k <= m:
        if m % k == 0:
            pk = 1
            while m % k == 0:
                m //= k
                pk *= k
            result *= pk - pk // k
        k += 1
    if m > 1:
        result *= m - 1
    return result


def _split_ell(d: int, ell: int):
    """(t, d') with d = ell^t d' and d' prime to ell."""
    t = 0
    while d % ell == 0:
        d //= ell
        t += 1
    return t, d


def divisors(n: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic up to sign of its leading coefficient; division must be exact.
    num = list(num)
    dlead = den[-1]
    assert dlead in (1, -1)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // dlead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1]), "inexact polynomial division"
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    p = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            p = _int_poly_div_exact(p, list(cyclotomic_poly(d)))
    return tuple(p)


class CycloRing:
    """Tables and integer coordinate arithmetic for Z[zeta_n]."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.modulus = cyclotomic_poly(n)
        self.zeta_pow = self._power_table()
        self.zero = (0,) * self.phi
        self.one = self.zeta_pow[0]
        # zeta^j as its nonzero (index, coordinate) pairs; _fold keeps those
        # for phi <= j <= 2 phi - 2, where a product of two coordinate
        # vectors folds back modulo Phi_n
        self._sparse = [[(i, z) for i, z in enumerate(v) if z] for v in self.zeta_pow]
        self._fold = [self._sparse[k % n] for k in range(self.phi, 2 * self.phi - 1)]

    def _power_table(self) -> list[tuple[int, ...]]:
        # zeta^j on the power basis for 0 <= j < n, integer coordinates.
        phi, mod = self.phi, self.modulus
        table = []
        cur = [0] * phi
        cur[0] = 1
        for _ in range(self.n):
            table.append(tuple(cur))
            nxt = [0] + cur[: phi - 1]
            lead = cur[phi - 1]
            if lead:
                for i in range(phi):
                    nxt[i] -= lead * mod[i]
            cur = nxt
        return table

    def zeta_power(self, j: int) -> tuple[int, ...]:
        return self.zeta_pow[j % self.n]

    def add(self, u, v):
        return tuple(map(operator.add, u, v))

    def sub(self, u, v):
        return tuple(map(operator.sub, u, v))

    def neg(self, u):
        return tuple(-a for a in u)

    def mul(self, u, v):
        """u * v in Z[zeta_n]: one integer convolution, folded once."""
        phi = self.phi
        if phi == 1:
            return (u[0] * v[0],)
        vs = [(j, b) for j, b in enumerate(v) if b]
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in vs:
                    conv[i + j] += a * b
        out = conv[:phi]
        for c, zs in zip(conv[phi:], self._fold):
            if c:
                for i, z in zs:
                    out[i] += c * z
        return tuple(out)

    def int_mat_mul(self, a, b):
        """a @ b for matrices of integer coordinate vectors, exactly in
        Z[zeta_n]: each output entry sums the integer convolutions of its
        terms and is reduced once modulo Phi_n.  The entries of the product
        are tuples of ints; shapes are the caller's to check."""
        phi, fold = self.phi, self._fold
        if phi == 1:
            cols = [[y[0] for y in col] for col in zip(*b)]
            return [[(sum(map(operator.mul, r, c)),) for c in cols]
                    for r in ([x[0] for x in row] for row in a)]
        sparse = lambda v: [(i, c) for i, c in enumerate(v) if c]
        cols = [[sparse(y) for y in col] for col in zip(*b)]
        out = []
        for row in a:
            ru = [sparse(x) for x in row]
            out_row = []
            for cu in cols:
                conv = [0] * (2 * phi - 1)
                for x, y in zip(ru, cu):
                    if x and y:
                        for i, s in x:
                            for j, t in y:
                                conv[i + j] += s * t
                acc = conv[:phi]
                for c, zs in zip(conv[phi:], fold):
                    if c:
                        for i, z in zs:
                            acc[i] += c * z
                out_row.append(tuple(acc))
            out.append(out_row)
        return out

    def inv(self, w, conjugates):
        """y = the product of galois(w, t) over t in conjugates.  When w lies
        in the fixed field K of a subgroup H of the units mod n, and the
        exponents are one representative of each coset of H but H itself,
        w * y is the norm of w from K to Q, a nonzero integer, and w^-1 is
        y / (w * y) (Cohen, A Course in Computational Algebraic Number
        Theory, 4.2)."""
        if self.is_zero(w):
            raise ZeroDivisionError("inverse of zero")
        y = self.one
        for t in conjugates:
            y = self.mul(y, self.galois(w, t))
        return y

    def galois(self, w, t: int):
        """Apply zeta -> zeta^t (t must be prime to n) to an integer vector;
        the image has integer coordinates too, since every zeta^j does."""
        if math.gcd(t, self.n) != 1:
            raise ValueError("galois exponent not prime to n")
        n, sparse = self.n, self._sparse
        out = [0] * self.phi
        for j, c in enumerate(w):
            if c:
                for i, z in sparse[(j * t) % n]:
                    out[i] += c * z
        return tuple(out)

    def is_zero(self, u) -> bool:
        return not any(u)
