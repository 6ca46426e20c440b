"""Exact arithmetic in Q(zeta_n) on the power basis 1, zeta, ..., zeta^(phi(n)-1).

This is the coefficient-level substrate: vectors are plain tuples of Fraction,
with no subfield constraint attached.  Matrix products, Galois maps and
integer-coordinate work (int_mat_mul, int_galois) run on integer vectors in
Z[zeta_n] and make Fractions only at the end.  Ambient-field elements proper (vectors
fixed by the chosen Galois subgroup, with a designated prime above ell) are
built on top of this in exactfield.

All functions are pure; CycloRing instances only hold precomputed tables.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
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


# ---------------------------------------------------------------------------
# rational polynomial helpers (ascending coefficient lists)

def _q_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return _q_trim(q), _q_trim(a[: len(b) - 1])


def _q_ext_inverse(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo `modulus` in Q[x], by the extended Euclid algorithm."""
    r0, r1 = list(modulus), _q_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _q_divmod(r0, r1)
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qa in enumerate(q):
            if qa:
                for j, sb in enumerate(s1):
                    prod[i + j] += qa * sb
        s_next = [Fraction(0)] * max(len(s0), len(prod))
        for i, v in enumerate(s0):
            s_next[i] += v
        for i, v in enumerate(prod):
            s_next[i] -= v
        r0, r1 = r1, r
        s0, s1 = s1, _q_trim(s_next)
    if len(r0) != 1:
        raise ZeroDivisionError("element is a zero divisor modulo the given polynomial")
    c = 1 / r0[0]
    return [v * c for v in s0]


def _integer_vectors(vectors):
    """(d, us): d the least common denominator of every coordinate, and each
    vector as the list of its nonzero (index, d * coordinate) pairs."""
    fracs = [[(i, c.numerator, c.denominator) for i, c in enumerate(v) if c]
             for v in vectors]
    d = math.lcm(*{q for u in fracs for _, _, q in u})
    return d, [[(i, m * (d // q)) for i, m, q in u] for u in fracs]


_ZERO = Fraction(0)


def _over(nums, d):
    """The coordinates nums[i] / d; no gcd where d is 1 or nums[i] is 0."""
    if d == 1:
        return tuple(Fraction(c) if c else _ZERO for c in nums)
    return tuple(Fraction(c, d) if c else _ZERO for c in nums)


class CycloRing:
    """Tables and coefficient arithmetic for Q(zeta_n)."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.modulus = cyclotomic_poly(n)
        self.zeta_pow = self._power_table()
        self.zero = (Fraction(0),) * self.phi
        one = [Fraction(0)] * self.phi
        one[0] = Fraction(1)
        self.one = tuple(one)
        # zeta^k on the power basis for phi <= k <= 2 phi - 2, nonzero pairs:
        # where a product of two coordinate vectors folds back modulo Phi_n
        self._fold = [[(i, z) for i, z in enumerate(self.zeta_pow[k % n]) if z]
                      for k in range(self.phi, 2 * self.phi - 1)]

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

    # -- vector helpers ---------------------------------------------------
    def vector(self, coeffs) -> tuple[Fraction, ...]:
        v = [Fraction(c) for c in coeffs]
        if len(v) > self.phi:
            raise ValueError("coefficient vector longer than the power basis")
        v += [Fraction(0)] * (self.phi - len(v))
        return tuple(v)

    def from_rational(self, q) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * self.phi
        v[0] = Fraction(q)
        return tuple(v)

    def zeta_power(self, j: int) -> tuple[Fraction, ...]:
        return self.vector(self.zeta_pow[j % self.n])

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def neg(self, u):
        return tuple(-a for a in u)

    def mul(self, u, v):
        phi = self.phi
        if phi == 1:
            return (u[0] * v[0],)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:phi])
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for i, z in enumerate(self.zeta_pow[k % self.n]):
                    if z:
                        out[i] += c * z
        return tuple(out)

    def _dot_products(self, rows, cols):
        """The integer coordinates of sum_k x_k y_k modulo Phi_n for every row
        x of rows and column y of cols, each a list of sparse integer vectors
        (lists of nonzero (index, coordinate) pairs): integer convolutions
        summed, then reduced once modulo Phi_n."""
        phi, fold = self.phi, self._fold
        out = []
        for ru in rows:
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
                out_row.append(acc)
            out.append(out_row)
        return out

    def mat_mul(self, a, b):
        """Product of two matrices whose entries are coordinate vectors.

        Each row of a and each column of b is brought to integer coordinates
        over one common denominator, each output entry is the sum of integer
        convolutions reduced once modulo Phi_n, and only its final
        coordinates become Fractions.  Shapes are the caller's to check.
        """
        rows = [_integer_vectors(row) for row in a]
        cols = [_integer_vectors(col) for col in zip(*b)]
        prods = self._dot_products([u for _, u in rows], [u for _, u in cols])
        return [[_over(acc, rd * cd) for acc, (cd, _) in zip(prow, cols)]
                for prow, (rd, _) in zip(prods, rows)]

    def int_mat_mul(self, a, b):
        """a @ b for matrices of integer coordinate vectors, exactly in
        Z[zeta_n]; the entries of the product are tuples of ints."""
        if self.phi == 1:
            cols = [[y[0] for y in col] for col in zip(*b)]
            return [[(sum(map(operator.mul, r, c)),) for c in cols]
                    for r in ([x[0] for x in row] for row in a)]
        sparse = lambda v: [(i, c) for i, c in enumerate(v) if c]
        rows = [[sparse(x) for x in row] for row in a]
        cols = [[sparse(y) for y in col] for col in zip(*b)]
        return [[tuple(acc) for acc in prow] for prow in self._dot_products(rows, cols)]

    def from_integer(self, w, d: int):
        """The coordinate vector w / d of an integer vector w."""
        return _over(w, d)

    def inv(self, u):
        if self.is_zero(u):
            raise ZeroDivisionError("inverse of zero")
        co = _q_ext_inverse(list(u), [Fraction(c) for c in self.modulus])
        return self.vector(co)

    def galois(self, u, t: int):
        """Apply zeta -> zeta^t (t must be prime to n)."""
        w, d = self.integerize(u)
        return _over(self.int_galois(w, t), d)

    def int_galois(self, w, t: int):
        """galois on an integer coordinate vector; the image has integer
        coordinates too, since every zeta^j does."""
        if math.gcd(t, self.n) != 1:
            raise ValueError("galois exponent not prime to n")
        out = [0] * self.phi
        for j, c in enumerate(w):
            if c:
                for i, z in enumerate(self.zeta_pow[(j * t) % self.n]):
                    if z:
                        out[i] += c * z
        return tuple(out)

    def is_zero(self, u) -> bool:
        return all(c == 0 for c in u)

    def integerize(self, u) -> tuple[tuple[int, ...], int]:
        """Write u = (1/d) * w with w an integer vector, d a positive integer."""
        d = math.lcm(*(c.denominator for c in u))
        return tuple(c.numerator * (d // c.denominator) for c in u), d
