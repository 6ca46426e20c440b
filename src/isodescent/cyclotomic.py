"""Exact arithmetic in Z[x]/(f), f monic, on the power basis of x.

This is the coefficient-level substrate and the one kernel for such rings:
vectors are plain tuples of ints, with no subfield constraint attached.
The class serves three rings:

- Z[theta] for K.  CycloRing(n) is Z[zeta_n], theta = zeta_n and
  d = phi(n): the ambient ring, a field descriptor's `ring`, on whose
  coordinates elements cross the boundary (parsing, coeffs, serialize).
  CycloRing(n, f, sigma) is Z[theta] for theta a Gaussian period that
  generates a subfield K of Q(zeta_n), f its integer minimal polynomial of
  degree d = [K:Q]: the descriptor's `kring`, in which the arithmetic of K
  runs (see exactfield).  When K = Q(zeta_n) the two are one object.
- Z[y]/(h) for the integer lift h of the modulus of a residue field
  F_q = F_p[y]/(h): finitefield.ResidueField multiplies here and reduces
  each output coefficient mod p once.
- Z[u]/(Psi) for Psi the ell^a-th cyclotomic polynomial: its power table
  gives localring.LambdaEngine the powers of u = zeta_(ell^a).

Sums, products and matrix products stay in the ring, and so do Galois maps
once scaled by an integer where sigma_t does not map Z[theta] into itself;
division is left to the caller, which keeps one common denominator per
element.  Products in degree 1 and 2 are closed forms: one product of ints,
and in degree 2, with theta^2 = p0 + p1 theta, four products folded in one
expression (Cohen, A Course in Computational Algebraic Number Theory, 5.1),
a matrix entry being four dot products; every other degree runs one integer
convolution folded once modulo f.  inv returns an integer multiple y of the
product of the nontrivial conjugates of w over a subfield, so that w * y is
an integer.

The module also holds the package's integer number theory: least_factor,
the one trial-division loop, prime_factors and euler_phi on it, and
cyclotomic_poly.

All functions are pure; CycloRing instances only hold tables, the Galois
tables built on first use.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache


def least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division: it stops at the
    first divisor, so a huge n with a small factor costs little."""
    if n % 2 == 0:
        return 2
    k = 3
    while k * k <= n:
        if n % k == 0:
            return k
        k += 2
    return n


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending."""
    out = []
    while n > 1:
        p = least_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def euler_phi(n: int) -> int:
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def _split_ell(d: int, ell: int):
    """(t, d') with d = ell^t d' and d' prime to ell."""
    t = 0
    while d % ell == 0:
        d //= ell
        t += 1
    return t, d


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
    for d in range(1, n):
        if n % d == 0:
            p = _int_poly_div_exact(p, list(cyclotomic_poly(d)))
    return tuple(p)


class CycloRing:
    """Tables and integer coordinate arithmetic for an order Z[theta].

    Z[theta] = Z[x]/(f) for theta an algebraic integer of Q(zeta_n) and f its
    monic integer minimal polynomial, of degree `degree`; a vector holds the
    coordinates on 1, theta, ..., theta^(degree-1).  CycloRing(n) is Z[zeta_n]
    itself: theta = zeta_n and f = Phi_n.  CycloRing(n, f, sigma) is Z[theta]
    for a primitive element theta of a subfield of Q(zeta_n) (exactfield
    builds it from a Gaussian period); sigma(t), for t prime to n, returns
    the Galois table (D, rows) of zeta -> zeta^t, with rows[j] the integer
    coordinates of D sigma_t(theta^j) for one integer D > 0.
    CycloRing(None, h) is Z[y]/(h) with no n: it has no zeta-powers and no
    Galois tables, which the integer lift of a residue field never needs.
    """

    def __init__(self, n: int | None, modulus=None, sigma=None):
        self.n = n
        self.modulus = cyclotomic_poly(n) if modulus is None else tuple(modulus)
        self.degree = d = len(self.modulus) - 1
        # theta^k for k < 2 d - 1, and on Z[zeta_n] for every k < n
        self.powers = self._power_table(max(2 * d - 1, n if modulus is None else 0))
        self.zero = (0,) * d
        self.one = self.powers[0]
        # theta^k as its nonzero (index, coordinate) pairs; _fold keeps those
        # for d <= k <= 2 d - 2, where a product of two coordinate vectors
        # folds back modulo f
        self._sparse = [[(i, z) for i, z in enumerate(v) if z] for v in self.powers]
        self._fold = self._sparse[d:2 * d - 1]
        self._sigma = self._zeta_sigma if sigma is None else sigma
        self._galois = {}  # t -> (D, sparse rows of D sigma_t(theta^j))

    def _power_table(self, count: int) -> list[tuple[int, ...]]:
        # theta^k on the power basis for 0 <= k < count, integer coordinates
        d, mod = self.degree, self.modulus
        table = []
        cur = [0] * d
        cur[0] = 1
        for _ in range(count):
            table.append(tuple(cur))
            nxt = [0] + cur[: d - 1]
            lead = cur[d - 1]
            if lead:
                for i in range(d):
                    nxt[i] -= lead * mod[i]
            cur = nxt
        return table

    def _zeta_sigma(self, t: int):
        # on Z[zeta_n], sigma_t(zeta^j) = zeta^(j t)
        return 1, [self.powers[(j * t) % self.n] for j in range(self.degree)]

    def zeta_power(self, j: int) -> tuple[int, ...]:
        """zeta_n^j; on Z[zeta_n] only, where theta = zeta_n."""
        return self.powers[j % self.n]

    def add(self, u, v):
        return tuple(map(operator.add, u, v))

    def sub(self, u, v):
        return tuple(map(operator.sub, u, v))

    def neg(self, u):
        return tuple(-a for a in u)

    def mul(self, u, v):
        """u * v in Z[theta]: in degree 1 and 2 a closed form, with theta^2 =
        p0 + p1 theta in degree 2; else one integer convolution, folded
        once."""
        d = self.degree
        if d == 1:
            return (u[0] * v[0],)
        if d == 2:
            (a0, a1), (b0, b1), (p0, p1) = u, v, self.powers[2]
            t = a1 * b1
            return (a0 * b0 + p0 * t, a0 * b1 + a1 * b0 + p1 * t)
        vs = [(j, b) for j, b in enumerate(v) if b]
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in vs:
                    conv[i + j] += a * b
        out = conv[:d]
        for c, zs in zip(conv[d:], self._fold):
            if c:
                for i, z in zs:
                    out[i] += c * z
        return tuple(out)

    def int_mat_mul(self, a, b):
        """a @ b for matrices of integer coordinate vectors, exactly in
        Z[theta]: each output entry sums the integer convolutions of its
        terms and is reduced once modulo f.  The entries of the product are
        tuples of ints; shapes are the caller's to check."""
        return self._prepared_mul(self._prepare(a), self._prepare(zip(*b)))

    def _prepare(self, m):
        """The rows of m with each coordinate vector in the form
        _prepared_mul takes: its int in degree 1, itself in degree 2, else
        its nonzero (index, coordinate) pairs.  A caller that multiplies by
        one operand many times prepares it once."""
        if self.degree == 1:
            return [[x[0] for x in row] for row in m]
        if self.degree == 2:
            return [list(row) for row in m]
        return [[[(i, c) for i, c in enumerate(x) if c] for x in row] for row in m]

    def _prepared_mul(self, a, cols):
        """int_mat_mul on prepared operands: the rows of a times the columns
        cols.  A row shorter than a column pairs only its own entries.  In
        degree 2 each row and each column is split into its two coordinate
        lists once, and an entry is four dot products folded by theta^2 =
        p0 + p1 theta."""
        d, fold, mul = self.degree, self._fold, operator.mul
        if d == 1:
            return [[(sum(map(mul, r, c)),) for c in cols] for r in a]
        if d == 2:
            p0, p1 = self.powers[2]
            cs = [([y[0] for y in c], [y[1] for y in c]) for c in cols]
            out = []
            for r in a:
                r0, r1 = [x[0] for x in r], [x[1] for x in r]
                row = []
                for c0, c1 in cs:
                    t = sum(map(mul, r1, c1))
                    row.append((sum(map(mul, r0, c0)) + p0 * t,
                                sum(map(mul, r0, c1)) + sum(map(mul, r1, c0)) + p1 * t))
                out.append(row)
            return out
        out = []
        for ru in a:
            out_row = []
            for cu in cols:
                conv = [0] * (2 * d - 1)
                for x, y in zip(ru, cu):
                    if x and y:
                        for i, s in x:
                            for j, t in y:
                                conv[i + j] += s * t
                acc = conv[:d]
                for c, zs in zip(conv[d:], fold):
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
        y is a positive integer times the product of the other conjugates of
        w, so w * y is a nonzero integer, the norm of w from K to Q times
        the product of the tables' scales, and w^-1 is y / (w * y) (Cohen,
        A Course in Computational Algebraic Number Theory, 4.2)."""
        if self.is_zero(w):
            raise ZeroDivisionError("inverse of zero")
        y = self.one
        for t in conjugates:
            y = self.mul(y, self.galois(w, t))
        return y

    def _table(self, t: int):
        table = self._galois.get(t)
        if table is None:
            if math.gcd(t, self.n) != 1:
                raise ValueError("galois exponent not prime to n")
            scale, rows = self._sigma(t)
            table = self._galois[t] = (
                scale, [[(i, z) for i, z in enumerate(v) if z] for v in rows])
        return table

    def galois_scale(self, t: int) -> int:
        """D in galois: 1 on Z[zeta_n], and whenever sigma_t maps Z[theta]
        into itself."""
        return self._table(t)[0]

    def galois(self, w, t: int):
        """D sigma_t(w) for zeta -> zeta^t (t must be prime to n) and the
        integer D = galois_scale(t): the image of an integer vector has
        integer coordinates once scaled by D."""
        out = [0] * self.degree
        for c, row in zip(w, self._table(t)[1]):
            if c:
                for i, z in row:
                    out[i] += c * z
        return tuple(out)

    def is_zero(self, u) -> bool:
        return not any(u)
