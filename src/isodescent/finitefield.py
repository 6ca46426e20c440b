"""Finite fields F_{p^f} presented as F_p[y]/(h), with deterministic constructions.

Everything here is deterministic: irreducible moduli come from a lexicographic
search, and the factorization of a cyclotomic residue is computed from root
orbits over an explicitly constructed extension, so repeated runs agree bit
for bit.  Products in F_q of degree f >= 2, scalar and matrix, run on
cyclotomic.CycloRing, the one Z[x]/(f) kernel, over the integer lift of the
modulus, and each output coefficient is reduced mod p once; products in F_p
keep a branch of their own.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .cyclotomic import CycloRing, prime_factors


# ---------------------------------------------------------------------------
# polynomials over F_p: tuples of ints in [0, p), ascending degree, no
# trailing zeros (the zero polynomial is the empty tuple)

def fp_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def fp_sub(a, b, p):
    n = max(len(a), len(b))
    return fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def fp_mul(a, b, p):
    """a b with each output coefficient accumulated over the integers and
    reduced mod p once; p need not be prime (LambdaEngine passes ell^P)."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return fp_trim([c % p for c in out])


def fp_divmod(a, b, p):
    a = list(a)
    if not b:
        raise ZeroDivisionError
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] = (a[i + j] - c * d) % p
    return fp_trim(q), fp_trim(a[: len(b) - 1])


def fp_mod(a, b, p):
    return fp_divmod(a, b, p)[1]


def fp_gcd(a, b, p):
    while b:
        a, b = b, fp_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def fp_powmod(base, e, modulus, p):
    base = fp_mod(base, modulus, p)
    if len(base) <= 1:
        # a constant stays in F_p: one integer power
        return fp_trim((pow(base[0] if base else 0, e, p),))
    result = (1,)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, base, p), modulus, p)
        base = fp_mod(fp_mul(base, base, p), modulus, p)
        e >>= 1
    return result


def fp_ext_gcd(a: tuple, b: tuple, p: int):
    """Return (g, s, t) with g the monic gcd of a and b and s*a + t*b = g in F_p[x]."""
    r0, r1 = fp_trim(tuple(c % p for c in a)), fp_trim(tuple(c % p for c in b))
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    g = tuple((c * inv) % p for c in r0)
    s = tuple((c * inv) % p for c in s0)
    t = tuple((c * inv) % p for c in t0)
    return g, s, t


def fp_is_irreducible(h, p) -> bool:
    """Ben-Or's test for a monic polynomial h of degree d over F_p.

    h is irreducible iff gcd(h, x^(p^i) - x) = 1 for every i <= d/2, since
    x^(p^i) - x is the product of the monic irreducibles of degree dividing
    i.  A reducible h is rejected at the degree of its least factor, so a
    candidate with a small factor costs a few p-th powers, not d of them.
    """
    d = len(h) - 1
    if d < 1:
        return False
    x = fp_mod((0, 1), h, p)
    frob = x
    for _ in range(d // 2):
        frob = fp_powmod(frob, p, h, p)
        if len(fp_gcd(fp_sub(frob, x, p), h, p)) != 1:
            return False
    return True


def fp_vectors(p: int, d: int):
    """Every vector of F_p^d, as the little-endian base-p digits of
    0, 1, ..., p^d - 1 in turn."""
    return (t[::-1] for t in itertools.product(range(p), repeat=d))


def find_irreducible(p: int, d: int) -> tuple[int, ...]:
    """First monic irreducible of degree d over F_p in lexicographic coefficient order."""
    for coeffs in fp_vectors(p, d):
        h = coeffs + (1,)
        if fp_is_irreducible(h, p):
            return h
    raise AssertionError("irreducible search exhausted")


def power(x, e: int):
    """x^e by square-and-multiply, for x an element of a field (K or a
    residue field) with a field.one; a negative e inverts x first."""
    if e < 0:
        x, e = x.inverse(), -e
    result = x.field.one
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


class ResidueField:
    """F_{p^f} = F_p[y]/(h) with h monic irreducible of degree f."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.modulus = tuple(int(c) % p for c in modulus)
        assert self.modulus[-1] == 1, "modulus must be monic"
        self.degree = len(self.modulus) - 1
        self.order = p ** self.degree
        # Z[y]/(h) on the integer lift of the modulus: a product there,
        # reduced mod p, is the product in F_q
        self.ring = CycloRing(None, self.modulus)

    def element(self, coeffs) -> "ResidueElement":
        if isinstance(coeffs, ResidueElement):
            assert coeffs.field == self
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        v = [int(c) % self.p for c in coeffs]
        if len(v) > self.degree:
            v = list(fp_mod(tuple(v), self.modulus, self.p))
        v += [0] * (self.degree - len(v))
        return ResidueElement(self, tuple(v))

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    @property
    def gen(self):
        return self.element((0, 1))

    def int_mat_mul(self, a, b):
        """a @ b for matrices of coefficient tuples (ints, any representative
        mod p): the product in Z[y]/(h) (CycloRing.int_mat_mul), with each
        output coefficient reduced mod p once."""
        return self._prepared_mul(self._prepare(a), self._prepare(zip(*b)))

    _prepare = property(lambda self: self.ring._prepare)

    def _prepared_mul(self, a, cols):
        """int_mat_mul on operands prepared by CycloRing._prepare."""
        p = self.p
        if self.degree == 1:
            return [[(sum(map(operator.mul, r, c)) % p,) for c in cols] for r in a]
        return [[tuple(c % p for c in v) for v in row]
                for row in self.ring._prepared_mul(a, cols)]

    # integer coordinates (see linalg): coefficient tuples over d = 1

    def integer_rows(self, m):
        """One (1, the coefficient tuples of the row's entries) per row of m.
        Raises TypeError unless every entry is an element of this field."""
        for row in m:
            for x in row:
                if not (isinstance(x, ResidueElement)
                        and (x.field is self or x.field == self)):
                    raise TypeError("matrix entries must be elements of one residue field")
        return [(1, [x.coeffs for x in row]) for row in m]

    def from_integer(self, w, d: int):
        """The element w / d for a coefficient tuple w and d prime to p."""
        p = self.p
        if d != 1:
            # integer_rows gives d = 1, so products and charpoly skip this
            inv = pow(d, -1, p)
            w = [c * inv for c in w]
        # not redundant after int_mat_mul: the 1 x 1 charpoly hands over
        # -w[0][0] unreduced, with negative coefficients
        return ResidueElement(self, tuple(c % p for c in w))

    @property
    def integer_one(self):
        return (1,) + (0,) * (self.degree - 1)

    # row operations (linalg._rref), as FieldDescriptor has them

    def _scale_row(self, c, xs):
        return [c * x for x in xs]

    def _axpy_row(self, xs, c, ys):
        return [x + c * y for x, y in zip(xs, ys)]

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        for coeffs in fp_vectors(self.p, self.degree):
            yield ResidueElement(self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"ResidueField(p={self.p}, f={self.degree})"


class ResidueElement:
    """Element of a ResidueField; immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ResidueField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _like(self, other):
        if isinstance(other, int):
            return self.field.element(other)
        if isinstance(other, ResidueElement) and (
                other.field is self.field or other.field == self.field):
            return other
        return None

    def __add__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return ResidueElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return ResidueElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.field.p
        return ResidueElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        F = self.field
        p = F.p
        return ResidueElement(F, tuple(c % p for c in F.ring.mul(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        F = self.field
        a = fp_trim(self.coeffs)
        if not a:
            raise ZeroDivisionError("inverse of zero residue")
        # the modulus is irreducible, so the gcd is 1 and t*a = 1 mod it
        _, _, t = fp_ext_gcd(F.modulus, a, F.p)
        return F.element(t)

    def __truediv__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int, mod=None):
        return power(self, e)  # pow(x, -1, p) is the inverse, as x % p is x

    def __mod__(self, p):
        """x: an element of F_q is its own residue mod p, as an int in
        [0, p) is, so integer code over F_p (fp_charpoly) runs on these."""
        return self

    def __bool__(self):
        return any(self.coeffs)

    def frobenius(self, k: int = 1):
        """x -> x^(p^k)."""
        return self ** (self.field.p ** k)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, ResidueElement)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.coeffs))

    def __repr__(self):
        return f"FF{self.coeffs}@{self.field.p}^{self.field.degree}"


def multiplicative_order_mod(t: int, m: int) -> int:
    if m == 1:
        return 1
    assert math.gcd(t, m) == 1
    k, cur = 1, t % m
    while cur != 1 % m:
        cur = (cur * t) % m
        k += 1
    return k


@lru_cache(maxsize=None)
def cyclotomic_factors_mod(ell: int, m: int):
    """Irreducible factors of the residue mod ell of the m-th cyclotomic polynomial
    (requires gcd(m, ell) = 1).

    Returns a tuple of (poly, orbit) pairs sorted by ascending coefficient tuple,
    where poly is a monic irreducible tuple over F_ell and orbit is the frozenset
    of exponents j in (Z/m)^* whose roots zeta_m^j the factor kills.  All factors
    share the same degree, the multiplicative order of ell mod m.  The result
    depends on (ell, m) alone and is cached, so every descriptor with the same
    (ell, m) shares one tuple.
    """
    assert math.gcd(m, ell) == 1
    if m == 1:
        return ((((ell - 1) % ell, 1), frozenset({0})),)
    d = multiplicative_order_mod(ell, m)
    Fq = ResidueField(ell, find_irreducible(ell, d))
    # deterministic primitive m-th root of unity in Fq: eta^m = 1, so eta has
    # order m iff no eta^(m/q) is 1 (q prime); this never factors |Fq*|
    cofactor = (Fq.order - 1) // m
    h, primes = Fq.modulus, prime_factors(m)
    xi = None
    for c in Fq.elements():
        if c.is_zero():
            continue
        eta = fp_powmod(fp_trim(c.coeffs), cofactor, h, ell)
        if all(fp_powmod(eta, m // q, h, ell) != (1,) for q in primes):
            xi = Fq.element(eta)
            break
    assert xi is not None, "no primitive root found"
    # xi^0, ..., xi^(m-1), one multiplication each
    powers = [Fq.one]
    for _ in range(m - 1):
        powers.append(powers[-1] * xi)
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
        # minimal polynomial of xi^j: prod over the orbit of (x - xi^i)
        poly = [Fq.one]
        for i in orbit:
            root = powers[i]
            nxt = [Fq.zero] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - c * root
            poly = nxt
        coeffs = []
        for c in poly:
            assert all(v == 0 for v in c.coeffs[1:]), "factor coefficient not in the prime field"
            coeffs.append(c.coeffs[0])
        factors.append((tuple(coeffs), frozenset(orbit)))
    factors.sort(key=lambda fo: fo[0])
    return tuple(factors)


# ---------------------------------------------------------------------------
# small dense linear algebra over F_p with plain ints (used for residue-field
# bookkeeping inside descriptors and for the counterexample certificates;
# generic object-level linear algebra for matrices over ResidueField lives in
# linalg)

def fp_mat_mul(a, b, p):
    n, m, k = len(a), len(b[0]), len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def fp_mat_pow(m, e, p):
    out = [[1 if i == j else 0 for j in range(len(m))] for i in range(len(m))]
    base = [row[:] for row in m]
    while e:
        if e & 1:
            out = fp_mat_mul(out, base, p)
        base = fp_mat_mul(base, base, p)
        e >>= 1
    return out


def fp_det(m, p):
    """Determinant over F_p by forward elimination only (no back substitution)."""
    a = [[v % p for v in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det = (det * a[c][c]) % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            if a[i][c]:
                f = (a[i][c] * inv) % p
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[c])]
    return det % p


def fp_charpoly(m, field):
    """det(x I - m) over F_q = field (a ResidueField), for m a square matrix
    of coefficient tuples in [0, p) (ResidueElement.coeffs), low degree
    first and monic, as n + 1 such tuples, in O(n^3) operations of F_q: m
    is brought to upper Hessenberg form H by similarities, and the
    charpoly follows from the recurrence on H's leading minors, p_(j+1) =
    (x - h_jj) p_j - sum over i < j of h_ij (h_(i+1,i) ... h_(j,j-1)) p_i
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.4).  It
    is integer code over F_p, reducing mod p where it must: it runs on plain
    ints when f = 1, and on ResidueElements, which take its int operators,
    when f >= 2."""
    p = field.p
    if field.degree == 1:
        h, zero, one = [[x[0] for x in row] for row in m], 0, 1
    else:
        h = [[ResidueElement(field, x) for x in row] for row in m]
        zero, one = field.zero, field.one
    n = len(h)
    for c in range(n - 2):
        s = c + 1
        piv = next((i for i in range(s, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != s:
            h[s], h[piv] = h[piv], h[s]
            for row in h:
                row[s], row[piv] = row[piv], row[s]
        # clear column c below row s with row s; the row steps commute, so
        # their inverses make one step on column s
        inv, top = pow(h[s][c], -1, p), h[s]
        steps = []
        for i in range(s + 1, n):
            u = h[i][c] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], top)]
                steps.append((i, u))
        if steps:
            for row in h:
                row[s] = (row[s] + sum((u * row[i] for i, u in steps), zero)) % p
    polys = [[one]]
    for j in range(n):
        nxt = [zero] + polys[j]
        if h[j][j]:
            for k, v in enumerate(polys[j]):
                nxt[k] -= h[j][j] * v
        t = one
        for i in range(j - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = t * h[i][j]
            if f % p:
                for k, v in enumerate(polys[i]):
                    nxt[k] -= f * v
        polys.append([v % p for v in nxt])
    return [(c,) for c in polys[n]] if field.degree == 1 else [c.coeffs for c in polys[n]]


def _fp_rref(a, p: int, ncols: int) -> list[int]:
    """Gauss-Jordan reduction over F_p of the reduced int matrix a, in place,
    over its first ncols columns; returns the pivot columns in order."""
    nr = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def fp_kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel of the matrix over F_p."""
    nc = len(rows[0]) if rows else 0
    a = [[v % p for v in r] for r in rows]
    pivots = _fp_rref(a, p, nc)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * nc
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-a[i][fc]) % p
        basis.append(vec)
    return basis


def fp_solve(rows: list[list[int]], rhs: list[int], p: int):
    """One solution of rows*x = rhs over F_p, or None if inconsistent."""
    nc = len(rows[0]) if rows else 0
    aug = [[v % p for v in r] + [b % p] for r, b in zip(rows, rhs)]
    pivots = _fp_rref(aug, p, nc)
    if any(row[nc] for row in aug[len(pivots):]):
        return None
    x = [0] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return x
