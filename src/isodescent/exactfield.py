"""Exact subfields of cyclotomic fields with one certified prime over ell.

The field K = Q(zeta_n)^H is cut out of the n-th cyclotomic field by a
subgroup H of the units mod n.  A descriptor fixes one prime above an odd
prime ell (chosen among the Galois-orbit classes of irreducible factors of
the prime-to-ell cyclotomic part), certifies a uniformizer for it, and
carries the residue-field data needed to reduce integral elements.

With n = ell^a m, ell prime to m, the inertia group I of ell is the kernel
of reduction mod m and the decomposition group D the preimage of <ell mod m>
(Washington, Introduction to Cyclotomic Fields, ch. 2): e = |I| / |H & I|
and f = [D : I] |H & I| / |H & D| are indices.  Every admitted field
certifies a uniformizer, a trace over H of zeta^j (1 - zeta_(ell^a))^s.

Elements are exact and held on a basis of K itself: `num` is d = [K:Q]
integer coordinates on 1, theta, ..., theta^(d-1), over one positive
denominator, in lowest terms, and an element is inverted through its norm
to Q (Cohen, A Course in Computational Algebraic Number Theory, 4.2).
theta is the first Gaussian period eta_j = sum over h in H of zeta_n^(j h)
with d distinct conjugates (eta_1 is 0 for n = 8, H = {1, 5}), and the
descriptor's `kring` runs the arithmetic in Z[theta], modulo theta's
integer minimal polynomial: x^2 + x + 2 for Q(sqrt -7) in Q(zeta_7).  When
H is trivial, theta = zeta_n and `kring` is `ring`.  `ring` is always the
ambient Z[zeta_n]: the boundary (FieldElement(field, coeffs), element,
rational, orbit_sum, zeta_power on the way in; coeffs and serialize on the
way out) is on its power basis, and so are reports, so their bytes do not
depend on theta.  Ints and "p/q" strings are read there by int(), and
serialize writes "c/d" strings through one gcd per coordinate; Fractions
appear only in coeffs, in the hash of a rational, and for Fraction inputs.

Valuations and residues are read off the lambda-adic digits of the
numerator in the completion (see localring), from a per-precision table of
the digits of the powers of theta (`kengine`): the valuation is the least
e * v_ell(d_k) + k over the digits, certified at a working precision that
doubles up to a ceiling computed from the element's norm, so no answer
depends on floating point or on unproven precision heuristics.

An optional involution is the restriction of zeta -> zeta^s for a unit s
with s^2 in H and s not in H; its fixed field L has index 2 in K.  The
chosen prime must not split over L: descriptors with a splitting involution
are rejected, since then the completion carries no involution at all.
"""

from __future__ import annotations

import copy
import itertools
import math
import re
from fractions import Fraction

from .cyclotomic import CycloRing, _split_ell, euler_phi, least_factor
from .errors import (
    InternalInconsistency,
    InvalidDescriptor,
    NegativeValuation,
    NoInvolution,
)
from .finitefield import (
    ResidueField,
    cyclotomic_factors_mod,
    fp_is_irreducible,
    fp_kernel,
    fp_solve,
    fp_vectors,
    multiplicative_order_mod,
    power,
)
from .localring import LambdaEngine

# make_descriptor refuses larger inputs before building any table: the
# residue field search grows with the conductor (through the residue degree)
# and with ell, and the primality test of ell is trial division
MAX_CONDUCTOR = 64
MAX_ELL = 1000
# the residue degree of ell in Q(zeta_n), the multiplicative order of ell
# modulo the prime-to-ell part of n: the irreducible search, the root search
# and the residue tables all grow with it.  16 admits Q(zeta_64) at ell = 3;
# the slowest admitted descriptor timed, n = 31 at ell = 971 (f = 15), takes
# about 0.6 s, most of it in the irreducible search.
MAX_RESIDUE_DEGREE = 16


def _is_int(x) -> bool:
    """An int that is not a bool: descriptor and bundle integers are never
    coerced, and JSON true and false load as bool, which Python counts as int."""
    return isinstance(x, int) and not isinstance(x, bool)


# the documented string coordinates; Fraction also reads exponent forms such
# as "1e100000", whose power of ten no digit limit bounds
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(c) -> tuple[int, int]:
    """A coordinate as (numerator, denominator > 0) in lowest terms.  A
    string must be an integer or p/q, read by int(), or raises ValueError; a
    zero denominator raises Fraction's ZeroDivisionError."""
    if isinstance(c, int):
        return c, 1
    if not isinstance(c, str):
        q = Fraction(c)
        return q.numerator, q.denominator
    if not _RATIONAL.fullmatch(c):
        raise ValueError(f"{c!r} is not an integer or p/q")
    num, _, den = c.partition("/")
    num, den = int(num), int(den or 1)
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    return num // g, den // g


_new = object.__new__


def _make(field, num, den):
    """The element num / den, already in lowest terms with den > 0."""
    x = _new(FieldElement)
    x.field, x.num, x.den, x._val, x._res = field, num, den, None, None
    return x


def _lowest(field, num, den):
    """num / den for den > 0, brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
    return _make(field, num, den)


def _add(field, a, da, b, db):
    """a / da + b / db.  With g = gcd(da, db), any common factor of the sum
    a * (db / g) + b * (da / g) and da * db / g divides g (Knuth, TAOCP
    4.5.1), so only g is tested."""
    if da == db:
        return _lowest(field, field.kring.add(a, b), da)
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    num = tuple(x * sa + y * sb for x, y in zip(a, b))
    den = sa * da
    if g != 1:
        h = math.gcd(g, *num)
        if h != 1:
            num, den = tuple(c // h for c in num), den // h
    return _make(field, num, den)


class FieldElement:
    """One element of K, exact, with memoized certification results.

    An element is num / den: num its coordinates in Z[theta] on the basis
    1, theta, ..., theta^(d-1) of K (see FieldDescriptor.kring), a tuple of
    d = [K:Q] ints, and den a positive int with gcd(den, *num) = 1, so
    equal elements have equal pairs.  Arithmetic builds results straight
    from such pairs.  FieldElement(field, coeffs) takes rational coordinates
    on the power basis of zeta_n and refuses a vector that is not in K, and
    coeffs gives them back as Fractions; both are for the boundary (parsing,
    serialize, tests).  The valuation memo _val is set by the engine, or
    without it where the rule is exact: negation and inversion, and the
    ultrametric rule of the row operations (FieldDescriptor._axpy_row).
    """

    __slots__ = ("field", "num", "den", "_val", "_res")

    def __init__(self, field: "FieldDescriptor", coeffs):
        qs = [_rational(c) for c in coeffs]
        if len(qs) > field.degree_full:
            raise InvalidDescriptor(
                f"expected at most {field.degree_full} coefficients, got {len(qs)}")
        den = math.lcm(*(d for _, d in qs))
        w = [c * (den // d) for c, d in qs]
        x = field._from_power_basis(tuple(w + [0] * (field.degree_full - len(w))), den)
        if x is None:
            raise InvalidDescriptor(
                "coefficient vector is not fixed by the subgroup; not an element of K")
        self.field, self.num, self.den, self._val, self._res = field, x.num, x.den, None, None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coordinates on the power basis of zeta_n."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.field.to_power_basis(self.num))

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            # identity first: == builds two key tuples; clones stay equal
            if other.field is not self.field and other.field != self.field:
                raise InvalidDescriptor("cannot mix elements of different field descriptors")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self.num, self.den, self.field.kring.neg(o.num), o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self.field, o.num, o.den, self.field.kring.neg(self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _lowest(self.field, self.field.kring.mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        y = _make(self.field, self.field.kring.neg(self.num), self.den)
        y._val = self._val
        return y

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        return power(self, exp)

    def inverse(self) -> "FieldElement":
        """(num / den)^-1 = den * y / N with y = kring.inv(num) and
        N = num * y a nonzero integer, the norm of num from K to Q times the
        scales of the Galois tables."""
        field = self.field
        ring = field.kring
        y = ring.inv(self.num, field.conjugates)
        prod = ring.mul(self.num, y)
        norm = prod[0]
        if any(prod[1:]):
            raise InternalInconsistency("the norm of a field element is not rational")
        if norm < 0:
            norm, y = -norm, ring.neg(y)
        den = self.den
        y = _lowest(field, y if den == 1 else tuple(den * c for c in y), norm)
        if self._val is not None:
            y._val = -self._val
        return y

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        # a rational element equals the int or Fraction of its value, so it
        # hashes like one; the field is left out, since clones compare equal
        num = self.num
        if any(num[1:]):
            return hash((num, self.den))
        return hash(num[0]) if self.den == 1 else hash(Fraction(num[0], self.den))

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)!r})"

    # -- certified queries ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def valuation(self):
        """Certified valuation at the chosen prime (math.inf for zero)."""
        if self._val is not None:
            return self._val
        if self.is_zero:
            self._val = math.inf
            return self._val
        field = self.field
        t, _ = _split_ell(self.den, field.ell)
        vlam = field.kengine.valuation(self.num)
        if vlam % field.e_rel:
            raise InternalInconsistency(
                "completion valuation of a field element is not a multiple "
                "of the relative ramification index")
        self._val = vlam // field.e_rel - field.e * t
        return self._val

    def is_integral(self) -> bool:
        """Whether the valuation is >= 0, decided without certifying it
        (FieldDescriptor.integral) unless it is already known."""
        if self._val is not None:
            return self._val >= 0
        return self.field.integral(self.num, self.den)

    def reduce(self):
        """Image in the residue field (FieldDescriptor._residue); requires
        valuation >= 0, and certifies a valuation only to word the refusal."""
        if self._res is None:
            self._res = self.field._residue(self.num, self.den)
        return self._res

    def conjugate(self) -> "FieldElement":
        """Image under the involution of the descriptor."""
        field = self.field
        if field.involution is None:
            raise NoInvolution("field descriptor carries no involution")
        s, ring = field.involution, field.kring
        image, scale = ring.galois(self.num, s), ring.galois_scale(s)
        if scale == 1:
            # then the Galois map is a ring automorphism of Z[theta], so the
            # content of num, and with it the lowest terms, is unchanged
            return _make(field, image, self.den)
        return _lowest(field, image, self.den * scale)

    def serialize(self) -> list[str]:
        """The coordinates on the power basis of zeta_n as strings, str of
        their Fractions: "c" or "c/d" in lowest terms."""
        den, out = self.den, []
        for c in self.field.to_power_basis(self.num):
            g = math.gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out


class FieldDescriptor:
    """K = Q(zeta_n)^H together with one certified prime above ell.

    Do not instantiate directly; use make_descriptor, which performs all the
    arithmetic validation and certifies the uniformizer.
    """

    def __init__(self):
        # attributes are filled in by make_descriptor
        self.pi = None
        self._pi_powers = {}
        self._one = None
        self._zero = None
        self._orbit_sums = {}

    # -- identity ------------------------------------------------------

    @property
    def key(self):
        return (self.n, self.ell, self.subgroup, self.prime_choice, self.involution)

    def __eq__(self, other):
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        inv = f", involution={self.involution}" if self.involution is not None else ""
        return (f"FieldDescriptor(n={self.n}, ell={self.ell}, "
                f"subgroup={list(self.subgroup)}, prime_choice={self.prime_choice}{inv})")

    # -- the boundary: coordinates on the power basis of zeta_n ----------

    def _from_power_basis(self, w, den: int):
        """The element w / den for an integer tuple w on the power basis of
        zeta_n and den > 0, or None when w is not in K.  Its coordinates on
        the basis of theta are c / D with c = B w_R (see _build_theta), and
        w lies in K iff M c = D w.  That holds on the rows R by the choice of
        B, so only the other rows are checked.  When theta = zeta_n
        (_to_theta is None), c = w and D = 1."""
        rows = self._to_theta
        if rows is None:
            return _lowest(self, w, den)
        c = tuple(sum(b * w[r] for r, b in row) for row in rows)
        scale = self._to_theta_den
        for i, row in self._off_pivot:
            if sum(z * c[j] for j, z in row) != scale * w[i]:
                return None
        return _lowest(self, c, scale * den)

    def _in_field(self, w) -> FieldElement:
        """The element of an integer tuple w on the power basis of zeta_n
        that the descriptor built itself and knows to lie in K."""
        x = self._from_power_basis(w, 1)
        if x is None:
            raise InternalInconsistency("a vector the descriptor built is not in K")
        return x

    def to_power_basis(self, num) -> tuple[int, ...]:
        """Power-basis coordinates in Z[zeta_n] of an integer vector on the
        basis of theta."""
        if self._theta_powers is None:
            return num
        out = [0] * self.degree_full
        for c, col in zip(num, self._theta_powers):
            if c:
                for i, z in col:
                    out[i] += c * z
        return tuple(out)

    def element(self, coeffs) -> FieldElement:
        """Validating constructor: coefficients on the power basis of zeta_n.

        Accepts ints, Fractions, or integer and p/q strings such as "2/3"
        (other strings raise ValueError); shorter vectors are zero-padded.
        Raises InvalidDescriptor when the element is not fixed by the
        subgroup (i.e. does not lie in K).
        """
        if isinstance(coeffs, FieldElement):
            if coeffs.field != self:
                raise InvalidDescriptor("element belongs to a different field descriptor")
            return coeffs
        return FieldElement(self, coeffs)

    def rational(self, q) -> FieldElement:
        num, den = _rational(q)
        return _make(self, (num,) + self.kring.zero[1:], den)

    def zeta_power(self, j: int) -> FieldElement:
        """zeta_n^j when it lies in K (validated)."""
        return self.element(self.ring.zeta_power(j))

    def orbit_sum(self, j: int) -> FieldElement:
        """Sum of zeta_n^(j*h) over the subgroup; always lies in K."""
        j %= self.n
        x = self._orbit_sums.get(j)
        if x is None:
            x = self._orbit_sums[j] = self._in_field(_period(self.ring, self.subgroup, j))
        return x

    @property
    def one(self) -> FieldElement:
        if self._one is None:
            self._one = self.rational(1)
        return self._one

    @property
    def zero(self) -> FieldElement:
        if self._zero is None:
            self._zero = self.rational(0)
        return self._zero

    # integer coordinates (see linalg): each row over its least common
    # denominator, coordinates in Z[theta] on the basis of theta

    def integer_rows(self, m):
        """One (d, w) per row of m: d the least common denominator of the
        row's entries and w their integer coordinate tuples over it.  Raises
        InvalidDescriptor unless every entry is an element of this
        descriptor (or of a clone of it)."""
        out = []
        for row in m:
            self._own(row)
            d = math.lcm(*(x.den for x in row))
            out.append((d, [x.num if x.den == d else tuple(c * (d // x.den) for c in x.num)
                            for x in row]))
        return out

    def _own(self, row):
        """Raise InvalidDescriptor unless every entry is of this descriptor."""
        for x in row:
            # identity first: == builds two key tuples; clones stay equal
            if not (isinstance(x, FieldElement) and (x.field is self or x.field == self)):
                raise InvalidDescriptor("matrix entries must be elements of one field descriptor")

    def integral(self, w, d: int) -> bool:
        """Whether w / d has valuation >= 0, for an integer coordinate tuple
        w and d > 0, not necessarily in lowest terms.  With d = ell^t d' and
        d' prime to ell, it holds when t = 0, w lying in Z[theta]; otherwise
        iff ell^t divides w at the chosen prime, which the lambda-digits of w
        mod ell^t decide exactly (LambdaEngine.divisible)."""
        t, _ = _split_ell(d, self.ell)
        return t == 0 or self.kengine.divisible(w, t)

    def int_mat_mul(self, a, b):
        return self.kring.int_mat_mul(a, b)

    # int_mat_mul in two steps, for linalg.charpoly (CycloRing._prepare)
    _prepare = property(lambda self: self.kring._prepare)
    _prepared_mul = property(lambda self: self.kring._prepared_mul)

    def from_integer(self, w, d: int) -> FieldElement:
        """The element w / d for an integer coordinate tuple w and d > 0."""
        return _lowest(self, tuple(w), d)

    @property
    def integer_one(self):
        return self.kring.one

    # row operations (linalg._rref, lattice.snf) on num / den pairs: each new
    # entry in lowest terms once, its valuation memo set where it is exact:
    # v(c y) = v(c) + v(y), and v(x + c y) = min(v(x), v(c y)) if they differ

    def _scale_row(self, c, xs):
        return self._axpy_row([self.zero] * len(xs), c, xs)

    def _axpy_row(self, xs, c, ys):
        """[x + c * y for x, y in zip(xs, ys)], keeping x where y is zero."""
        self._own((c, *xs, *ys))
        mul, cn, cd, vc = self.kring.mul, c.num, c.den, c._val
        out = []
        for x, y in zip(xs, ys):
            if any(y.num):
                p, dp = mul(cn, y.num), cd * y.den
                vp = None if vc is None or y._val is None else vc + y._val
                a, da, vx = x.num, x.den, x._val
                if not any(a):
                    x, vx = _lowest(self, p, dp), math.inf
                elif da == dp:
                    x = _lowest(self, self.kring.add(a, p), da)
                else:
                    x = _lowest(self, tuple(s * dp + t * da for s, t in zip(a, p)), da * dp)
                if vp is not None and vx is not None and vx != vp:
                    x._val = min(vx, vp)
            out.append(x)
        return out

    def pi_power(self, j: int) -> FieldElement:
        """pi^j with a cache (negative powers allowed)."""
        if j in self._pi_powers:
            return self._pi_powers[j]
        val = self.pi ** j
        self._pi_powers[j] = val
        return val

    # -- residue data ----------------------------------------------------

    def _residue(self, w, d: int):
        """The residue of w / d, for an integer coordinate tuple w and d > 0
        not necessarily in lowest terms, d = ell^t d' with d' prime to ell:
        the residue of w / ell^t off the lambda-digits of w, whose digits
        also decide integrality (NegativeValuation if it fails), times d'^-1
        mod ell.  FieldElement.reduce and descend's integer-form reductions
        call it."""
        t, unit = _split_ell(d, self.ell)
        try:
            r = self.kengine.residue(w, t)
        except InternalInconsistency:
            # the digits refused the division; anything else is a fault
            if not t or self.kengine.divisible(w, t):
                raise
            raise NegativeValuation(
                f"element has valuation {_lowest(self, tuple(w), d).valuation()}; "
                "only integral elements reduce") from None
        if unit % self.ell != 1:
            inv = pow(unit, -1, self.ell)
            r = [c * inv for c in r]
        return self._residue_from_big(r)

    def _residue_from_big(self, rcoords):
        """Convert completion-residue coordinates into the abstract residue field."""
        if self._embed_rows is None:
            return self.residue_field.element(list(rcoords))
        sol = fp_solve(self._embed_rows, rcoords, self.ell)
        if sol is None:
            raise InternalInconsistency(
                "residue of a field element fell outside the residue field")
        return self.residue_field.element(sol)

    def residue_involution(self, x):
        """Involution induced on the residue field (identity in the ramified case)."""
        if self.involution is None:
            raise NoInvolution("field descriptor carries no involution")
        if self.involution_type == "ramified":
            return x
        return x.frobenius(self.f // 2)

    # -- reporting -------------------------------------------------------

    def describe(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "subgroup": list(self.subgroup),
            "prime_choice": self.prime_choice,
            "n_primes": self.n_primes,
            "degree": self.degree,
            "ramification_index": self.e,
            "residue_degree": self.f,
            "residue_order": self.ell**self.f,
            "involution": self.involution,
            "involution_type": self.involution_type,
            "uniformizer": self.pi.serialize(),
            "hypothesis_2e_lt_ell_minus_1": self.two_e_ok,
        }


# ----------------------------------------------------------------------
# descriptor construction


def make_descriptor(n: int, ell: int, subgroup=(1,), prime_choice: int = 0,
                    involution=None) -> FieldDescriptor:
    """Build and fully certify a field descriptor.

    subgroup lists units mod n generating K as their fixed field (it must
    already be multiplicatively closed); prime_choice indexes the primes
    above ell in K, ordered by the smallest index of an irreducible factor
    in their orbit class (factors sorted by coefficient tuple); involution
    is a unit s mod n with s not in the subgroup and s^2 in it, or None.
    The conductor is at most MAX_CONDUCTOR, ell at most MAX_ELL and the
    residue degree of ell in Q(zeta_n) at most MAX_RESIDUE_DEGREE.
    """
    if not _is_int(n) or n < 1:
        raise InvalidDescriptor("conductor must be a positive integer")
    if n > MAX_CONDUCTOR:
        raise InvalidDescriptor(f"conductor must be at most {MAX_CONDUCTOR}, got {n}")
    if not _is_int(ell) or ell > MAX_ELL:
        raise InvalidDescriptor(
            f"residue characteristic must be an integer at most {MAX_ELL}")
    if ell < 3 or least_factor(ell) != ell:
        raise InvalidDescriptor("residue characteristic must be an odd prime")
    subgroup = tuple(subgroup or ())
    if not all(_is_int(h) for h in subgroup):
        raise InvalidDescriptor("subgroup entries must be integers")
    if involution is not None and not _is_int(involution):
        raise InvalidDescriptor("involution must be an integer or None")

    if n == 1:
        units = {1}
        sub = {1}
        if set(subgroup) - {0, 1}:
            raise InvalidDescriptor("subgroup entries must be units mod n")
    else:
        units = {t for t in range(1, n) if math.gcd(t, n) == 1}
        sub = {h % n for h in subgroup} | {1}
        if not sub <= units:
            raise InvalidDescriptor("subgroup entries must be units mod n")
        for h1 in sub:
            for h2 in sub:
                if (h1 * h2) % n not in sub:
                    raise InvalidDescriptor("subgroup is not multiplicatively closed")
    H = tuple(sorted(sub))

    s_norm = None
    if involution is not None:
        if n == 1:
            raise InvalidDescriptor("the rational field admits no involution")
        s = involution % n
        if s not in units:
            raise InvalidDescriptor("involution must be a unit mod n")
        if s in sub:
            raise InvalidDescriptor("involution acts trivially on K")
        if (s * s) % n not in sub:
            raise InvalidDescriptor("involution must square into the subgroup")
        # normalize to the smallest representative of the coset s*H
        s_norm = min((s * h) % n for h in sub)

    a, m = _split_ell(n, ell)
    e_full = euler_phi(ell**a)
    phi_n = euler_phi(n)

    f_cyclo = multiplicative_order_mod(ell, m)
    if f_cyclo > MAX_RESIDUE_DEGREE:
        raise InvalidDescriptor(
            f"the residue degree of {ell} in Q(zeta_{n}) is {f_cyclo}; it must be "
            f"at most {MAX_RESIDUE_DEGREE}")
    factors = cyclotomic_factors_mod(ell, m)
    f_full = len(factors[0][0]) - 1
    if any(len(p) - 1 != f_full for p, _ in factors):
        raise InternalInconsistency("cyclotomic factors of unequal degree")

    # decomposition data: the inertia group I is the kernel of reduction mod
    # m and the decomposition group D the preimage of <ell mod m>; e and f of
    # the fixed field of a subgroup S are indices of S in them
    ell_powers = {pow(ell, k, m) for k in range(f_cyclo)}
    inertia = {t for t in units if t % m == 1 % m}
    decomp = {t for t in units if t % m in ell_powers}
    if len(inertia) != e_full or len(decomp) != e_full * f_full:
        raise InternalInconsistency("inertia or decomposition group of the wrong order")

    def ramification(group):
        in_inertia = len(group & inertia)
        return e_full // in_inertia, f_full * in_inertia // len(group & decomp)

    e, f = ramification(sub)
    g_count = len(units) * len(sub & decomp) // (len(sub) * len(decomp))

    # orbit classes of factors under the subgroup = primes of K above ell
    exp_to_idx = {}
    for idx, (_poly, orbit) in enumerate(factors):
        for ex in orbit:
            exp_to_idx[ex] = idx

    def factor_image(idx: int, t: int) -> int:
        ex = next(iter(factors[idx][1]))
        return exp_to_idx[(ex * t) % m]

    reps = {}
    for idx in range(len(factors)):
        reps[idx] = min(factor_image(idx, h) for h in H)
    classes = sorted(set(reps.values()))
    n_primes = len(classes)
    if n_primes != g_count:
        raise InternalInconsistency("factor orbit count disagrees with the group count")
    if not _is_int(prime_choice) or not (0 <= prime_choice < n_primes):
        raise InvalidDescriptor(
            f"prime_choice must lie in [0, {n_primes}) for this field and ell")
    chosen_idx = classes[prime_choice]
    chosen_factor = factors[chosen_idx][0]

    # involution type at the chosen prime
    involution_type = None
    HL = None
    if s_norm is not None:
        HL = tuple(sorted(sub | {(s_norm * h) % n for h in sub}))
        e_L, f_L = ramification(set(HL))
        fixes_prime = reps[factor_image(chosen_idx, s_norm)] == reps[chosen_idx]
        if e == 2 * e_L and f == f_L:
            involution_type = "ramified"
        elif e == e_L and f == 2 * f_L:
            involution_type = "unramified"
        elif e == e_L and f == f_L:
            if fixes_prime:
                raise InternalInconsistency("split prime with a fixed factor orbit")
            raise InvalidDescriptor(
                "the involution splits the chosen prime; the completion carries "
                "no involution there (pick another prime or drop the involution)")
        else:
            raise InternalInconsistency("impossible involution ramification pattern")
        if not fixes_prime:
            raise InternalInconsistency("non-split involution moved the factor orbit")

    desc = FieldDescriptor()
    desc.n = n
    desc.ell = ell
    desc.subgroup = H
    desc.prime_choice = prime_choice
    desc.involution = s_norm
    desc.a = a
    desc.m = m
    desc.e_full = e_full
    desc.f_full = f_full
    desc.e = e
    desc.f = f
    desc.e_rel = e_full // e
    desc.n_primes = n_primes
    desc.degree_full = phi_n
    desc.degree = phi_n // len(H)
    desc.factor = chosen_factor
    desc.involution_type = involution_type
    desc.subgroup_L = HL
    desc.two_e_ok = 2 * e < ell - 1
    desc.ring = CycloRing(n)
    # one exponent from each nontrivial coset of the units modulo H: the
    # product of these conjugates of an element of K with it is its norm
    desc.conjugates = tuple(sorted({min((t * h) % n for h in H) for t in units} - {1})) \
        if n > 1 else ()
    desc.engine = LambdaEngine(n, ell, chosen_factor)
    assert desc.engine.e_full == e_full and desc.engine.f_full == f_full
    _build_theta(desc)

    # residue fields: big = completion residue field, small = residue field of K
    desc.residue_field_big = ResidueField(ell, chosen_factor)
    if f == f_full:
        desc.residue_field = desc.residue_field_big
        desc._embed_rows = None
    else:
        _build_residue_subfield(desc)

    _certify_uniformizer(desc)
    return desc


def _period(ring, subgroup, j: int):
    """The Gaussian period eta_j, the sum of zeta_n^(j h) over the subgroup,
    on the power basis of zeta_n."""
    acc = ring.zero
    for h in subgroup:
        acc = ring.add(acc, ring.zeta_power(j * h))
    return acc


def _primitive_period(ring, subgroup, cosets):
    """The least j >= 1 whose period eta_j has distinct conjugates eta_(j t),
    t in cosets (one unit from each coset of the subgroup), so that it
    generates the fixed field; None when no period does."""
    for j in range(1, ring.n):
        if len({_period(ring, subgroup, j * t) for t in cosets}) == len(cosets):
            return j
    return None


def _left_inverse(vectors):
    """(R, B, D) for d independent integer vectors, the columns of a matrix
    M: R the first d rows of M that are independent, and B / D = M_R^-1 with
    B an integer matrix and D > 0 the least common denominator.  None when
    the vectors are dependent.  Fraction-free Gauss-Jordan on M^T next to
    the identity: the row operations E bring M^T to a form whose columns R
    are diagonal, p_r in row r, so E = diag(p) (M_R^T)^-1."""
    d, width = len(vectors), len(vectors[0])
    rows = [list(v) + [int(i == k) for k in range(d)] for i, v in enumerate(vectors)]
    pivots = []
    for c in range(width):
        r0 = len(pivots)
        p = next((r for r in range(r0, d) if rows[r][c]), None)
        if p is None:
            continue
        rows[r0], rows[p] = rows[p], rows[r0]
        piv = rows[r0]
        for r in range(d):
            x = rows[r][c]
            if r != r0 and x:
                g = math.gcd(piv[c], x)
                a, b = piv[c] // g, x // g
                row = [a * y - b * z for y, z in zip(rows[r], piv)]
                g = math.gcd(*row)
                rows[r] = [y // g for y in row]
        pivots.append(c)
        if len(pivots) == d:
            break
    else:
        return None
    den = math.lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    # B = E^T diag(p)^-1 over den, E the last d columns
    b = [[rows[r][width + j] * (den // rows[r][c]) for r, c in enumerate(pivots)]
         for j in range(d)]
    g = math.gcd(den, *(x for row in b for x in row))
    return pivots, [[x // g for x in row] for row in b], den // g


def _build_theta(desc: FieldDescriptor):
    """The arithmetic of K on the power basis of a primitive integral
    element theta.

    theta is the first Gaussian period eta_j (j = 1, 2, ...) whose d = [K:Q]
    conjugates eta_(j t), one t per coset of the subgroup, are distinct;
    eta_1 can fail (it is 0 for n = 8, H = {1, 5}), and every subgroup of
    the units modulo any n <= MAX_CONDUCTOR has such a period.  With M the
    power-basis matrix of 1, theta, ..., theta^(d-1) and R the first d
    independent rows of M, an element w of Q(zeta_n) has coordinates
    B w_R / D on the basis of theta, B / D = M_R^-1, and lies in K iff M
    maps them back to w.  theta^d read off the same way gives the minimal
    polynomial f of theta, and sigma_t(theta^j) the Galois tables of kring
    (built on first use).  When the subgroup is trivial, theta = zeta_n and
    kring, kengine are ring and engine themselves."""
    ring, n, H, d = desc.ring, desc.n, desc.subgroup, desc.degree
    if len(H) == 1:
        desc.kring, desc.kengine = ring, desc.engine
        desc._theta_powers = desc._to_theta = None
        return
    j = _primitive_period(ring, H, (1,) + desc.conjugates)
    if j is None:
        raise InternalInconsistency("no Gaussian period generates the field")
    theta = _period(ring, H, j)
    powers = [ring.one]
    for _ in range(d):
        powers.append(ring.mul(powers[-1], theta))
    inverse = _left_inverse(powers[:d])
    if inverse is None:
        raise InternalInconsistency("the powers of theta do not span the field")
    pivots, rows, den = inverse
    desc._theta_powers = [[(i, z) for i, z in enumerate(v) if z] for v in powers[:d]]
    desc._to_theta = [[(r, b) for r, b in zip(pivots, row) if b] for row in rows]
    desc._to_theta_den = den
    desc._off_pivot = [(i, [(j, v[i]) for j, v in enumerate(powers[:d]) if v[i]])
                       for i in range(desc.degree_full) if i not in pivots]

    top = desc._in_field(powers[d])
    if top.den != 1:
        raise InternalInconsistency("theta is not an algebraic integer")

    def sigma(t):
        images = [desc._in_field(ring.galois(p, t)) for p in powers[:d]]
        scale = math.lcm(*(x.den for x in images))
        return scale, [[c * (scale // x.den) for c in x.num] for x in images]

    desc.kring = CycloRing(n, tuple(-c for c in top.num) + (1,), sigma)
    desc.kengine = desc.engine.on_basis(powers[:d])


def _build_residue_subfield(desc: FieldDescriptor):
    """Find the fixed field of Frobenius^f inside the completion residue field."""
    ell, f, f_full = desc.ell, desc.f, desc.f_full
    big = desc.residue_field_big
    q_power = ell**f
    rows = [[0] * f_full for _ in range(f_full)]
    for c in range(f_full):
        basis_vec = [0] * f_full
        basis_vec[c] = 1
        img = big.element(basis_vec) ** q_power
        for r in range(f_full):
            rows[r][c] = img.coeffs[r]
        rows[c][c] = (rows[c][c] - 1) % ell
    kern = fp_kernel(rows, ell)
    if len(kern) != f:
        raise InternalInconsistency(
            "fixed space of the residue Frobenius has the wrong dimension")
    kern_elts = [big.element(v) for v in kern]

    # the nonzero combinations of the fixed basis; the first vector is zero
    for digits in itertools.islice(fp_vectors(ell, f), 1, None):
        theta = big.zero
        for d, w in zip(digits, kern_elts):
            if d:
                theta = theta + w * d
        powers = []
        p = big.one
        for _ in range(f + 1):
            powers.append(list(p.coeffs))
            p = p * theta
        if f_full - len(fp_kernel(powers[:f], ell)) == f:
            break
    else:
        raise InternalInconsistency("no generator found for the residue subfield")
    emb_rows = [[powers[i][r] for i in range(f)] for r in range(f_full)]
    sol = fp_solve(emb_rows, powers[f], ell)
    if sol is None:
        raise InternalInconsistency("residue subfield minimal polynomial solve failed")
    h_min = tuple((-sol[i]) % ell for i in range(f)) + (1,)
    if not fp_is_irreducible(h_min, ell):
        raise InternalInconsistency("residue subfield minimal polynomial is reducible")
    desc.residue_field = ResidueField(ell, h_min)
    desc._embed_rows = emb_rows


# ----------------------------------------------------------------------
# uniformizer certification


def _uniformizer_candidates(desc: FieldDescriptor, trace_group):
    """Yield H-fixed candidate elements, cheapest first, built on the power
    basis of zeta_n."""
    ring = desc.ring
    n, m = desc.n, desc.m
    if desc.e == 1:
        yield desc.rational(desc.ell)
        return
    # all remaining candidates need actual ramification
    base = ring.sub(ring.one, ring.zeta_power(m))
    if all((h * m) % n == m % n for h in trace_group):
        yield desc._in_field(base)
    power = base
    for s_exp in range(1, desc.e_full + 1):
        if s_exp > 1:
            power = ring.mul(power, base)
        for shift in range(min(n, 24)):
            y = ring.mul(ring.zeta_power(shift), power)
            acc = ring.zero
            for h in trace_group:
                acc = ring.add(acc, ring.galois(y, h))
            yield desc._in_field(acc)


def _first_valuation_one(desc: FieldDescriptor, candidates):
    """Certify candidates, adjusting by powers of ell when the valuation allows."""
    for x in candidates:
        if x.is_zero:
            continue
        v = x.valuation()
        if v == 1:
            yield x
        elif v != math.inf and v > 1 and (v - 1) % desc.e == 0:
            adj = x / desc.rational(desc.ell ** ((v - 1) // desc.e))
            if adj.valuation() == 1:
                yield adj


def _symmetry_broken(desc: FieldDescriptor, pi: FieldElement):
    """The symmetry contract of a uniformizer: anti-fixed under a ramified
    involution, fixed under an unramified one.  The broken half as a
    message, or None when pi keeps it."""
    if desc.involution_type == "ramified" and pi.conjugate() != -pi:
        return "ramified descriptors need an anti-fixed uniformizer (conjugate = -pi)"
    if desc.involution_type == "unramified" and pi.conjugate() != pi:
        return "unramified descriptors need a conjugation-fixed uniformizer"
    return None


def _certify_uniformizer(desc: FieldDescriptor):
    # an unramified involution searches inside L, whose traces are fixed
    group = desc.subgroup_L if desc.involution_type == "unramified" else desc.subgroup
    candidates = _first_valuation_one(desc, _uniformizer_candidates(desc, group))
    if desc.involution_type == "ramified":
        # (w - conj w) / 2 is anti-fixed, and is w when w already is
        halves = ((w - w.conjugate()) / desc.rational(2) for w in candidates)
        candidates = (x for x in halves if x.valuation() == 1)
    pi = next(candidates, None)
    if pi is None:
        raise InvalidDescriptor(
            "could not certify a uniformizer from the built-in candidate family")
    broken = _symmetry_broken(desc, pi)
    if broken:
        raise InternalInconsistency(broken)
    _set_uniformizer(desc, pi)


def _set_uniformizer(desc: FieldDescriptor, pi: FieldElement):
    desc.pi = pi
    desc._pi_powers = {0: desc.one, 1: pi}


def with_uniformizer(desc: FieldDescriptor, pi_new: FieldElement) -> FieldDescriptor:
    """Copy of the descriptor using the supplied uniformizer.

    The element must have valuation 1 and satisfy the same symmetry contract
    as the built-in one (anti-fixed for ramified involutions, fixed for
    unramified ones).  The copy compares equal to the original, so elements
    built against either interoperate.
    """
    if not isinstance(pi_new, FieldElement) or pi_new.field != desc:
        raise InvalidDescriptor("uniformizer must be an element of the same field")
    if pi_new.valuation() != 1:
        raise InvalidDescriptor(
            f"proposed uniformizer has valuation {pi_new.valuation()}, expected 1")
    broken = _symmetry_broken(desc, pi_new)
    if broken:
        raise InvalidDescriptor(broken)
    # the copy shares the tables; its one, zero and powers of pi are its own
    clone = copy.copy(desc)
    FieldDescriptor.__init__(clone)
    _set_uniformizer(clone, _make(clone, pi_new.num, pi_new.den))
    return clone

