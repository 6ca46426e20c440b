"""Elements of K as integer numerators on the basis of theta over one
denominator, against the power-basis Fraction arithmetic they replaced.

The references below are the power-basis Fraction routines that CycloRing
used to run on Q(zeta_n): a schoolbook product folded by the zeta power
table, and the extended Euclid inverse modulo Phi_n in Q[x].  Neither goes
through the basis of theta, the integer numerators, the norm or the
lowest-terms bookkeeping of exactfield, so agreement checks all four: every
result is read back through the boundary (coeffs) and compared there.  Also
here: the hash contract (an element hashes like the int or Fraction it
equals, and like its clone's copy).

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import functools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isodescent.errors import InvalidDescriptor  # noqa: E402
from isodescent.exactfield import (  # noqa: E402
    FieldElement,
    make_descriptor,
    with_uniformizer,
)

# (n, ell, subgroup, involution): Q, Q(i), the n = 7 field of remark4,
# Q(zeta_20)^{(1,19)} and the degree-6 subfield of Q(zeta_28); then edge
# cases of the choice of theta: K = Q through the full subgroup mod 5, eta_1
# = 0 (n = 8, H = {1, 5}, where theta = eta_2 = 2i), and the non-squarefree
# conductors 9, 16 and 20; last, two fields where sigma_t(theta) is not in
# Z[theta], so the Galois tables carry a scale (3 and 4 for the involution),
# one with a ramified and one with an unramified involution
FIELDS = [
    (1, 5, (1,), None), (4, 7, (1,), 3), (7, 7, (1, 2, 4), 3),
    (20, 5, (1, 19), 9), (28, 7, (1, 13), 27),
    (5, 7, (1, 2, 3, 4), None), (8, 5, (1, 5), None), (9, 7, (1, 8), None),
    (16, 3, (1, 15), None), (20, 5, (1, 9), None),
    (13, 13, (1, 3, 9), 12), (20, 3, (1, 11), 19),
]

# examples per field: each field gets its own hypothesis run, so a fault
# confined to one field is found on every run
PROPERTY = settings(max_examples=30, deadline=None, database=None)


def each_field(prop):
    """Run the property over every field of FIELDS, one hypothesis run of
    PROPERTY per field with the field index fixed."""
    def test():
        for i in range(len(FIELDS)):
            PROPERTY(given(st.just(i), st.data())(prop))()
    test.__name__, test.__doc__ = prop.__name__, prop.__doc__
    return test


@functools.lru_cache(maxsize=None)
def descriptor(i):
    n, ell, sub, inv = FIELDS[i]
    return make_descriptor(n, ell, subgroup=sub, involution=inv)


# ---------------------------------------------------------------------------
# Fraction references


def _q_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_divmod(a, b):
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


def _q_ext_inverse(a, modulus):
    """Inverse of a modulo `modulus` in Q[x], by the extended Euclid algorithm."""
    r0, r1 = list(modulus), _q_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _q_divmod(r0, r1)
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


def ref_inverse(ring, u):
    co = _q_ext_inverse(list(u), [Fraction(c) for c in ring.modulus])
    return tuple(co) + (Fraction(0),) * (ring.degree - len(co))


def ref_mul(ring, u, v):
    phi = ring.degree
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
            for i, z in enumerate(ring.zeta_power(k)):
                if z:
                    out[i] += c * z
    return tuple(out)


def ref_galois(ring, u, t):
    out = [Fraction(0)] * ring.degree
    for j, c in enumerate(u):
        for i, z in enumerate(ring.zeta_power(j * t)):
            out[i] += c * z
    return tuple(out)


# ---------------------------------------------------------------------------
# strategies


def element(data, desc):
    """A combination of orbit sums with rational coefficients, times a power
    of pi, so denominators carry ell and other primes."""
    x = desc.zero
    terms = data.draw(st.lists(st.tuples(st.integers(0, desc.n - 1),
                                         st.integers(-60, 60),
                                         st.sampled_from([1, 2, 3, 6, 7, 49])),
                               min_size=0, max_size=4))
    for j, c, d in terms:
        x = x + desc.rational(Fraction(c, d)) * desc.orbit_sum(j)
    return x * desc.pi_power(data.draw(st.integers(-3, 3)))


def assert_lowest_terms(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert len(x.num) == x.field.degree
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert FieldElement(x.field, x.coeffs) == x


@each_field
def test_ring_operations_match_fractions(i, data):
    desc = descriptor(i)
    x, y = element(data, desc), element(data, desc)
    xs, ys = x.coeffs, y.coeffs
    for got, want in ((x + y, tuple(a + b for a, b in zip(xs, ys))),
                      (x - y, tuple(a - b for a, b in zip(xs, ys))),
                      (-x, tuple(-a for a in xs)),
                      (x * y, ref_mul(desc.ring, xs, ys))):
        assert got.coeffs == want
        assert_lowest_terms(got)


@each_field
def test_inverse_matches_the_euclid_inverse(i, data):
    desc = descriptor(i)
    x = element(data, desc)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert inv.coeffs == ref_inverse(desc.ring, x.coeffs)
    assert_lowest_terms(inv)
    assert x * inv == desc.one == 1
    assert (desc.one / x) == inv and (1 / x) == inv


@each_field
def test_conjugate_and_serialize_match_fractions(i, data):
    desc = descriptor(i)
    x = element(data, desc)
    assert x.serialize() == [str(c) for c in x.coeffs]
    assert FieldElement(desc, x.coeffs) == x
    assert desc.element(x.serialize()) == x
    if desc.involution is not None:
        y = x.conjugate()
        assert y.coeffs == ref_galois(desc.ring, x.coeffs, desc.involution)
        assert_lowest_terms(y)
        assert y.conjugate() == x


@pytest.mark.parametrize("i", range(len(FIELDS)))
def test_zero_has_no_inverse(i):
    desc = descriptor(i)
    with pytest.raises(ZeroDivisionError):
        desc.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        desc.one / desc.zero
    with pytest.raises(ZeroDivisionError):
        desc.zero ** -1


def test_public_constructor_takes_fractions_and_reduces():
    desc = descriptor(1)
    x = FieldElement(desc, (Fraction(2, 6), Fraction(4, 3)))
    assert (x.num, x.den) == ((1, 4), 3)
    assert x.coeffs == (Fraction(1, 3), Fraction(4, 3))
    assert FieldElement(desc, (0, 0)).den == 1
    # short vectors are zero-padded, long ones refused
    assert FieldElement(desc, ("1/2",)) == desc.rational(Fraction(1, 2))
    with pytest.raises(InvalidDescriptor):
        FieldElement(desc, (1, 2, 3))


# ---------------------------------------------------------------------------
# the hash contract: equal objects hash alike


class TestHash:
    def test_rationals_hash_like_ints_and_fractions(self):
        for i in range(len(FIELDS)):
            desc = descriptor(i)
            for q in (0, 3, -7, Fraction(1, 2), Fraction(-22, 7)):
                x = desc.rational(q)
                assert x == q and hash(x) == hash(q)
                assert x in {q} and q in {x}
                assert {x: "v"}[q] == "v"

    def test_clone_elements_hash_alike(self):
        desc = make_descriptor(4, 5)
        clone = with_uniformizer(desc, desc.pi * desc.rational(2))
        for x, y in ((desc.rational(3), clone.rational(3)),
                     (desc.zeta_power(1) / 3, clone.zeta_power(1) / 3),
                     (desc.pi, clone.element(desc.pi.serialize()))):
            assert x == y and hash(x) == hash(y)
            assert y in {x}

    def test_equal_elements_from_different_routes_hash_alike(self):
        desc = descriptor(2)
        x = desc.orbit_sum(1) / 7
        y = (desc.orbit_sum(1) * desc.orbit_sum(3)) / (desc.orbit_sum(3) * 7)
        assert x == y and hash(x) == hash(y)
        assert len({x, y, desc.rational(2), desc.one + desc.one}) == 2
