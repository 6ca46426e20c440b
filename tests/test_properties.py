"""Valuation axioms, the residue map and the characteristic polynomial as
properties of random elements and matrices.

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isodescent import linalg as la  # noqa: E402
from isodescent.exactfield import make_descriptor  # noqa: E402

# (n, ell, subgroup, involution): split, inert, tamely ramified with and
# without an involution, wildly ramified, and the prop6 field
FIELDS = [
    (4, 5, (1,), None), (4, 7, (1,), 3), (5, 5, (1, 4), None),
    (7, 7, (1, 2, 4), 3), (9, 3, (1,), None), (28, 7, (1, 13), None),
]

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def descriptor(i):
    n, ell, sub, inv = FIELDS[i]
    return make_descriptor(n, ell, subgroup=sub, involution=inv)


def element(data, desc, integral):
    """A small combination of orbit sums, over a denominator and times a
    power of pi; integral elements have neither ell in the denominator nor
    a negative power of pi."""
    x = desc.zero
    terms = data.draw(st.lists(st.tuples(st.integers(0, desc.n - 1),
                                         st.integers(-40, 40)), min_size=1, max_size=4))
    for j, c in terms:
        x = x + desc.rational(c) * desc.orbit_sum(j)
    den = data.draw(st.sampled_from([1, 2, 4, 11, 13]))
    if not integral:
        den *= desc.ell ** data.draw(st.integers(0, 2))
    shift = data.draw(st.integers(0 if integral else -3, 4))
    return x * desc.pi_power(shift) / desc.rational(den)


fields = st.integers(0, len(FIELDS) - 1)


@PROPERTY
@given(fields, st.data())
def test_valuation_is_additive_on_products(i, data):
    desc = descriptor(i)
    x, y = element(data, desc, False), element(data, desc, False)
    assert (x * y).valuation() == x.valuation() + y.valuation()


@PROPERTY
@given(fields, st.data())
def test_valuation_is_ultrametric(i, data):
    desc = descriptor(i)
    x, y = element(data, desc, False), element(data, desc, False)
    vx, vy, vsum = x.valuation(), y.valuation(), (x + y).valuation()
    assert vsum >= min(vx, vy)
    if vx != vy:
        assert vsum == min(vx, vy)


@PROPERTY
@given(fields, st.data())
def test_reduce_is_additive_and_multiplicative(i, data):
    desc = descriptor(i)
    x, y = element(data, desc, True), element(data, desc, True)
    assert x.valuation() >= 0 and y.valuation() >= 0
    assert (x + y).reduce() == x.reduce() + y.reduce()
    assert (x * y).reduce() == x.reduce() * y.reduce()


def matrix(data, desc, residue, dim):
    """A dim x dim matrix over K (entries as in element()) or over its
    residue field (uniform coefficients)."""
    if residue:
        k = desc.residue_field
        draw = lambda: k.element(data.draw(st.lists(
            st.integers(0, k.p - 1), min_size=k.degree, max_size=k.degree)))
    else:
        draw = lambda: element(data, desc, False)
    return [[draw() for _ in range(dim)] for _ in range(dim)]


def shear_pair(data, desc, residue, dim):
    """(P, P^-1) for P a product of elementary shears, inverted shear by
    shear so that no field element is inverted."""
    field = desc.residue_field if residue else desc
    p, p_inv = la.identity(field, dim), la.identity(field, dim)
    for _ in range(data.draw(st.integers(0, 4)) if dim > 1 else 0):
        i, j = data.draw(st.permutations(range(dim)))[:2]
        c = matrix(data, desc, residue, 1)[0][0]
        e, e_inv = la.identity(field, dim), la.identity(field, dim)
        e[i][j], e_inv[i][j] = c, -c
        p, p_inv = la.mat_mul(p, e), la.mat_mul(e_inv, p_inv)
    return p, p_inv


@PROPERTY
@given(fields, st.booleans(), st.integers(0, 4), st.data())
def test_charpoly_is_a_similarity_invariant(i, residue, dim, data):
    desc = descriptor(i)
    field = desc.residue_field if residue else desc
    a = matrix(data, desc, residue, dim)
    p, p_inv = shear_pair(data, desc, residue, dim)
    assert la.mat_eq(la.mat_mul(p, p_inv), la.identity(field, dim))
    assert la.charpoly(la.mat_mul(p_inv, la.mat_mul(a, p)), field) == la.charpoly(a, field)


@PROPERTY
@given(fields, st.booleans(), st.integers(0, 4), st.data())
def test_cayley_hamilton(i, residue, dim, data):
    desc = descriptor(i)
    field = desc.residue_field if residue else desc
    a = matrix(data, desc, residue, dim)
    cp = la.charpoly(a, field)
    assert len(cp) == dim + 1 and cp[-1] == field.one
    # Horner: sum of cp[k] a^k
    acc = la.zeros(field, dim, dim)
    for c in reversed(cp):
        acc = la.mat_mul(acc, a)
        for r in range(dim):
            acc[r][r] = acc[r][r] + c
    assert all(x == field.zero for row in acc for x in row)
