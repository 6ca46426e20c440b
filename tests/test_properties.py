"""Valuation axioms and the residue map as properties of random elements.

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
