"""Valuation axioms, the residue map, the characteristic polynomial, the
lattice laws, the scale normalization of a form on a lattice, residue-field
products, polynomial products mod p and the products of the degree-2 orders
as properties of random elements, matrices, lattices and polynomials.

Runs only where hypothesis is installed; the package itself does not
depend on it.
"""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from isodescent import linalg as la  # noqa: E402
from isodescent.exactfield import make_descriptor  # noqa: E402
from isodescent.finitefield import (  # noqa: E402
    ResidueElement,
    ResidueField,
    find_irreducible,
    fp_charpoly,
    fp_mod,
    fp_mul,
    fp_trim,
)
from isodescent.forms import GramForm, normalize_scale  # noqa: E402
from isodescent.lattice import (  # noqa: E402
    Lattice,
    lattice_intersect,
    lattice_sum,
    quotient_length,
)

from conftest import reference_mul  # noqa: E402

# (n, ell, subgroup, involution): split, inert, tamely ramified with and
# without an involution, wildly ramified, the prop6 field, and Q(sqrt 5) at
# 7, whose residue field F_49 is a proper subfield of the completion's F_7^4
FIELDS = [
    (4, 5, (1,), None), (4, 7, (1,), 3), (5, 5, (1, 4), None),
    (7, 7, (1, 2, 4), 3), (9, 3, (1,), None), (28, 7, (1, 13), None),
    (5, 7, (1, 4), None),
]

# examples per field: each field gets its own hypothesis run, so a fault
# confined to one field is found on every run, not only when a draw picks it
# (the former single runs of 100 and 30 examples averaged 14.3 and 4.3)
PROPERTY = settings(max_examples=15, deadline=None, database=None)
# each example runs several Smith forms over a field of degree up to 6
LATTICE_PROPERTY = settings(max_examples=5, deadline=None, database=None)


def each_field(prop_settings, *strategies):
    """Run the property over every field of FIELDS, one hypothesis run of
    prop_settings per field with the field index fixed."""
    def decorate(prop):
        def test():
            for i in range(len(FIELDS)):
                prop_settings(given(st.just(i), *strategies)(prop))()
        test.__name__, test.__doc__ = prop.__name__, prop.__doc__
        return test
    return decorate


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


@each_field(PROPERTY, st.data())
def test_valuation_is_additive_on_products(i, data):
    desc = descriptor(i)
    x, y = element(data, desc, False), element(data, desc, False)
    assert (x * y).valuation() == x.valuation() + y.valuation()


@each_field(PROPERTY, st.data())
def test_valuation_is_ultrametric(i, data):
    desc = descriptor(i)
    x, y = element(data, desc, False), element(data, desc, False)
    vx, vy, vsum = x.valuation(), y.valuation(), (x + y).valuation()
    assert vsum >= min(vx, vy)
    if vx != vy:
        assert vsum == min(vx, vy)


@each_field(PROPERTY, st.data())
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


@each_field(PROPERTY, st.booleans(), st.integers(0, 4), st.data())
def test_charpoly_is_a_similarity_invariant(i, residue, dim, data):
    desc = descriptor(i)
    field = desc.residue_field if residue else desc
    a = matrix(data, desc, residue, dim)
    p, p_inv = shear_pair(data, desc, residue, dim)
    assert la.mat_eq(la.mat_mul(p, p_inv), la.identity(field, dim))
    assert la.charpoly(la.mat_mul(p_inv, la.mat_mul(a, p)), field) == la.charpoly(a, field)


@each_field(PROPERTY, st.booleans(), st.integers(0, 4), st.data())
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


@each_field(PROPERTY, st.data())
def test_integrality_test_is_the_valuation_sign(i, data):
    desc = descriptor(i)
    x = element(data, desc, False)
    # a fresh copy, so no memoized valuation answers for the integer test
    assert desc.from_integer(x.num, x.den).is_integral() == (x.valuation() >= 0)


def lattice(data, desc, dim):
    basis = matrix(data, desc, False, dim)
    assume(la.det(basis, desc) != desc.zero)
    return Lattice(desc, basis)


def symmetric_gram(data, desc, dim):
    """A nonsingular symmetric matrix, for which the dual is reflexive."""
    m = matrix(data, desc, False, dim)
    gram = [[m[min(r, c)][max(r, c)] for c in range(dim)] for r in range(dim)]
    assume(la.det(gram, desc) != desc.zero)
    return gram


dims = st.integers(1, 3)


@each_field(LATTICE_PROPERTY, dims, st.data())
def test_containment_is_integrality_of_the_transition(i, dim, data):
    desc = descriptor(i)
    a = lattice(data, desc, dim)
    # the transition matrix is integral or not, and its entries sit on
    # either side of the boundary, with probability about one half
    integral = data.draw(st.booleans())
    c = [[element(data, desc, integral) for _ in range(dim)] for _ in range(dim)]
    assume(la.det(c, desc) != desc.zero)
    b = Lattice(desc, la.mat_mul(a.basis, c))
    want = all(x.valuation() >= 0 for row in a.transition_from(b) for x in row)
    assert a.contains_lattice(b) == want
    assert b.contains_lattice(a) == all(
        x.valuation() >= 0 for row in b.transition_from(a) for x in row)


@each_field(LATTICE_PROPERTY, dims, st.data())
def test_dual_of_dual_is_the_lattice(i, dim, data):
    desc = descriptor(i)
    lat = lattice(data, desc, dim)
    dual = GramForm(desc, symmetric_gram(data, desc, dim), "symmetric").dual
    assert dual(dual(lat)) == lat


@each_field(LATTICE_PROPERTY, dims, st.data())
def test_dual_of_a_sum_is_the_intersection_of_duals(i, dim, data):
    desc = descriptor(i)
    a, b = lattice(data, desc, dim), lattice(data, desc, dim)
    dual = GramForm(desc, symmetric_gram(data, desc, dim), "symmetric").dual
    assert dual(lattice_sum(a, b)) == lattice_intersect(dual(a), dual(b))


@each_field(LATTICE_PROPERTY, dims, st.data())
def test_modular_law(i, dim, data):
    desc = descriptor(i)
    l1, l2, extra = (lattice(data, desc, dim) for _ in range(3))
    l3 = lattice_sum(l1, extra)  # so l1 <= l3
    assert lattice_sum(l1, lattice_intersect(l2, l3)) == lattice_intersect(
        lattice_sum(l1, l2), l3)


@each_field(LATTICE_PROPERTY, dims, st.data())
def test_quotient_length_is_additive(i, dim, data):
    desc = descriptor(i)
    l1, b, c = (lattice(data, desc, dim) for _ in range(3))
    l2 = lattice_sum(l1, b)
    l3 = lattice_sum(l2, c)
    assert quotient_length(l1, l3) == quotient_length(l1, l2) + quotient_length(l2, l3)


# the forms normalize_scale meets: symmetric over Q and Q(i) at 5, hermitian
# over Q(sqrt -7) at the ramified 7 and over Q(i) at the inert 7
SCALE_CASES = {
    "Q5-symmetric": (1, 5, (1,), None, "symmetric"),
    "Qi5-symmetric": (4, 5, (1,), None, "symmetric"),
    "sqrt-7-hermitian": (7, 7, (1, 2, 4), 3, "hermitian"),
    "Qi7-hermitian": (4, 7, (1,), 3, "hermitian"),
}


@functools.lru_cache(maxsize=None)
def scale_descriptor(name):
    n, ell, sub, inv, _ = SCALE_CASES[name]
    return make_descriptor(n, ell, subgroup=sub, involution=inv)


def small_element(data, desc):
    """a + b t, t = orbit_sum(1) and |a|, |b| <= 2: sums of products of
    such elements often cancel, so a form can take a value of higher
    valuation on a basis vector than its terms have, and conj decides which
    vectors those are."""
    a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    return desc.rational(a) + desc.rational(b) * desc.orbit_sum(1)


def scale_case_lattice(data, desc, dim):
    """A lattice drawn as in lattice(), or one of small elements with one
    column over ell or ell^2, which then decides the least valuation."""
    if data.draw(st.booleans()):
        return lattice(data, desc, dim)
    top, power = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(1, 2))
    over = desc.rational(desc.ell ** power).inverse()
    basis = [[small_element(data, desc) * (over if c == top else desc.one) for c in range(dim)]
             for _ in range(dim)]
    assume(la.det(basis, desc) != desc.zero)
    return Lattice(desc, basis)


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
@PROPERTY
@given(st.integers(2, 3), st.data())
def test_normalize_scale_is_minus_the_least_valuation(name, dim, data):
    """normalize_scale's exponent is minus the least valuation over the
    entries of gram_in_basis(lat.basis), the form on the lattice built over
    K, and the scaled form is pi to that exponent times the input.  Each
    draw checks one form, of small or of generic entries, on three
    lattices, with ell in some basis denominators."""
    desc = scale_descriptor(name)
    kind = SCALE_CASES[name][4]
    entry = data.draw(st.sampled_from([small_element, lambda d, k: element(d, k, False)]))
    m = [[entry(data, desc) for _ in range(dim)] for _ in range(dim)]
    if kind == "symmetric":
        gram = [[m[min(r, c)][max(r, c)] for c in range(dim)] for r in range(dim)]
    else:
        gram = [[m[r][c] if r < c else m[c][r].conjugate() if r > c
                 else m[r][r] + m[r][r].conjugate() for c in range(dim)] for r in range(dim)]
    assume(la.det(gram, desc) != desc.zero)
    form = GramForm(desc, gram, kind)
    for _ in range(3):
        lat = scale_case_lattice(data, desc, dim)
        low = min(x.valuation() for row in form.gram_in_basis(lat.basis) for x in row)
        power, scaled = normalize_scale(form, lat)
        assert power == -low
        assert la.mat_eq(scaled.gram, la.scalar_mul(desc.pi_power(power), gram))


def per_term_mul(a, b, p):
    """a b mod p with every partial product reduced as it is added."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return fp_trim(out)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_fp_mul_reduces_once_per_coefficient(data):
    # primes and the prime powers ell^P that LambdaEngine multiplies modulo;
    # coefficients outside [0, p) and trailing zeros included
    p = data.draw(st.sampled_from([3, 5, 7, 971, 3 ** 64, 7 ** 12, 31 ** 20, 971 ** 40]))
    poly = st.lists(st.integers(-2 * p, 2 * p), max_size=12)
    a, b = data.draw(poly), data.draw(poly)
    assert fp_mul(a, b, p) == per_term_mul(a, b, p)


@functools.lru_cache(maxsize=None)
def residue_field(p, f):
    return ResidueField(p, find_irreducible(p, f))


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_residue_products_take_any_representative_mod_p(data):
    # linalg.charpoly passes negated coefficient tuples to the products:
    # on coefficients outside [0, p) the product is that of the reduced
    # inputs, entry by entry the sum of the polynomial products mod the
    # modulus, and ResidueElement.__mul__ agrees with it on 1x1 matrices
    p, f = data.draw(st.sampled_from([(3, 1), (971, 1), (3, 2), (7, 2), (5, 3), (971, 3)]))
    F = residue_field(p, f)
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    coeffs = st.tuples(*[st.integers(-3 * p, 3 * p)] * f)
    a = [[data.draw(coeffs) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(coeffs) for _ in range(cols)] for _ in range(inner)]

    def reduced(m):
        return [[tuple(c % p for c in v) for v in row] for row in m]

    prod = F.int_mat_mul(a, b)
    assert prod == F.int_mat_mul(reduced(a), reduced(b))
    for i in range(rows):
        for j in range(cols):
            acc = [0] * (2 * f - 1)
            for k in range(inner):
                for t, c in enumerate(fp_mul(a[i][k], b[k][j], p)):
                    acc[t] += c
            expect = fp_mod(fp_trim([c % p for c in acc]), F.modulus, p)
            assert prod[i][j] == expect + (0,) * (f - len(expect))
    x, y = a[0][0], b[0][0]
    assert (ResidueElement(F, x) * ResidueElement(F, y)).coeffs == F.int_mat_mul([[x]], [[y]])[0][0]


# every degree-2 order the library multiplies in: Z[i] and Z[zeta_3], Z[theta]
# for the periods of Q(sqrt -7) in Q(zeta_7) and of Q(sqrt 5) in Q(zeta_5),
# and the integer lifts of F_49 and F_121 (Q(i) at 7, Q(zeta_3) at 11)
DEGREE_TWO = {
    "gauss": lambda: make_descriptor(4, 5).kring,
    "eisenstein": lambda: make_descriptor(3, 7).kring,
    "sqrt-7": lambda: make_descriptor(7, 7, subgroup=(1, 2, 4)).kring,
    "sqrt5": lambda: make_descriptor(5, 5, subgroup=(1, 4)).kring,
    "F49": lambda: make_descriptor(4, 7).residue_field.ring,
    "F121": lambda: make_descriptor(3, 11).residue_field.ring,
}


@functools.lru_cache(maxsize=None)
def degree_two_ring(name):
    ring = DEGREE_TWO[name]()
    assert ring.degree == 2
    return ring


@pytest.mark.parametrize("name", sorted(DEGREE_TWO))
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_degree_two_products_are_the_convolution(name, data):
    """mul, and _prepared_mul on _prepare'd operands, against the folded
    convolution: zero coordinates, coordinates of 130 bits, and rows
    shorter than the columns they multiply, as linalg.charpoly passes
    them, where a row pairs only its own entries."""
    ring = degree_two_ring(name)
    coeff = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 130, 2 ** 130))
    vec = st.tuples(coeff, coeff)
    u, v = data.draw(vec), data.draw(vec)
    assert ring.mul(u, v) == reference_mul(ring.modulus, u, v)
    nrows, ncols, inner = (data.draw(st.integers(1, 3)) for _ in range(3))
    extra = data.draw(st.integers(0, 2))
    rows = [[data.draw(vec) for _ in range(inner)] for _ in range(nrows)]
    cols = [[data.draw(vec) for _ in range(inner + extra)] for _ in range(ncols)]
    expect = [[tuple(map(sum, zip(*(reference_mul(ring.modulus, x, y)
                                     for x, y in zip(r, c)))))
               for c in cols] for r in rows]
    assert ring._prepared_mul(ring._prepare(rows), ring._prepare(cols)) == expect
    if not extra:
        assert ring.int_mat_mul(rows, list(zip(*cols))) == expect


SHAPES = ("dense", "sparse", "zero column", "scalar", "nilpotent", "1 x 1")


@st.composite
def fq_matrices(draw, degrees):
    """(F, shape, m): a square matrix of coefficient tuples over F_q, with
    the degree f of F drawn from degrees and n <= 8, of a shape that
    reaches each branch of fp_charpoly: a dense or sparse one (pivot
    searches that swap or find nothing), one whose column c is zero below
    the subdiagonal or from it (no pivot, and a zero subdiagonal entry that
    stops the minors' products), a scalar one (already triangular), a nilpotent one (a
    strictly upper triangular matrix under a permutation similarity) and a
    1 x 1 one."""
    f = draw(st.sampled_from(degrees))
    p = draw(st.sampled_from([2, 3, 5, 7, 13] if f == 1 else [3, 5, 7]))
    shape = draw(st.sampled_from(SHAPES))
    n = 1 if shape == "1 x 1" else draw(st.integers(0, 8))
    zero, entry = (0,) * f, st.tuples(*[st.integers(0, p - 1)] * f)
    F = residue_field(p, f)
    if shape == "scalar":
        c = draw(entry)
        return F, shape, [[c if i == j else zero for j in range(n)] for i in range(n)]
    if shape == "nilpotent":
        u = [[draw(entry) if j > i else zero for j in range(n)] for i in range(n)]
        perm = draw(st.permutations(range(n)))
        return F, shape, [[u[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "sparse":
        mask = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        m = [[x if mask[i * n + j] else zero for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    if shape == "zero column" and n > 2:
        c = draw(st.integers(0, n - 3))
        for i in range(draw(st.sampled_from((c + 1, c + 2))), n):
            m[i][c] = zero
    return F, shape, m


def _check_fp_charpoly(case):
    F, shape, m = case
    expect = [c.coeffs for c in la.charpoly([[F.element(x) for x in row] for row in m], F)]
    assert fp_charpoly(m, F) == expect
    if shape == "nilpotent":
        assert expect == [F.zero.coeffs] * len(m) + [F.one.coeffs]


@settings(max_examples=300, deadline=None, database=None)
@given(fq_matrices((1,)))
def test_fp_charpoly_is_berkowitz_over_the_prime_field(case):
    _check_fp_charpoly(case)


@settings(max_examples=200, deadline=None, database=None)
@given(fq_matrices((2, 3)))
def test_fp_charpoly_is_berkowitz_over_extension_fields(case):
    # Hessenberg over F_q, f >= 2, on ResidueElements: the same code as
    # over F_p, against Berkowitz on the field's integer lift
    _check_fp_charpoly(case)


SERIALIZED_FIELDS = {"q8": (4, 5, (1,), None), "z4": (4, 7, (1,), 3),
                     "remark4": (7, 7, (1, 2, 4), 3)}


@pytest.mark.parametrize("name", sorted(SERIALIZED_FIELDS))
def test_serialize_writes_the_fractions_of_coeffs(name):
    # the fields of the q8, z4 and remark4 bundles; remark4's K = Q(sqrt -7)
    # has power-basis coordinates other than its theta-coordinates
    n, ell, sub, inv = SERIALIZED_FIELDS[name]
    desc = make_descriptor(n, ell, subgroup=sub, involution=inv)
    coords = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=desc.degree,
                      max_size=desc.degree)

    @settings(max_examples=100, deadline=None, database=None)
    @given(coords, st.integers(1, 10 ** 4))
    def prop(w, d):
        x = desc.from_integer(w, d)
        assert x.serialize() == [str(c) for c in x.coeffs]
    prop()
