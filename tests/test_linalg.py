"""Matrix products, characteristic polynomials and determinants on integer
coordinates, against references built from scalar arithmetic.

linalg runs every product on the integer rows that the entries' field
returns from integer_rows: K products on integer coordinates over a common
denominator per row and column (through CycloRing.int_mat_mul),
residue-field products on integer coefficients reduced once per entry
(ResidueField.int_mat_mul).  charpoly and det run Berkowitz's algorithm on
the same coordinates.  The references here (schoolbook sums, a Hessenberg
reduction and the Leibniz expansion) use scalar *, + and / directly and go
through no integer kernel.
"""

import itertools
import random

import pytest

from isodescent import linalg as la
from isodescent.cyclotomic import CycloRing
from isodescent.errors import InvalidDescriptor, SingularMatrix
from isodescent.exactfield import make_descriptor, with_uniformizer
from isodescent.finitefield import ResidueField, find_irreducible

from conftest import (SNF_FIELDS, assert_carried_valuations, random_field_element,
                      reference_rref, snf_field)

SHAPES = [(1, 1, 1), (2, 3, 4), (3, 1, 2), (4, 4, 4)]

K_FIELDS = {
    "Q": lambda: make_descriptor(1, 5),
    "gauss5": lambda: make_descriptor(4, 5),
    "remark4": lambda: make_descriptor(7, 7, subgroup=(1, 2, 4), involution=3),
    "prop6": lambda: make_descriptor(28, 7, subgroup=(1, 13)),
}

RESIDUE_FIELDS = {
    "F5": lambda: ResidueField(5, (0, 1)),
    "F49": lambda: ResidueField(7, find_irreducible(7, 2)),
    "F125": lambda: ResidueField(5, find_irreducible(5, 3)),
}


def schoolbook(a, b):
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def k_entry(rng, desc):
    """A random element with mixed denominators, or zero one time in three."""
    return desc.zero if rng.random() < 1 / 3 else random_field_element(rng, desc)


def residue_entry(rng, field):
    if rng.random() < 1 / 3:
        return field.zero
    return field.element([rng.randrange(field.p) for _ in range(field.degree)])


def random_matrix(entry, r, c):
    return [[entry() for _ in range(c)] for _ in range(r)]


@pytest.fixture(scope="module", params=sorted(K_FIELDS))
def kfield(request):
    return K_FIELDS[request.param]()


@pytest.fixture(scope="module", params=sorted(RESIDUE_FIELDS))
def residue_field(request):
    return RESIDUE_FIELDS[request.param]()


class TestKernels:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_number_field_matches_schoolbook(self, kfield, shape):
        rng = random.Random(f"K{kfield.n}-{shape}")
        n, k, m = shape
        for _ in range(3):
            a = random_matrix(lambda: k_entry(rng, kfield), n, k)
            b = random_matrix(lambda: k_entry(rng, kfield), k, m)
            got = la.mat_mul(a, b)
            want = schoolbook(a, b)
            assert got == want
            assert all(x.field is kfield for row in got for x in row)
            # canonical coordinates, so reports print the same digits
            assert [[x.serialize() for x in row] for row in got] == \
                [[x.serialize() for x in row] for row in want]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_residue_field_matches_schoolbook(self, residue_field, shape):
        rng = random.Random(f"F{residue_field.order}-{shape}")
        n, k, m = shape
        for _ in range(3):
            a = random_matrix(lambda: residue_entry(rng, residue_field), n, k)
            b = random_matrix(lambda: residue_entry(rng, residue_field), k, m)
            got = la.mat_mul(a, b)
            assert got == schoolbook(a, b)
            assert all(len(x.coeffs) == residue_field.degree
                       and all(0 <= c < residue_field.p for c in x.coeffs)
                       for row in got for x in row)

    def test_number_field_product_makes_no_scalar_multiplication(self, monkeypatch):
        desc = K_FIELDS["prop6"]()
        rng = random.Random("no scalar mul")
        a = random_matrix(lambda: k_entry(rng, desc), 4, 4)
        b = random_matrix(lambda: k_entry(rng, desc), 4, 4)
        calls = []
        orig = CycloRing.mul

        def counting(self, u, v):
            calls.append(1)
            return orig(self, u, v)

        monkeypatch.setattr(CycloRing, "mul", counting)
        la.mat_mul(a, b)
        assert calls == []


class TestMixedEntries:
    def test_mixed_descriptors_raise(self):
        g5, g13 = make_descriptor(4, 5), make_descriptor(4, 13)
        with pytest.raises(InvalidDescriptor):
            la.mat_mul([[g5.one]], [[g13.one]])
        with pytest.raises(InvalidDescriptor):
            la.mat_mul([[g5.one, g13.one]], [[g5.one], [g5.one]])

    def test_non_elements_raise(self):
        g5 = make_descriptor(4, 5)
        with pytest.raises(InvalidDescriptor):
            la.mat_mul([[g5.one]], [[1]])
        with pytest.raises(InvalidDescriptor):
            la.mat_mul([[g5.one]], [[g5.residue_field.one]])

    def test_clone_descriptor_entries_multiply(self):
        desc = make_descriptor(4, 5)
        clone = with_uniformizer(desc, desc.pi * desc.rational(2))
        x = clone.zeta_power(1)
        assert la.mat_mul([[desc.one]], [[x]]) == [[x]]

    def test_mixed_residue_fields_raise(self):
        f5, f7 = ResidueField(5, (0, 1)), ResidueField(7, (0, 1))
        with pytest.raises(TypeError):
            la.mat_mul([[f5.one]], [[f7.one]])
        f49 = ResidueField(7, find_irreducible(7, 2))
        with pytest.raises(TypeError):
            la.mat_mul([[f7.one, f7.one]], [[f7.one], [f49.one]])


class TestShapes:
    def test_no_entries(self):
        o = make_descriptor(4, 5).one
        assert la.mat_mul([[], []], []) == [[], []]
        assert la.mat_mul([[o], [o]], [[]]) == [[], []]


# ----------------------------------------------------------------------
# characteristic polynomial: Berkowitz on integer coordinates against the
# former Hessenberg reduction, which divided by a pivot in every column


def _hessenberg(a, field):
    z = field.zero
    h = la.mat_copy(a)
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != z), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = field.one / h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j] != z:
                f = h[i][j] * inv
                h[i] = [x - f * y for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = row[j + 1] + f * row[i]
    return h


def hessenberg_charpoly(a, field):
    n = len(a)
    z, o = field.zero, field.one
    if n == 0:
        return [o]
    h = _hessenberg(a, field)

    def pmul_x_minus(poly, c):
        # poly * (x - c)
        out = [z] + poly[:]
        for i, p in enumerate(poly):
            out[i] = out[i] - c * p
        return out

    def psub_scaled(poly, other, c):
        out = poly[:]
        for i, p in enumerate(other):
            out[i] = out[i] - c * p
        return out

    minors = [[o]]
    for k in range(1, n + 1):
        cur = pmul_x_minus(minors[k - 1], h[k - 1][k - 1])
        prod = o
        for i in range(k - 1, 0, -1):
            # product of subdiagonal entries h[i][i-1] ... h[k-1][k-2]
            prod = prod * h[i][i - 1]
            coeff = h[i - 1][k - 1] * prod
            if coeff != z:
                cur = psub_scaled(cur, minors[i - 1], coeff)
        minors.append(cur)
    return minors[n]


# (n, ell, subgroup): Q, split, ramified with a subgroup, and three subfields
# with 4-12 power-basis coordinates
CHARPOLY_K_FIELDS = [(1, 5, (1,)), (4, 5, (1,)), (7, 7, (1, 2, 4)),
                     (12, 5, (1, 11)), (20, 3, (1, 19)), (28, 7, (1, 13))]
# (p, f)
CHARPOLY_RESIDUE_FIELDS = [(5, 1), (7, 2), (3, 4), (5, 6)]


class TestCharpoly:
    @pytest.mark.parametrize("n, ell, sub", CHARPOLY_K_FIELDS)
    def test_number_field_matches_hessenberg(self, n, ell, sub):
        desc = make_descriptor(n, ell, subgroup=sub)
        rng = random.Random(f"charpoly-K{n}-{ell}")
        ell_denominators = 0
        for dim in range(7):
            for _ in range(3):
                # pi^-1 and pi^-2 put ell into the denominators
                a = random_matrix(lambda: k_entry(rng, desc), dim, dim)
                ell_denominators += any(
                    c.denominator % ell == 0 for row in a for x in row for c in x.coeffs)
                got = la.charpoly(a, desc)
                want = hessenberg_charpoly(a, desc)
                assert len(got) == dim + 1 and got[-1] == desc.one
                assert got == want
                assert [x.serialize() for x in got] == [x.serialize() for x in want]
        assert ell_denominators > 0

    @pytest.mark.parametrize("p, f", CHARPOLY_RESIDUE_FIELDS)
    def test_residue_field_matches_hessenberg(self, p, f):
        field = ResidueField(p, find_irreducible(p, f))
        rng = random.Random(f"charpoly-F{p}^{f}")
        for dim in range(7):
            for _ in range(5):
                a = random_matrix(lambda: residue_entry(rng, field), dim, dim)
                got = la.charpoly(a, field)
                assert got == hessenberg_charpoly(a, field)
                assert all(len(x.coeffs) == f and all(0 <= c < p for c in x.coeffs)
                           for x in got)

    def test_inverts_nothing(self, monkeypatch):
        desc = make_descriptor(28, 7, subgroup=(1, 13))
        rng = random.Random("charpoly without inverses")
        a = random_matrix(lambda: k_entry(rng, desc), 5, 5)
        want = hessenberg_charpoly(a, desc)

        def refuse(self, *args):
            raise AssertionError("charpoly inverted a field element")

        monkeypatch.setattr(CycloRing, "inv", refuse)
        assert la.charpoly(a, desc) == want


# ----------------------------------------------------------------------
# determinant: charpoly's constant term against the Leibniz expansion

DET_FIELDS = {
    "gauss5": lambda: make_descriptor(4, 5),
    "remark4": lambda: make_descriptor(7, 7, subgroup=(1, 2, 4)),
    "F49": lambda: ResidueField(7, find_irreducible(7, 2)),
}


def leibniz_det(a, field):
    """The sum over permutations s of sign(s) prod a[i][s(i)], by scalar *
    and +."""
    total = field.zero
    for perm in itertools.permutations(range(len(a))):
        term = field.one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("name", sorted(DET_FIELDS))
def test_det_matches_leibniz(name):
    field = DET_FIELDS[name]()
    rng = random.Random(f"det-{name}")
    make = residue_entry if isinstance(field, ResidueField) else k_entry
    entry = lambda: make(rng, field)
    singular = 0
    for n in range(5):
        for trial in range(4):
            a = random_matrix(entry, n, n)
            b = random_matrix(entry, n, n)
            if trial % 2 and n:
                # the last row a combination of the others (zero when n = 1)
                c = [entry() for _ in range(n - 1)]
                a[-1] = [sum((x * r[j] for x, r in zip(c, a)), field.zero)
                         for j in range(n)]
            got = la.det(a, field)
            assert got == leibniz_det(a, field)
            singular += got == field.zero
            assert la.det(la.mat_mul(a, b), field) == got * la.det(b, field)
    assert singular >= 8


# ----------------------------------------------------------------------
# elimination: solve, mat_inv and kernel_basis on the field's row operations
# against the same routines on reference_rref, one scalar operation per entry


def _eliminations(a, b, w, field):
    out = []
    for run in (lambda: la.solve(a, b, field), lambda: la.mat_inv(a, field)):
        try:
            out.append(run())
        except SingularMatrix:
            out.append(SingularMatrix)
    return out + [la.kernel_basis(w, field)]


ELIMINATION_FIELDS = [f"K{i}" for i in range(len(SNF_FIELDS))] + ["F5", "F49"]


@pytest.mark.parametrize("name", ELIMINATION_FIELDS)
def test_elimination_matches_the_reference(name, monkeypatch):
    on_k = name.startswith("K")
    field = snf_field(int(name[1:])) if on_k else RESIDUE_FIELDS[name]()
    rng = random.Random(f"rref-{name}")
    make = k_entry if on_k else residue_entry
    entry = lambda: make(rng, field)
    singular = 0
    for trial in range(12):
        n = rng.randint(1, 4)
        a = random_matrix(entry, n, n)
        if trial % 3 == 0:
            # the last row a multiple of the first (zero when n = 1)
            c = entry() if n > 1 else field.zero
            a[-1] = [c * x for x in a[0]]
        b = random_matrix(entry, n, 2)
        w = random_matrix(entry, rng.randint(1, 4), rng.randint(1, 5))
        if on_k and trial % 2:
            # valuations known on the way in, so the row operations carry some
            for x in [field.one, *(x for row in a + b + w for x in row)]:
                x.valuation()
        got = _eliminations(a, b, w, field)
        monkeypatch.setattr(la, "_rref", reference_rref)
        want = _eliminations(a, b, w, field)
        monkeypatch.undo()
        assert got == want
        singular += got[0] is SingularMatrix
        if on_k:
            assert_carried_valuations([row for m in got if m is not SingularMatrix for row in m])
    assert singular >= 4
