import collections
import functools
import json
import pathlib

import pytest

from isodescent import cli
from isodescent import linalg as la
from isodescent.descent import GroupRep
from isodescent.errors import SingularMatrix
from isodescent.exactfield import make_descriptor
from isodescent.forms import GramForm

BUNDLE_DIR = pathlib.Path(__file__).resolve().parent.parent / "bundles"


@pytest.fixture(autouse=True)
def reports_are_json_dumps(monkeypatch):
    """Every CLI report any test writes is checked byte for byte against
    json.dumps(report, indent=2, sort_keys=True), the text the report
    writer replaces."""
    write = cli._json_text

    def checked(obj):
        text = write(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True)
        return text
    monkeypatch.setattr(cli, "_json_text", checked)


@pytest.fixture(scope="session")
def gauss5():
    """Gaussian field, ell = 5 split."""
    return make_descriptor(4, 5)


@pytest.fixture(scope="session")
def gauss13():
    """Gaussian field, ell = 13 split."""
    return make_descriptor(4, 13)


@pytest.fixture(scope="session")
def gauss7():
    """Gaussian field with conjugation, ell = 7 inert: k = F_49."""
    return make_descriptor(4, 7, involution=3)


@pytest.fixture(scope="session")
def real5():
    """Real quintic subfield, ell = 5 totally ramified: 2e = ell - 1."""
    return make_descriptor(5, 5, subgroup=(1, 4))


@pytest.fixture(scope="session")
def quad7():
    """Ramified quadratic subfield of conductor 7 with its conjugation."""
    return make_descriptor(7, 7, subgroup=(1, 2, 4), involution=3)


@pytest.fixture(scope="session")
def rat5():
    """K = Q with ell = 5 (degenerate descriptor)."""
    return make_descriptor(1, 5)


def quaternion_rep(desc) -> GroupRep:
    """Quaternion group inside SL2 over the Gaussian field."""
    i = desc.zeta_power(1)
    z, o = desc.zero, desc.one
    form = GramForm(desc, [[z, o], [-o, z]], "alternating")
    gens = [[[z, -o], [o, z]], [[i, z], [z, -i]]]
    return GroupRep(desc, gens, form)


def rotation4_rep(desc) -> GroupRep:
    """Order-4 rotation on a hermitian line over the Gaussian field."""
    i = desc.zeta_power(1)
    form = GramForm(desc, [[desc.one]], "hermitian")
    return GroupRep(desc, [[[i]]], form)


def ramified_pair_rep(desc) -> GroupRep:
    """Two commuting order-4 rotations on a ramified hermitian 4-space.

    The second plane's gram entry is the anti-fixed square root carried by
    the quadratic field, so the form is hermitian of twist zero.
    """
    sq = desc.orbit_sum(1) - desc.orbit_sum(3)
    z, o = desc.zero, desc.one
    gram = [[o, z, z, z],
            [z, o, z, z],
            [z, z, z, sq],
            [z, z, -sq, z]]
    g1 = [[z, -o, z, z],
          [o, z, z, z],
          [z, z, o, z],
          [z, z, z, o]]
    g2 = [[o, z, z, z],
          [z, o, z, z],
          [z, z, z, -o],
          [z, z, o, z]]
    form = GramForm(desc, gram, "hermitian")
    return GroupRep(desc, [g1, g2], form)


@pytest.fixture(scope="session")
def q8_rep5(gauss5):
    return quaternion_rep(gauss5)


@pytest.fixture(scope="session")
def q8_rep13(gauss13):
    return quaternion_rep(gauss13)


@pytest.fixture(scope="session")
def z4_rep7(gauss7):
    return rotation4_rep(gauss7)


@pytest.fixture(scope="session")
def remark4_rep7(quad7):
    return ramified_pair_rep(quad7)


def bundle_path(name: str) -> pathlib.Path:
    return BUNDLE_DIR / f"{name}.json"


def evaluate(form, x, y):
    """f(x, y) = sum over i, j of conj(x_i) A_ij y_j, the forms convention
    written out entry by entry rather than through matrix products."""
    conj = form.conj or (lambda v: v)
    total = form.field.zero
    for xi, row in zip(x, form.gram):
        cx = conj(xi)
        for a, yj in zip(row, y):
            total = total + cx * a * yj
    return total


def contains_vector(lat, vec) -> bool:
    """Whether the column vec lies in the lattice: B^-1 vec is integral,
    decided on the lattice's kept integer rows of B^-1 and the integer form
    of vec."""
    (d, w), = lat.field.integer_rows([vec])
    return lat._integral_on([d], [[x] for x in w])


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def random_field_element(rng, desc, integral=False, max_pi_shift=2):
    """Small random element of K as a rational combination of orbit sums.

    With integral=True the denominators stay coprime to ell and no negative
    uniformizer powers are mixed in, so the valuation is nonnegative.
    """
    x = desc.zero
    for _ in range(rng.randrange(1, 4)):
        j = rng.randrange(desc.n)
        num = rng.randint(-9, 9)
        den = rng.choice([1, 2, 3, 7, 9])
        while den % desc.ell == 0:
            den += 1
        x = x + desc.rational(f"{num}/{den}") * desc.orbit_sum(j)
    lo = 0 if integral else -max_pi_shift
    return x * desc.pi_power(rng.randint(lo, max_pi_shift))


def power_numerator(x):
    """x * den on the power basis of zeta_n, for x = num / den: integer
    coordinates read through the boundary (FieldElement.coeffs), whatever
    basis num is held on."""
    w = [c * x.den for c in x.coeffs]
    assert all(c.denominator == 1 for c in w)
    return tuple(c.numerator for c in w)


def random_invertible(rng, desc, n, entry_fn=None):
    """Random matrix over K with nonzero determinant (retried until one)."""
    while True:
        m = [[entry_fn(rng, desc) if entry_fn else
              random_field_element(rng, desc)
              for _ in range(n)] for _ in range(n)]
        if la.det(m, desc) != desc.zero:
            return m


def assert_matrix_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert list(ra) == list(rb)


# u @ m @ v = diag(pi**exps), with u_inv and v_inv the inverses of u and v
ReferenceSNF = collections.namedtuple("ReferenceSNF", "u u_inv v v_inv exps")


def reference_snf(m, field) -> ReferenceSNF:
    """Smith normal form over the valuation ring with both transforms, one
    elementary operation at a time; m may be rectangular.  The reference for
    the row side that lattice.snf computes and for the adapted bases that
    descend reads off that row side.

    Entries may have negative valuation (the algorithm works over K); the
    invariant u @ m @ v = diag(pi**exps) always holds with v and v_inv
    integral and u, u_inv products of unit row scalings and integral shears.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    cur = la.mat_copy(m)
    u = la.identity(field, nr)
    u_inv = la.identity(field, nr)
    v = la.identity(field, nc)
    v_inv = la.identity(field, nc)
    zero = field.zero

    def row_swap(i, j):
        cur[i], cur[j] = cur[j], cur[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in cur:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def row_addmul(i, j, c):
        # row_i += c * row_j
        cur[i] = [x + c * y for x, y in zip(cur[i], cur[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] = row[j] - c * row[i]

    def col_addmul(i, j, c):
        # col_i += c * col_j
        for row in cur:
            row[i] = row[i] + c * row[j]
        for row in v:
            row[i] = row[i] + c * row[j]
        v_inv[j] = [x - c * y for x, y in zip(v_inv[j], v_inv[i])]

    def row_scale(i, c, c_back):
        cur[i] = [c * x for x in cur[i]]
        u[i] = [c * x for x in u[i]]
        for row in u_inv:
            row[i] = row[i] * c_back

    exps = []
    t = min(nr, nc)
    for k in range(t):
        best = None
        best_v = None
        for i in range(k, nr):
            for j in range(k, nc):
                x = cur[i][j]
                if x == zero:
                    continue
                vv = x.valuation()
                if best_v is None or vv < best_v:
                    best, best_v = (i, j), vv
        if best is None:
            raise SingularMatrix("matrix is rank-deficient")
        bi, bj = best
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        a = best_v
        pivot = cur[k][k]
        unit_inv = field.pi_power(a) / pivot
        unit = pivot / field.pi_power(a)
        row_scale(k, unit_inv, unit)
        pk = field.pi_power(-a)
        for i in range(k + 1, nr):
            if cur[i][k] != zero:
                f = cur[i][k] * pk
                row_addmul(i, k, -f)
        for j in range(k + 1, nc):
            if cur[k][j] != zero:
                f = cur[k][j] * pk
                col_addmul(j, k, -f)
        exps.append(a)

    # reverse so exponents come out nonincreasing
    tt = len(exps)
    if tt > 1:
        perm_r = list(range(nr))
        perm_c = list(range(nc))
        perm_r[:tt] = reversed(perm_r[:tt])
        perm_c[:tt] = reversed(perm_c[:tt])
        u[:] = [u[i] for i in perm_r]
        u_inv[:] = [[row[i] for i in perm_r] for row in u_inv]
        v[:] = [[row[j] for j in perm_c] for row in v]
        v_inv[:] = [v_inv[j] for j in perm_c]
        exps.reverse()
    return ReferenceSNF(u, u_inv, v, v_inv, exps)


# the fields the Smith form and the elimination are checked over: Q at 5,
# Q(i) at 5, Q(sqrt -7) at its ramified 7 with conjugation, the wild
# Q(zeta_9) at 3 and the prop6 field; the first three are the workloads'
SNF_FIELDS = [(1, 5, (1,), None), (4, 5, (1,), None), (7, 7, (1, 2, 4), 3),
              (9, 3, (1,), None), (28, 7, (1, 13), None)]


@functools.lru_cache(maxsize=None)
def snf_field(i):
    n, ell, sub, inv = SNF_FIELDS[i]
    return make_descriptor(n, ell, subgroup=sub, involution=inv)


def assert_carried_valuations(rows):
    """Every entry whose valuation memo is set, by the engine or by the
    ultrametric rule of the row operations, holds the engine's valuation of
    a fresh equal element."""
    for row in rows:
        for x in row:
            if x._val is not None:
                assert x._val == x.field.from_integer(x.num, x.den).valuation(), x


def reference_rref(m, field, ncols: int) -> list[int]:
    """Gauss-Jordan reduction of m in place over its first ncols columns,
    one scalar operation per entry: the reference for linalg._rref, which
    runs the same elimination on the field's row operations.

    Each pivot row is scaled to a leading one and cleared from every other
    row; returns the pivot columns in order.
    """
    z = field.zero
    nr = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != z), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.one / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != z:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def reference_mul(modulus, u, v) -> tuple[int, ...]:
    """u v in Z[x]/(f) for f = modulus, monic, low degree first: the full
    integer convolution, reduced by long division by f, one scalar
    operation per term.  The reference for CycloRing's products."""
    d = len(modulus) - 1
    conv = [0] * (2 * d - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            conv[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        for i, m in enumerate(modulus):
            conv[k - d + i] -= c * m
    assert not any(conv[d:])
    return tuple(conv[:d])
