"""Exact linear algebra over any field whose elements overload arithmetic.

Matrices are plain lists of lists.  The `field` argument is any object with
`.zero` and `.one` attributes producing elements that support +, -, *, /, ==
and inverse() (both number-field elements and residue-field elements qualify).  Nothing
here is numerical: pivots are exact equality tests against field.zero.

Products, characteristic polynomials and determinants run on one integer
form of a matrix: each row over its least common denominator, as a pair
(d, w) with w the row's integer coordinate tuples, which the entries'
field (FieldDescriptor or ResidueField, where d = 1) returns from
`integer_rows`.  The field also supplies `int_mat_mul`, the product of
such tuples, `from_integer`, the element w / d, and `integer_one`; this
module builds products and charpoly from those four.  Elimination (_rref,
under solve, mat_inv and kernel_basis) runs on the field's two private row
operations, `_scale_row` and `_axpy_row`.  mat_mul puts the rows of
one factor and the columns of the other over their own denominators and
brings each output entry to lowest terms once, charpoly puts the whole
matrix over one denominator, and det is charpoly's constant term.
int_mat_mul is `_prepared_mul` on operands `_prepare`d for it (an int per
entry in degree 1, else its nonzero coordinates); charpoly calls the two
itself, so each entry it multiplies by many times is prepared once.
Containment tests (lattice.Lattice) multiply the same integer forms and
build no element.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatch, SingularMatrix


def mat_copy(a):
    return [row[:] for row in a]


def identity(field, n: int):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zeros(field, r: int, c: int):
    z = field.zero
    return [[z for _ in range(c)] for _ in range(r)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_sub(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise DimensionMismatch("matrix subtraction shape mismatch")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def integer_matrix(field, m):
    """(d, w) with m = w / d: d the least common denominator of every entry
    of m and w the entries' integer coordinate tuples over it."""
    rows = field.integer_rows(m)
    d = math.lcm(*(rd for rd, _ in rows))
    return d, [w if rd == d else [tuple(c * (d // rd) for c in x) for x in w]
               for rd, w in rows]


def mat_mul(a, b):
    """a @ b on integer coordinates: the rows of a and the columns of b come
    from the field's integer_rows and are multiplied by _int_product.
    Raises DimensionMismatch on mismatched shapes, and the field's own error
    unless every entry is one of its elements."""
    if a and len(a[0]) != len(b):
        raise DimensionMismatch(
            f"matrix product shape mismatch: {len(a)}x{len(a[0])} by "
            f"{len(b)}x{len(b[0]) if b else 0}")
    if not a or not b:
        return [[] for _ in a]
    field = a[0][0].field
    rows = field.integer_rows(a)
    cols = field.integer_rows(list(zip(*b)))
    return _int_product(field, [d for d, _ in rows], [w for _, w in rows],
                        [d for d, _ in cols], list(zip(*(w for _, w in cols))))


def _int_product(field, rds, a, cds, b):
    """diag(rds)^-1 A B diag(cds)^-1 for integer matrices A and B, each entry
    in lowest terms once; shapes and descriptors are the caller's to check."""
    from_integer = field.from_integer
    return [[from_integer(v, rd * cd) for v, cd in zip(prow, cds)]
            for prow, rd in zip(field.int_mat_mul(a, b), rds)]


def scalar_mul(c, a):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def block_diag(field, blocks):
    total = sum(len(b) for b in blocks)
    out = zeros(field, total, total)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def conj_transpose(a, conj=None):
    """conj(a)^T for the entrywise involution conj; the transpose when conj
    is None (bilinear kinds)."""
    return transpose(a) if conj is None else [[conj(x) for x in col] for col in zip(*a)]


def _rref(m, field, ncols: int) -> list[int]:
    """Gauss-Jordan reduction of m in place over its first ncols columns.

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
        m[r] = field._scale_row(m[r][c].inverse(), m[r])
        for i in range(nr):
            if i != r and m[i][c] != z:
                m[i] = field._axpy_row(m[i], -m[i][c], m[r])
        pivots.append(c)
        r += 1
    return pivots


def solve(a, b, field):
    """X with a @ X = b (a square); raises SingularMatrix when singular."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve needs a square system")
    m = [ra[:] + rb[:] for ra, rb in zip(a, b)]
    if _rref(m, field, n) != list(range(n)):
        raise SingularMatrix("coefficient matrix is singular")
    return [row[n:] for row in m]


def mat_inv(a, field):
    return solve(a, identity(field, len(a)), field)


def det(a, field):
    """(-1)^n times the constant term of charpoly(a): nothing is inverted."""
    c0 = charpoly(a, field)[0]
    return -c0 if len(a) % 2 else c0


def kernel_basis(a, field):
    """Basis of the right kernel of a (possibly rectangular) matrix."""
    if not a:
        return []
    z = field.zero
    nc = len(a[0])
    m = mat_copy(a)
    pivots = _rref(m, field, nc)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [z] * nc
        vec[fc] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


# ----------------------------------------------------------------------
# characteristic polynomial, division free on integer coordinates


def charpoly(a, field):
    """Coefficients of det(x*I - a), low degree first, monic; length len(a) + 1.

    Berkowitz's division-free algorithm (Inform. Process. Lett. 18, 1984) on
    the field's integer coordinates: over K on a = w / d, with w in
    Z[theta] and d one common denominator (integer_matrix), and over a
    residue field on coefficients mod p.  With c_k the coefficients of
    det(y*I - w), the answer's coefficient k is c_k / d^(n-k).  Every entry
    of w is prepared for the field's products once; step t multiplies the
    row vector by the columns of the leading t x (t + 1) block, sliced from
    those, and convolves the minor's coefficients with the Toeplitz column,
    truncated to t + 2 terms.  Nothing is inverted.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    if n == 0:
        return [field.one]
    d, w = integer_matrix(field, a)
    prepare, mul = field._prepare, field._prepared_mul
    one = field.integer_one
    neg = lambda v: tuple(-c for c in v)
    sp = prepare(w)
    # coefficients of the leading t x t minor, leading coefficient first,
    # from t = 1 on; each step multiplies them by a lower triangular
    # Toeplitz matrix, a convolution truncated to t + 2 terms
    poly = [one, neg(w[0][0])]
    for t in range(1, n):
        # w's leading (t+1) x (t+1) block is [[sub, col], [row, w[t][t]]];
        # block holds the columns of [sub, col], sliced from sp once per t
        block = [[r[j] for r in sp[:t]] for j in range(t + 1)]
        # first Toeplitz column: 1, -w[t][t], -row col, -row sub col, ...;
        # row sub^j times block is row sub^(j+1) and row sub^j col at once
        v = sp[t][:t]
        first = [one, neg(w[t][t])]
        for _ in range(t - 1):
            out = mul([v], block)[0]
            first.append(neg(out[t]))
            v = prepare([out[:t]])[0]
        first.append(neg(mul([v], block[t:])[0][0]))
        first, poly = prepare([first, poly])
        # row i of the Toeplitz matrix, reversed, pairs with poly's first
        # i + 1 terms
        poly = [x for x, in mul([first[i::-1] for i in range(t + 2)], [poly])]
    return [field.from_integer(c, d ** k) for k, c in enumerate(poly)][::-1]
