"""Exact linear algebra over any field whose elements overload arithmetic.

Matrices are plain lists of lists.  The `field` argument is any object with
`.zero` and `.one` attributes producing elements that support +, -, *, /, ==
(both number-field elements and residue-field elements qualify).  Nothing
here is numerical: pivots are exact equality tests against field.zero.

Matrix products go through the `mat_mul` of the entries' field
(FieldDescriptor or ResidueField), which works on integer coordinates and
normalizes each output entry once instead of after every scalar step.
charpoly works on those integer coordinates throughout, through the
fields' `integer_matrix`, `int_mat_mul`, `integer_one` and `from_integer`.
"""

from __future__ import annotations

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


def mat_mul(a, b):
    """a @ b by the integer kernel of the entries' field."""
    if not a:
        return []
    if len(a[0]) != len(b):
        raise DimensionMismatch(
            f"matrix product shape mismatch: {len(a)}x{len(a[0])} by "
            f"{len(b)}x{len(b[0]) if b else 0}")
    if not b:
        return [[] for _ in a]
    return a[0][0].field.mat_mul(a, b)


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


def conj_transpose(a, conj):
    return [[conj(x) for x in col] for col in zip(*a)]


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
        inv = field.one / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != z:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant needs a square matrix")
    z = field.zero
    m = mat_copy(a)
    sign = 1
    out = field.one
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != z), None)
        if piv is None:
            return z
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        out = out * pv
        inv = field.one / pv
        for r in range(col + 1, n):
            if m[r][col] != z:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out if sign == 1 else -out


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
    Z[zeta_n] and d one common denominator, and over a residue field on
    coefficients mod p.  With c_k the coefficients of det(y*I - w), the
    answer's coefficient k is c_k / d^(n-k).  Every product is one call of
    the field's int_mat_mul, the convolve-and-fold kernel of its mat_mul;
    nothing is inverted.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    if n == 0:
        return [field.one]
    d, w = field.integer_matrix(a)
    mul = field.int_mat_mul
    one = field.integer_one
    zero = (0,) * len(one)
    neg = lambda v: tuple(-c for c in v)
    # coefficients of the leading t x t minor, leading coefficient first, as
    # a column; each step multiplies it by a lower triangular Toeplitz matrix
    poly = [[one]]
    for t in range(n):
        # w's leading (t+1) x (t+1) block is [[sub, col], [row, w[t][t]]]
        row = [w[t][:t]]
        col = [[r[t]] for r in w[:t]]
        sub = [r[:t] for r in w[:t]]
        # first Toeplitz column: 1, -w[t][t], -row col, -row sub col, ...
        first = [one, neg(w[t][t])]
        for j in range(t):
            if j:
                row = mul(row, sub)
            first.append(neg(mul(row, col)[0][0]))
        toeplitz = [[first[i - j] if i >= j else zero for j in range(t + 1)]
                    for i in range(t + 2)]
        poly = mul(toeplitz, poly)
    return [field.from_integer(c[0], d ** k) for k, c in enumerate(poly)][::-1]
