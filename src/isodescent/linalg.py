"""Exact linear algebra over any field whose elements overload arithmetic.

Matrices are plain lists of lists.  The `field` argument is any object with
`.zero` and `.one` attributes producing elements that support +, -, *, /, ==
(both number-field elements and residue-field elements qualify).  Nothing
here is numerical: pivots are exact equality tests against field.zero.

Matrix products go through the `mat_mul` of the entries' field
(FieldDescriptor or ResidueField), which works on integer coordinates and
normalizes each output entry once instead of after every scalar step.
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


def mat_apply(fn, a):
    return [[fn(x) for x in row] for row in a]


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
# characteristic polynomial, division-light (only by nonzero field elements)


def _hessenberg(a, field):
    z = field.zero
    h = mat_copy(a)
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


def charpoly(a, field):
    """Coefficients of det(x*I - a), low degree first, monic.

    Works over any exact field (similarity reduction to Hessenberg form, then
    the leading-minor recurrence); length is len(a) + 1.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
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
