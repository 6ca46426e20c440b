"""Full-rank lattices over the valuation ring of the chosen prime.

A lattice is the span, over the local ring O = {v >= 0}, of the columns of a
nonsingular matrix over K.  Everything reduces to a Smith normal form over
the discrete valuation ring: pivoting on entries of minimal certified
valuation keeps all transforming matrices O-invertible on the side where it
matters (column operations are always integral shears and swaps; row
operations additionally scale by units so the diagonal comes out as exact
powers of the uniformizer).

Diagonal exponents are reported in nonincreasing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg as la
from .errors import NotContained, SingularMatrix


@dataclass
class SNFResult:
    """u @ m @ v = diagonal of pi**exps (exponents nonincreasing)."""
    u: list
    u_inv: list
    v: list
    v_inv: list
    exps: list

    @property
    def rank(self):
        return len(self.exps)


def snf(m, field) -> SNFResult:
    """Smith normal form over the valuation ring; m may be rectangular.

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
    return SNFResult(u, u_inv, v, v_inv, exps)


# Passed as Lattice(..., _inverse=_ON_READ) by an operation that cannot
# supply the inverse of the basis it builds: it is then computed on first read.
_ON_READ = object()


class Lattice:
    """O-span of the columns of a nonsingular matrix over K.

    The inverse of the basis matrix, which every containment and transition
    test reads, comes from one of three places: the operation that built the
    lattice supplies it (sums, intersections, duals and scalings know it in
    closed form), the constructor computes it while checking that a caller's
    basis is nonsingular, or it is computed on the first read and kept (a
    moved lattice from apply_matrix).  No basis is inverted twice.
    """

    __hash__ = None

    def __init__(self, field, basis, *, _inverse=None):
        self.field = field
        self.basis = la.mat_copy(basis)
        self.dim = len(basis)
        if any(len(row) != self.dim for row in basis):
            raise SingularMatrix("lattice basis must be square")
        if _inverse is None:
            # a caller's basis: check nonsingularity now, keep the inverse
            _inverse = la.mat_inv(self.basis, field)
        self._inv = None if _inverse is _ON_READ else _inverse

    @property
    def inverse(self):
        """Inverse of the basis matrix (raises SingularMatrix on first read
        if a moved lattice's matrix was singular)."""
        if self._inv is None:
            self._inv = la.mat_inv(self.basis, self.field)
        return self._inv

    def transition_from(self, other: "Lattice"):
        """Matrix expressing the other basis in this one."""
        return la.mat_mul(self.inverse, other.basis)

    def contains_vector(self, vec) -> bool:
        coords = la.mat_mul(self.inverse, [[x] for x in vec])
        return all(c[0].valuation() >= 0 for c in coords)

    def contains_lattice(self, other: "Lattice") -> bool:
        c = self.transition_from(other)
        return all(x.valuation() >= 0 for row in c for x in row)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.contains_lattice(other) and other.contains_lattice(self)

    def __repr__(self):
        return f"Lattice(dim={self.dim})"


def standard_lattice(field, n: int) -> Lattice:
    return Lattice(field, la.identity(field, n), _inverse=la.identity(field, n))


def apply_matrix(m, lat: Lattice) -> Lattice:
    """The lattice m L; its inverse is computed only if something reads it."""
    return Lattice(lat.field, la.mat_mul(m, lat.basis), _inverse=_ON_READ)


def scale_lattice(x, lat: Lattice) -> Lattice:
    field = lat.field
    if x == field.zero:
        raise SingularMatrix("cannot scale a lattice by zero")
    inv = _ON_READ if lat._inv is None else la.scalar_mul(field.one / x, lat._inv)
    return Lattice(field, la.scalar_mul(x, lat.basis), _inverse=inv)


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both."""
    field = l1.field
    n = l1.dim
    if l2.dim != n:
        raise SingularMatrix("lattice sum dimension mismatch")
    joint = [r1[:] + r2[:] for r1, r2 in zip(l1.basis, l2.basis)]
    res = snf(joint, field)
    if res.rank != n:
        raise SingularMatrix("lattice sum lost rank")
    # basis u_inv diag(pi^e), so its inverse is diag(pi^-e) u
    basis = [[res.u_inv[i][j] * field.pi_power(res.exps[j]) for j in range(n)]
             for i in range(n)]
    inv = [[field.pi_power(-res.exps[i]) * x for x in res.u[i]] for i in range(n)]
    return Lattice(field, basis, _inverse=inv)


def _dot_dual(lat: Lattice, conj=None) -> Lattice:
    """Dual with respect to the standard pairing sum(conj(x_i) y_i): the
    basis is conj(B^-1)^T, whose inverse is conj(B)^T."""
    if conj is None:
        basis, inv = la.transpose(lat.inverse), la.transpose(lat.basis)
    else:
        basis = la.conj_transpose(lat.inverse, conj)
        inv = la.conj_transpose(lat.basis, conj)
    return Lattice(lat.field, basis, _inverse=inv)


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Largest lattice contained in both (dualize, add, dualize back)."""
    return _dot_dual(lattice_sum(_dot_dual(l1), _dot_dual(l2)))


def dual_lattice(lat: Lattice, gram, conj=None) -> Lattice:
    """Dual with respect to the pairing f(x, y) = conj(x)^T gram y.

    The dual consists of the vectors pairing integrally with the lattice in
    the *first* slot of f; conj is applied entrywise (None for bilinear
    pairings).  It is the standard dual of gram L.
    """
    return _dot_dual(apply_matrix(gram, lat), conj)


def quotient_length(sub: Lattice, sup: Lattice) -> int:
    """Length of sup/sub as an O-module (the valuation of the index)."""
    c = sup.transition_from(sub)
    for row in c:
        for x in row:
            if x.valuation() < 0:
                raise NotContained("claimed sublattice is not contained in the superlattice")
    d = la.det(c, sup.field)
    vd = d.valuation()
    if vd == math.inf:
        raise SingularMatrix("degenerate sublattice")
    return vd


def quotient_invariants(sub: Lattice, sup: Lattice) -> list:
    """Elementary divisor exponents of sup/sub, nonincreasing."""
    c = sup.transition_from(sub)
    for row in c:
        for x in row:
            if x.valuation() < 0:
                raise NotContained("claimed sublattice is not contained in the superlattice")
    return snf(c, sup.field).exps


def stabilize(lat: Lattice, mats) -> Lattice:
    """Smallest lattice containing lat stable under all the matrices.

    The matrices must generate a finite group (otherwise this never
    terminates; callers bound group order before getting here).  The sum
    with a moved lattice is formed only when it is strictly larger.
    """
    field = lat.field
    if any(la.det(m, field) == field.zero for m in mats):
        raise SingularMatrix("cannot stabilize under a singular matrix")
    cur = lat
    changed = True
    while changed:
        changed = False
        for m in mats:
            moved = apply_matrix(m, cur)
            if not cur.contains_lattice(moved):
                cur = lattice_sum(cur, moved)
                changed = True
    return cur


def is_stable(lat: Lattice, mats) -> bool:
    """Whether m L = L for every matrix m.

    With T = B^-1 m B, m L <= L iff T is integral, and then L <= m L iff
    v(det T) = 0.  det T = det m, so one determinant per matrix also rules
    out singular matrices.
    """
    field = lat.field
    for m in mats:
        d = la.det(m, field)
        if d == field.zero:
            raise SingularMatrix("a singular matrix moves no lattice onto itself")
        if d.valuation() != 0:
            return False
        t = lat.transition_from(apply_matrix(m, lat))
        if any(x.valuation() < 0 for row in t for x in row):
            return False
    return True
