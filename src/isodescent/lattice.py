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


class Lattice:
    """O-span of the columns of a nonsingular matrix over K."""

    __hash__ = None

    def __init__(self, field, basis):
        self.field = field
        self.basis = la.mat_copy(basis)
        self.dim = len(basis)
        if any(len(row) != self.dim for row in basis):
            raise SingularMatrix("lattice basis must be square")
        # nonsingularity check, cached for reuse
        self._basis_inv = la.mat_inv(self.basis, field)

    def transition_from(self, other: "Lattice"):
        """Matrix expressing the other basis in this one."""
        return la.mat_mul(self._basis_inv, other.basis)

    def contains_vector(self, vec) -> bool:
        coords = la.mat_mul(self._basis_inv, [[x] for x in vec])
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
    return Lattice(field, la.identity(field, n))


def apply_matrix(m, lat: Lattice) -> Lattice:
    return Lattice(lat.field, la.mat_mul(m, lat.basis))


def scale_lattice(x, lat: Lattice) -> Lattice:
    return Lattice(lat.field, la.scalar_mul(x, lat.basis))


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
    basis = [[res.u_inv[i][j] * field.pi_power(res.exps[j]) for j in range(n)]
             for i in range(n)]
    return Lattice(field, basis)


def _dot_dual(lat: Lattice) -> Lattice:
    """Dual with respect to the standard pairing sum(x_i y_i)."""
    return Lattice(lat.field, la.mat_inv(la.transpose(lat.basis), lat.field))


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Largest lattice contained in both (dualize, add, dualize back)."""
    return _dot_dual(lattice_sum(_dot_dual(l1), _dot_dual(l2)))


def dual_lattice(lat: Lattice, gram, conj=None) -> Lattice:
    """Dual with respect to the pairing f(x, y) = conj(x)^T gram y.

    The dual consists of the vectors pairing integrally with the lattice in
    the *first* slot of f; conj is applied entrywise (None for bilinear
    pairings).
    """
    field = lat.field
    prod = la.mat_mul(gram, lat.basis)
    binv = la.mat_inv(la.transpose(prod), field)
    if conj is not None:
        binv = la.mat_apply(conj, binv)
    return Lattice(field, binv)


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
    terminates; callers bound group order before getting here).
    """
    cur = lat
    changed = True
    while changed:
        changed = False
        for m in mats:
            moved = apply_matrix(m, cur)
            s = lattice_sum(cur, moved)
            if quotient_length(cur, s) != 0:
                cur = s
                changed = True
    return cur


def is_stable(lat: Lattice, mats) -> bool:
    for m in mats:
        if not (lat.contains_lattice(apply_matrix(m, lat))
                and apply_matrix(m, lat).contains_lattice(lat)):
            return False
    return True
