"""Full-rank lattices over the valuation ring of the chosen prime.

A lattice is the span, over the local ring O = {v >= 0}, of the columns of a
nonsingular matrix over K, immutable after construction.  Containment is an
integrality test: L contains L' iff the transition matrix B^-1 B' is
integral, which is read off the product of the integer rows of B^-1 and the
integer columns of B' (FieldDescriptor.integer_rows, kept by each lattice)
without building or certifying its entries; an image m L is tested the same
way (maps_into) and never built; transition_from multiplies them.  Sums,
intersections (through duals), the inclusion of a balanced lattice in its
dual and descend's adapted bases read the row side of a Smith normal form
over the discrete valuation ring: pivoting on entries of minimal certified
valuation keeps the row transform O-invertible (swaps, integral shears and
unit scalings, so the diagonal comes out as exact powers of the
uniformizer).  The column transform v (integral shears and swaps) is never
built: for a transition matrix D^-1 B, the adapted basis B v is D u_inv
diag(pi**exps).  Its row operations are the field's
(FieldDescriptor._axpy_row and _scale_row), one inverse per pivot, with
valuations carried where they are exact (_row_reduce).  Sums take the
elimination without its unit scalings: the powers of pi in them cancel
against diag(pi**exps) (_span).

Diagonal exponents are reported in nonincreasing order.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import linalg as la
from .errors import DimensionMismatch, InvalidDescriptor, NotContained, NotStable, SingularMatrix


class SNFResult:
    """Row side of a Smith normal form: u and u_inv are mutually inverse and
    integral, and for m of full row rank diag(pi**-exps) @ u @ m is integral
    with an integral right inverse (exponents nonincreasing)."""

    def __init__(self, u: list, u_inv: list, exps: list):
        self.u, self.u_inv, self.exps = u, u_inv, exps

    @property
    def rank(self):
        return len(self.exps)


def _row_reduce(m, field):
    """The elimination under snf and _span, with no unit scaling: (u0, ut0,
    pivots, their inverses, exps), ut0 being u0's inverse by columns and
    each list in snf's order; m may be rectangular.

    Entries may have negative valuation (the algorithm works over K); u0 and
    ut0 are products of swaps and integral shears.  No column operation is
    made: once the rows below pivot k are cleared, a column operation would
    change only row k, which no later pivot search reads.  Columns are still
    swapped in the working matrix, so the pivots and exps are those of the
    full form (Cohen, A Course in Computational Algebraic Number Theory, 2.4).

    Each pivot is inverted once; row i takes c = -x_ik / pivot times the
    pivot row of the working matrix, left unscaled since no later step reads
    it, and ut0's column operations are row operations of its rows.  c gets
    v(x_ik) - a when v(x_ik) is known, and the field's row operations carry
    v(c y) = v(c) + v(y) and v(x + c y) = min(v(x), v(c y)) when the two
    differ, both exact, so later pivot searches certify fewer valuations.
    A pivot carries its certified valuation a, its inverse -a.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    cur = la.mat_copy(m)  # the rows and columns from the current pivot on
    u = la.identity(field, nr)
    ut = la.identity(field, nr)  # u_inv by columns
    axpy = field._axpy_row

    # Every entry left after pivot k - 1 has valuation at least that pivot's
    # (it is x + c y with v(x), v(y) >= exps[-1] and c integral), so the
    # first entry found at that floor is the one the full scan would pick.
    pivots, pinvs, exps = [], [], []
    for k in range(min(nr, nc)):
        best = best_v = None
        floor = exps[-1] if exps else -math.inf
        for i, row in enumerate(cur):
            for j, x in enumerate(row):
                if not any(x.num):
                    continue
                vv = x.valuation()
                if best_v is None or vv < best_v:
                    best, best_v = (i, j), vv
                    if vv == floor:
                        break
            if best_v == floor:
                break
        if best is None:
            raise SingularMatrix("matrix is rank-deficient")
        bi, bj = best
        if bi:
            cur[0], cur[bi] = cur[bi], cur[0]
            u[k], u[k + bi] = u[k + bi], u[k]
            ut[k], ut[k + bi] = ut[k + bi], ut[k]
        if bj:
            for row in cur:
                row[0], row[bj] = row[bj], row[0]
        a = best_v
        pivot, *top = cur[0]
        pinv = pivot.inverse()
        rest = []
        for i, (x, *row) in enumerate(cur[1:], k + 1):
            if any(x.num):
                c = -(x * pinv)
                if x._val is not None:
                    c._val = x._val - a
                row = axpy(row, c, top)
                u[i] = axpy(u[i], c, u[k])
                ut[k] = axpy(ut[k], -c, ut[i])
            rest.append(row)
        cur = rest
        pivots.append(pivot)
        pinvs.append(pinv)
        exps.append(a)

    # reverse so exponents come out nonincreasing
    tt = len(exps)
    u[:tt], ut[:tt] = u[:tt][::-1], ut[:tt][::-1]
    return u, ut, pivots[::-1], pinvs[::-1], exps[::-1]


def snf(m, field) -> SNFResult:
    """Row side of the Smith normal form over the valuation ring; m may be
    rectangular: _row_reduce, then row k of u times the unit pi^a / pivot_k
    and column k of u_inv times its inverse, both of valuation 0, so u and
    u_inv are products of unit row scalings and integral shears."""
    u, ut, pivots, pinvs, exps = _row_reduce(m, field)
    for k, (pivot, pinv, a) in enumerate(zip(pivots, pinvs, exps)):
        s, s_back = field.pi_power(a) * pinv, pivot * field.pi_power(-a)
        s._val = s_back._val = 0
        u[k], ut[k] = field._scale_row(s, u[k]), field._scale_row(s_back, ut[k])
    return SNFResult(u, la.transpose(ut), exps)


class Lattice:
    """O-span of the columns of a nonsingular matrix over K.

    Immutable after construction, so it keeps the integer forms it builds.
    The inverse of the basis matrix, which every containment and transition
    test reads, comes from one of two places: the operation that built the
    lattice supplies it (sums, intersections, duals and scalings know it in
    closed form), or the constructor computes it while checking that a
    caller's basis is nonsingular.  No basis is inverted twice.
    """

    __hash__ = None
    _stable_under = frozenset()  # _matrix_key of each matrix stabilize proved it stable under

    def __init__(self, field, basis, *, _inverse=None):
        self.field = field
        self.basis = la.mat_copy(basis)
        self.dim = len(basis)
        if any(len(row) != self.dim for row in basis):
            raise SingularMatrix("lattice basis must be square")
        if _inverse is None:
            # a caller's basis: check nonsingularity now, keep the inverse
            _inverse = la.mat_inv(self.basis, field)
        self.inverse = _inverse

    @cached_property
    def _inverse_rows(self):
        """(d, W) with B^-1 = diag(d)^-1 W: the inverse's integer rows."""
        rows = self.field.integer_rows(self.inverse)
        return [d for d, _ in rows], [w for _, w in rows]

    @cached_property
    def _basis_columns(self):
        """(e, W) with B = W diag(e)^-1: the basis's integer columns."""
        cols = self.field.integer_rows(list(zip(*self.basis)))
        return [e for e, _ in cols], list(zip(*(w for _, w in cols)))

    def _integral_on(self, cds, w) -> bool:
        """Whether B^-1 W diag(cds)^-1 is integral, for an integer matrix W."""
        if len(w) != self.dim:
            raise DimensionMismatch(f"{len(w)} rows against a {self.dim}-dim lattice")
        rds, inv = self._inverse_rows
        integral = self.field.integral
        return all(integral(x, rd * cd)
                   for prow, rd in zip(self.field.int_mat_mul(inv, w), rds)
                   for x, cd in zip(prow, cds))

    def transition_from(self, other: "Lattice"):
        """B^-1 B', the other basis in this one, on the kept integer forms."""
        _check_peer(self.field, self.dim, other)
        return la._int_product(self.field, *self._inverse_rows, *other._basis_columns)

    def contains_lattice(self, other: "Lattice") -> bool:
        """Whether the transition matrix B^-1 B' is integral, decided on the
        two lattices' integer forms; none of its entries is built."""
        if other.field is not self.field and other.field != self.field:
            raise InvalidDescriptor("lattices over different field descriptors")
        return self._integral_on(*other._basis_columns)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.contains_lattice(other) and other.contains_lattice(self)

    def __repr__(self):
        return f"Lattice(dim={self.dim})"


def _check_peer(field, dim, lat: Lattice):
    """Refuse what linalg.mat_mul would of lat against a dim x dim matrix."""
    if lat.dim != dim:
        raise DimensionMismatch(f"a {lat.dim}-dim lattice against dimension {dim}")
    if lat.field is not field and lat.field != field:
        raise InvalidDescriptor("lattices over different field descriptors")


def standard_lattice(field, n: int) -> Lattice:
    return Lattice(field, la.identity(field, n), _inverse=la.identity(field, n))


def scale_lattice(x, lat: Lattice) -> Lattice:
    field = lat.field
    if x == field.zero:
        raise SingularMatrix("cannot scale a lattice by zero")
    inv = la.scalar_mul(field.one / x, lat.inverse)
    return Lattice(field, la.scalar_mul(x, lat.basis), _inverse=inv)


def _span(field, b1, b2) -> Lattice:
    """The lattice spanned by the columns of two n x n bases: snf's basis
    u_inv diag(pi^e), inverse diag(pi^-e) u.  snf's unit scalings cancel the
    powers of pi, so these are pivot_k times column k of u_inv and pivot_k^-1
    times row k of u from _row_reduce, the same canonical elements, with
    v(pivot_k) = e_k carried into them."""
    u, ut, pivots, pinvs, _ = _row_reduce([r1 + r2 for r1, r2 in zip(b1, b2)], field)
    scale = field._scale_row
    basis = la.transpose([scale(p, col) for p, col in zip(pivots, ut)])
    return Lattice(field, basis, _inverse=[scale(p, row) for p, row in zip(pinvs, u)])


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both."""
    if l2.dim != l1.dim:
        raise DimensionMismatch("lattice sum dimension mismatch")
    return _span(l1.field, l1.basis, l2.basis)


def _dot_dual(lat: Lattice) -> Lattice:
    """Dual with respect to the standard pairing sum(x_i y_i): the basis is
    (B^-1)^T, whose inverse is B^T."""
    basis, inv = la.transpose(lat.inverse), la.transpose(lat.basis)
    return Lattice(lat.field, basis, _inverse=inv)


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Largest lattice contained in both (dualize, add, dualize back)."""
    return _dot_dual(lattice_sum(_dot_dual(l1), _dot_dual(l2)))


def quotient_length(sub: Lattice, sup: Lattice) -> int:
    """Length of sup/sub as an O-module (the valuation of the index)."""
    if not sup.contains_lattice(sub):
        raise NotContained("claimed sublattice is not contained in the superlattice")
    vd = la.det(sup.transition_from(sub), sup.field).valuation()
    if vd == math.inf:
        raise SingularMatrix("degenerate sublattice")
    return vd


def _moved_columns(dm, lat: Lattice):
    """(e, W) with m B = W diag(e)^-1, for (d, w) = linalg.integer_matrix(m)."""
    d, w = dm
    if any(len(row) != lat.dim for row in w):
        raise DimensionMismatch(f"matrix does not act on a {lat.dim}-dim lattice")
    cds, b = lat._basis_columns
    return [d * e for e in cds], lat.field.int_mat_mul(w, b)


def maps_into(m, lat: Lattice) -> bool:
    """Whether m L <= L: the integrality of B^-1 (m B), decided on integer
    forms like Lattice.contains_lattice.  The image m L is never built."""
    return lat._integral_on(*_moved_columns(la.integer_matrix(lat.field, m), lat))


def _matrix_key(dm):
    """The value of a matrix, hashable, from (d, w) = linalg.integer_matrix(m)."""
    return dm[0], tuple(map(tuple, dm[1]))


def stabilize(lat: Lattice, mats) -> Lattice:
    """Smallest lattice containing lat stable under all the matrices.

    The matrices must generate a finite group (otherwise this never
    terminates; callers bound group order before getting here).  m L <= L
    forces v(det m) >= 0, so a determinant of negative valuation is refused
    with NotStable at once.  The moved basis m B is tested as in maps_into
    and added only when it leaves the current lattice.  The lattice returned
    records, by value, each matrix of unit determinant (the last pass found
    m L <= L and changed nothing), and is_stable on it skips those.  descend
    runs the loop (_stabilize) on a group's generators with no determinant.
    """
    field = lat.field
    vals = [la.det(m, field).valuation() for m in mats]
    if math.inf in vals:
        raise SingularMatrix("cannot stabilize under a singular matrix")
    if any(v < 0 for v in vals):
        raise NotStable("no lattice is stable under a matrix whose determinant "
                        "has negative valuation")
    return _stabilize(lat, [la.integer_matrix(field, m) for m in mats],
                      [v == 0 for v in vals])


def _stabilize(lat: Lattice, ints, units) -> Lattice:
    """stabilize's loop on the matrices' (d, w) = linalg.integer_matrix(m),
    units[i] saying whether matrix i has a determinant of valuation 0, as
    the caller certified: stabilize by one determinant each, descend by the
    closure, which proved every generator of finite order (so its
    determinant is a root of unity)."""
    field = lat.field
    cur = lat
    changed = True
    while changed:
        changed = False
        for dm in ints:
            cds, w = _moved_columns(dm, cur)
            if not cur._integral_on(cds, w):
                moved = [[field.from_integer(x, e) for x, e in zip(row, cds)] for row in w]
                cur = _span(field, cur.basis, moved)
                changed = True
    cur._stable_under = cur._stable_under.union(
        _matrix_key(dm) for dm, unit in zip(ints, units) if unit)
    return cur


def is_stable(lat: Lattice, mats) -> bool:
    """Whether m L = L for every matrix m.

    A matrix whose value stabilize recorded on this lattice is stable and
    is not checked again.  For any other, with T = B^-1 m B, m L <= L iff T
    is integral, and then L <= m L iff v(det T) = 0.  det T = det m, so one
    determinant per matrix also rules out singular matrices.
    """
    field = lat.field
    stable = lat._stable_under
    for m in mats:
        if stable and _matrix_key(la.integer_matrix(field, m)) in stable:
            continue
        d = la.det(m, field)
        if d == field.zero:
            raise SingularMatrix("a singular matrix moves no lattice onto itself")
        if d.valuation() != 0 or not maps_into(m, lat):
            return False
    return True
