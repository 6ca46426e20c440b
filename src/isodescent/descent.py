"""Reduction of a finite isometry group to odd residue characteristic.

Pipeline: make the starting lattice group-stable, rescale the form so its
value ideal on the lattice is O, then grow the lattice by the self-correcting
chain S + (pi^-1 S intersect pi S^dual) until it is balanced, meaning
pi S^dual <= S <= S^dual.  The chain ends with the row side of a Smith
normal form of that inclusion, and descend reuses it for an adapted
basis in which every group element is block lower triangular mod lambda; the
two diagonal blocks act on the two residue quotients, and their direct sum
is the reduced representation rho_bar.  Both quotients carry induced
nondegenerate forms, the blocks of the form's gram on T's adapted basis and
of pi times its gram on T*'s, reduced mod lambda on the pair balance
certified; their kinds follow the scaling-twist bookkeeping of the forms
module, and their direct sum is the reduced form f0.

The group acts on a finite orbit of row vectors, and each element is held
as the indices of its rows there (_Orbit).  The reduced action is computed
on the generators only and carried along the closure tree the same way, on
an orbit of rows in k^N; checking the group law on every other edge of the
Cayley graph makes it a homomorphism, so f0 is checked on the generators'
images and both characteristic polynomials, being class functions, once per
conjugacy class (the classes come from the Cayley table, with no field
arithmetic; over K by Newton's identities on the integer traces the
closure kept, with no matrix built, and over k by Hessenberg reduction on
the reduced rows' coefficient tuples, for every residue degree).  The
generators' action on the adapted basis and f0's two grams are reduced
straight off integer forms, entry by entry (FieldDescriptor._residue).

The reduction preserves characteristic polynomials mod lambda, and when
2e < ell - 1 it is also faithful: a finite-order lattice automorphism
congruent to the identity to square order must be the identity (the rigidity
statement, which rigidity_check certifies for one matrix).  None of this is
assumed: descend() recomputes every certificate from its own output, and a
kernel element is accepted only when the rigidity hypothesis genuinely
fails; under a valid hypothesis it is escalated as an internal
inconsistency.
"""

from __future__ import annotations

import math
import operator
from collections import Counter

from . import linalg as la
from .errors import (
    DimensionMismatch,
    GroupTooLarge,
    HypothesisViolated,
    InternalInconsistency,
    NegativeValuation,
    NotFiniteOrder,
    NotStable,
    PreconditionViolated,
)
from .finitefield import fp_charpoly
from .forms import AssembledForm, GramForm, ResidueForm, normalize_scale
from .lattice import (
    Lattice,
    SNFResult,
    _stabilize,
    is_stable,
    lattice_intersect,
    lattice_sum,
    maps_into,
    scale_lattice,
    snf,
    standard_lattice,
)

DEFAULT_GROUP_CAP = 100000
# largest dimension: with an identity gram and the generator -I over Q at
# ell = 5, the closure and descend took 0.11 s at n = 32, 0.84 s at 64 and
# 9.8 s at 128, and on the extraspecial group 2^(1+12)_+ (n = 64, 4097
# classes) 6.6 s (2-vCPU Xeon VM, Python 3.11.7)
MAX_DIM = 64
DEFAULT_ORDER_CAP = 4096


class _Orbit:
    """A finite orbit of row vectors under a list of matrices, grown on demand.

    points[p] is a canonical row vector, in the layout images returns, and
    index its inverse; images(vectors, g) returns the canonical products of
    vectors with matrix g.  act[g][p] is the index of points[p] times matrix
    g, known for the points made before the last time g was asked for, and
    extended to every point made since by one batch of images the next time
    a key reaches past it.  A matrix whose rows are points is held as its key, the tuple
    of its rows' indices.  Row i of x g is (row i of x) g, so the key of x g
    is act[g] applied to the key of x: dim table lookups, and one
    vector-matrix product per point and matrix (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 4.1).  Every orbit of a finite
    group has at most dim |G| points.
    """

    def __init__(self, images, count: int):
        self.images = images
        self.points = []
        self.index = {}
        self.act = [[] for _ in range(count)]

    def point(self, v) -> int:
        p = self.index.get(v)
        if p is None:
            p = self.index[v] = len(self.points)
            self.points.append(v)
        return p

    def times(self, key, g: int) -> tuple:
        """The key of (the matrix with this key) times matrix g."""
        a = self.act[g]
        try:
            return tuple([a[p] for p in key])
        except IndexError:
            a.extend([self.point(v) for v in self.images(self.points[len(a):], g)])
            return tuple([a[p] for p in key])

    def along_tree(self, one, links) -> list:
        """The key of every closure element, multiplied along the closure
        tree from the identity's key one: key[i] = key[parent] g for
        links[i] = (parent, g)."""
        keys = [one]
        for parent, gen in links[1:]:
            keys.append(self.times(keys[parent], gen))
        return keys

    def check_edges(self, keys, links, right):
        """Check keys[x] g == keys[x g] on every Cayley edge off the tree
        (the tree edges hold by construction).  With the identity sent to
        one, this holds exactly when the matrices form a homomorphism."""
        for x, targets in enumerate(right):
            for g, y in enumerate(targets):
                if links[y] != (x, g) and self.times(keys[x], g) != keys[y]:
                    raise InternalInconsistency(
                        f"reduced action is not a homomorphism on the Cayley edge "
                        f"from element {x} by generator {g}")


class _Elements:
    """rep.elements, a read-only sequence: element i as a matrix over K, built
    on first access and kept in rep._built.  The rep does not hold this view,
    so a rep is freed without waiting for the cycle collector."""

    def __init__(self, rep):
        self._rep = rep

    def __len__(self):
        return self._rep.order

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        i = range(len(self))[i]
        built = self._rep._built
        m = built.get(i)
        if m is None:
            m = built[i] = self._rep.element(i)
        return m


class GroupRep:
    """Finite matrix group over K preserving a fixed form.

    The closure is enumerated breadth first over products with the
    generators (identity first, generator order fixed), so the element order
    is deterministic.  Element i is keys[i], the indices of its rows in an
    orbit (_Orbit) whose points are row vectors w / d, w on integer
    coordinates in Z[theta] (FieldDescriptor.kring) and gcd(d, w) = 1,
    normalized once per point: over a field of degree 1, (d, w) with w a
    flat tuple of ints, one per entry, multiplied by a generator's columns
    on plain ints, and otherwise w a tuple of coordinate tuples;
    the keys are the seen map to an element's index.  links[i] is (parent
    index, generator index) with element i = element parent *
    generators[generator], and None for the identity, so per-element work
    can be carried along the closure tree; right[x][g] is the index of
    element x * generators[g], the right Cayley table, from which
    conjugacy_classes reads the classes and class_charpolys takes one
    charpoly per class.  traces[i] is element i's trace as (d, t), t / d
    on the coordinates of theta: read off its points when it entered the
    closure, and dim for the identity.
    A form of dimension over MAX_DIM raises DimensionMismatch before any
    other check.  Every generator is checked with form.is_isometry before
    any product is formed, so a bad input cannot blow up the enumeration
    (non-isometries need not have finite order); a product of isometries is
    an isometry, so no other element needs the check.  Exceeding the cap raises
    GroupTooLarge.  Every conjugate of the trace of a finite-order element is
    a sum of dim roots of unity, so that trace t is an algebraic integer with
    Tr_{Q(zeta_n)/Q}(t tbar) <= phi(n) dim^2; an element entering the closure
    without both proves the group infinite and raises NotFiniteOrder.  The
    orbit holds only rows of the elements met and of their products with the
    generators, so an infinite group is caught at its first bad element.
    element(i) builds element i's matrix of FieldElements from its points;
    elements is the sequence of those matrices, each built on first access.
    """

    def __init__(self, field, generators, form: GramForm, cap: int = DEFAULT_GROUP_CAP):
        if form.dim > MAX_DIM:
            raise DimensionMismatch(f"dimension {form.dim} exceeds the ceiling {MAX_DIM}")
        self.field = field
        self.form = form
        self.generators = [la.mat_copy(g) for g in generators]
        self.dim = dim = form.dim
        if form.field != field:
            raise DimensionMismatch("form and group live over different fields")
        for g in self.generators:
            if len(g) != dim or any(len(r) != dim for r in g):
                raise DimensionMismatch("generator does not match the form dimension")
        if not all(form.is_isometry(g) for g in self.generators):
            raise PreconditionViolated("a generator does not preserve the form")
        ring = field.ring
        trace_zeta = [sum(ring.zeta_power(j + i)[i] for i in range(ring.degree))
                      for j in range(ring.n)]
        prepare, mul = field._prepare, field._prepared_mul
        # each generator's (d, w), kept for descend, and its prepared columns
        self._integer_generators = [la.integer_matrix(field, g) for g in self.generators]
        gens = [(gd, prepare(zip(*gw))) for gd, gw in self._integer_generators]
        flat = self._flat = field.kring.degree == 1

        def images(vectors, g):
            gd, cols = gens[g]
            rows = ([[sum(map(operator.mul, w, c)) for c in cols] for _, w in vectors] if flat
                    else mul(prepare([w for _, w in vectors]), cols))
            out = []
            for (d, _), row in zip(vectors, rows):
                d *= gd
                if d > 1:
                    common = math.gcd(d, *(row if flat else (c for x in row for c in x)))
                    if common > 1:
                        d //= common
                        row = ([c // common for c in row] if flat else
                               [tuple(c // common for c in x) for x in row])
                out.append((d, tuple(row)))
            return out

        orbit = _Orbit(images, len(gens))
        points = orbit.points

        def finite_order_trace(key):
            rows = [points[p] for p in key]
            d = math.lcm(*(rd for rd, _ in rows))
            diag = [(w[i], d // rd) for i, (rd, w) in enumerate(rows)]
            t = ((sum(x * s for x, s in diag),) if flat else
                 tuple(sum(c) for c in zip(*([x * s for x in v] for v, s in diag))))
            # integrality is read on the power basis of zeta_n, whose
            # integer vectors are all of the integers of Q(zeta_n)
            power_basis = field.to_power_basis(t)
            if any(c % d for c in power_basis):
                return None
            nz = [(j, c // d) for j, c in enumerate(power_basis) if c]
            norm = sum(a * b * trace_zeta[(j - k) % ring.n] for j, a in nz for k, b in nz)
            return (d, t) if norm <= ring.degree * dim**2 else None

        one, zero = (1, 0) if flat else (field.integer_one, field.kring.zero)
        ident = tuple(orbit.point((1, tuple(one if i == j else zero for j in range(dim))))
                      for i in range(dim))
        keys = [ident]
        links = [None]
        traces = [(1, tuple(dim * c for c in field.integer_one))]
        right = []
        seen = {ident: 0}
        for idx, key in enumerate(keys):
            targets = []
            for g in range(len(gens)):
                product = orbit.times(key, g)
                j = seen.get(product)
                if j is None:
                    trace = finite_order_trace(product)
                    if trace is None:
                        raise NotFiniteOrder(
                            "the group is infinite: a closure element has a trace "
                            "that no element of finite order has")
                    if len(keys) >= cap:
                        raise GroupTooLarge(
                            f"group closure exceeded the cap of {cap} elements")
                    j = seen[product] = len(keys)
                    keys.append(product)
                    links.append((idx, g))
                    traces.append(trace)
                targets.append(j)
            right.append(targets)
        # the point table is all element() reads; the index and the action
        # table are dropped with the orbit
        self.points = points
        self.keys = keys
        self.links = links
        self.right = right
        self.traces = traces
        self._built = {}  # the matrices elements has built

    def element(self, i: int) -> list:
        """Element i as a new matrix of FieldElements, read off its points."""
        points, field, flat = self.points, self.field, self._flat
        return [[field.from_integer((x,) if flat else x, d) for x in w]
                for d, w in (points[p] for p in self.keys[i])]

    @property
    def elements(self) -> _Elements:
        return _Elements(self)

    @property
    def order(self) -> int:
        return len(self.links)

    def conjugacy_classes(self) -> list:
        """cls[x], the smallest index conjugate to element x, from the Cayley
        table alone.  For each generator g, left[x] = index of g x is carried
        along the tree (g x = (g parent) gen), and g x g^-1 is left[x] sent
        back through the inverse of the permutation x -> x g.  The classes
        are the orbits of these conjugations, the generators generating the
        group: each is walked breadth first from its smallest index, the
        first index that no earlier orbit reached."""
        right, order = self.right, self.order
        conjugations = []
        for g in range(len(self.generators)):
            left = [right[0][g]]
            for parent, gen in self.links[1:]:
                left.append(right[left[parent]][gen])
            times_inverse = [0] * order
            for x, targets in enumerate(right):
                times_inverse[targets[g]] = x
            conjugations.append([times_inverse[gx] for gx in left])
        cls = [None] * order
        for x in range(order):
            if cls[x] is None:
                cls[x] = x
                orbit = [x]
                for y in orbit:
                    for perm in conjugations:
                        z = perm[y]
                        if cls[z] is None:
                            cls[z] = x
                            orbit.append(z)
        return cls

    def class_charpolys(self):
        """(cls, census): cls from conjugacy_classes, and census a dict from
        each class's smallest index r, ascending, to (class size, charpoly of
        element r over K, its reduction mod lambda), which hold for the whole
        class; a finite-order element's charpoly is integral, so it reduces.

        No matrix is built.  For g = element r, the index of g^i, i <= dim,
        comes from walking g's word in the generators (read from links) i
        times through the Cayley table, and p_i = tr(g^i) is the trace the
        closure kept.  The coefficient c_k of x^(dim-k) in det(x I - g) then
        follows from Newton's identities, k c_k = -(p_k + c_1 p_(k-1) + ...
        + c_(k-1) p_1), exact in characteristic 0 (Macdonald, Symmetric
        Functions and Hall Polynomials, I.2), run on the traces' integer
        vectors: each c_k is one element of K, brought to lowest terms once.
        Classes with the same power traces p_1, ..., p_dim share the work,
        each class still getting lists of its own."""
        cls = self.conjugacy_classes()
        field, links, right, traces = self.field, self.links, self.right, self.traces
        mul = field.kring.mul
        census = {}
        by_traces = {}  # the charpolys, which the power traces determine
        for r, size in sorted(Counter(cls).items()):
            word = []
            x = r
            while links[x] is not None:
                x, g = links[x]
                word.append(g)
            word.reverse()
            p = []
            for _ in range(self.dim):
                for g in word:
                    x = right[x][g]
                p.append(traces[x])
            p = tuple(p)
            polys = by_traces.get(p)
            if polys is None:
                cp = [field.one]
                for k in range(1, self.dim + 1):
                    # the terms p_k and c_i p_(k-i) as (denominator, integer
                    # vector), summed over the lcm of their denominators
                    terms = [p[k - 1]] + [(c.den * d, mul(c.num, t))
                                          for c, (d, t) in zip(cp[1:], reversed(p[:k - 1]))]
                    den = math.lcm(*(d for d, _ in terms))
                    s = [sum(v) for v in zip(*([c * (den // d) for c in t] for d, t in terms))]
                    cp.append(field.from_integer([-c for c in s], den * k))
                cp.reverse()
                polys = by_traces[p] = cp, [c.reduce() for c in cp]
            census[r] = size, list(polys[0]), list(polys[1])
        return cls, census


class BalanceResult:
    """The balanced lattice T with its dual, the rescaled form, the scale
    exponent m applied to f (the stored form is pi^m times the input), the
    chain length j, and the row side of the Smith form of the inclusion of
    T in its dual, whose exponents (the invariants) are all 0 or 1."""

    def __init__(self, lattice: Lattice, dual: Lattice, form: GramForm, scale_power: int,
                 steps: int, inclusion: SNFResult):
        self.lattice, self.dual, self.form = lattice, dual, form
        self.scale_power, self.steps, self.inclusion = scale_power, steps, inclusion

    @property
    def invariants(self) -> list:
        return self.inclusion.exps


def balance(lat: Lattice, form: GramForm, generators=()) -> BalanceResult:
    """Grow the lattice until pi * dual <= lattice <= dual.

    The input lattice must already be stable under the given matrices (use
    stabilize() first, whose record is_stable reads); stability of every
    chain lattice is re-checked, not assumed.  Every determinant is a unit,
    so a chain lattice T needs only m T <= T, which then is m T = T.  The
    returned form is the input rescaled so its value ideal on the final
    lattice is exactly O, and keeps the returned pair as certified.

    The chain ends: every chain lattice lies between the start S and S^dual
    (integrality is checked at each step) and grows strictly (the stall
    check), so there are at most length(S^dual / S) steps.
    """
    field = lat.field
    if generators and not is_stable(lat, generators):
        raise NotStable("starting lattice is not stable under the group")
    scale_power, form = normalize_scale(form, lat)
    steps = 0
    while True:
        dual = form.dual(lat)
        if not dual.contains_lattice(lat):
            raise InternalInconsistency("scaled form is not integral on the chain lattice")
        pdual = scale_lattice(field.pi_power(1), dual)
        if lat.contains_lattice(pdual):
            break
        grown = lattice_sum(
            lat,
            lattice_intersect(scale_lattice(field.pi_power(-1), lat), pdual))
        steps += 1
        if lat.contains_lattice(grown):
            raise InternalInconsistency("balancing chain stalled before the fixpoint")
        if not all(maps_into(m, grown) for m in generators):
            raise NotStable("chain lattice lost stability; input data is inconsistent")
        lat = grown
    # the loop has just checked that dual contains lat: the transition is integral
    inclusion = snf(dual.transition_from(lat), field)
    if any(a not in (0, 1) for a in inclusion.exps):
        raise InternalInconsistency("balanced lattice has a non-binary invariant")
    # the loop has checked pi * dual <= lat <= dual on these very objects
    form._keep_balanced(lat, dual, sum(inclusion.exps))
    return BalanceResult(lat, dual, form, scale_power, steps, inclusion)


def rigidity_check(mat, lat: Lattice, max_order: int = DEFAULT_ORDER_CAP) -> dict:
    """Certify the forced-identity statement for one finite-order matrix.

    Requires: the matrix stabilizes the lattice (NotStable), has finite order
    (NotFiniteOrder), and the field satisfies 2e < ell - 1
    (HypothesisViolated).  If (M - 1)^2 lands in lambda times the lattice
    endomorphism ring the identity is forced and that is verified directly;
    disagreement would falsify the implementation, not the statement, and
    raises InternalInconsistency.  If the square condition fails the result
    simply reports that nothing is forced.  Both are maps_into tests, with no
    valuation certified: M L <= L, and pi^-1 (M - 1)^2 L <= L.
    """
    field = lat.field
    ident = la.identity(field, len(mat))
    if not maps_into(mat, lat):
        raise NotStable("matrix does not stabilize the lattice")
    power = mat
    order = 1
    while not la.mat_eq(power, ident):
        power = la.mat_mul(power, mat)
        order += 1
        if order > max_order:
            raise NotFiniteOrder(f"no power up to {max_order} equals the identity")
    if not field.two_e_ok:
        raise HypothesisViolated(
            "2e >= ell - 1: the forced-identity statement does not apply")
    am1 = la.mat_sub(mat, ident)
    square_condition = maps_into(
        la.scalar_mul(field.pi_power(-1), la.mat_mul(am1, am1)), lat)
    is_id = la.mat_eq(mat, ident)
    if square_condition and not is_id:
        raise InternalInconsistency(
            "square condition and hypothesis hold for a non-identity matrix; "
            "the input data is inconsistent")
    return {
        "order": order,
        "square_condition": square_condition,
        "is_identity_forced": square_condition,
        "is_identity": is_id,
    }


def _reduced_keys(rep, gen_bar):
    """rho_bar of every closure element as its key in an orbit of rows in
    k^N (see _Orbit), carried along the closure tree from the generators'
    images gen_bar and checked on every other Cayley edge, so the keys are
    those of a homomorphism.  Returns the orbit's points and the keys."""
    kfield = rep.field.residue_field
    mul = kfield.int_mat_mul
    gens = [la.integer_matrix(kfield, g)[1] for g in gen_bar]
    orbit = _Orbit(lambda vectors, g: [tuple(row) for row in mul(vectors, gens[g])],
                   len(gens))
    n, one, zero = rep.dim, kfield.integer_one, (0,) * kfield.degree
    ident = tuple(orbit.point(tuple(one if i == j else zero for j in range(n)))
                  for i in range(n))
    keys = orbit.along_tree(ident, rep.links)
    orbit.check_edges(keys, rep.links, rep.right)
    return orbit.points, keys


class DescentResult:
    """Everything descend() produced, with enough data to recompute every
    certificate: the balanced lattice pair in adapted bases, the reduced
    representation on all group elements (aligned with rep.elements), the
    reduced form and its two diagonal blocks, and both charpoly tables."""

    def __init__(self, descriptor, rep, group_order: int, kernel_size: int,
                 image_order: int, lattice_basis: list, dual_basis: list,
                 scale_power: int, chain_steps: int, invariant_exps: list,
                 block_dims: tuple, block_kinds: tuple, rho_bar: list, f0,
                 f0_gram: list, charpoly_table_K: list, charpoly_table_k: list,
                 certificates: dict, charpoly_classes: list, kernel_explanations: list):
        self.descriptor, self.rep, self.group_order = descriptor, rep, group_order
        self.kernel_size, self.image_order = kernel_size, image_order
        self.lattice_basis, self.dual_basis = lattice_basis, dual_basis
        self.scale_power, self.chain_steps = scale_power, chain_steps
        self.invariant_exps, self.block_dims, self.block_kinds = (
            invariant_exps, block_dims, block_kinds)
        self.rho_bar, self.f0, self.f0_gram = rho_bar, f0, f0_gram
        self.charpoly_table_K, self.charpoly_table_k = charpoly_table_K, charpoly_table_k
        self.certificates, self.charpoly_classes = certificates, charpoly_classes
        self.kernel_explanations = kernel_explanations


def _reduced_gram(form: GramForm, lat: Lattice, c) -> list:
    """The residues of c conj(X)^T A X, X the basis of lat and A the form's
    gram, on integer forms: A over one denominator, the columns of X that
    lat keeps and the involution's Galois map on their coordinates, each
    entry reduced as it stands (FieldDescriptor._residue)."""
    field = lat.field
    ring, s = field.kring, None if form.conj is None else field.involution
    ad, aw = la.integer_matrix(field, form.gram)
    cds, v = lat._basis_columns
    left = list(zip(*v)) if s is None else [[ring.galois(x, s) for x in col] for col in zip(*v)]
    g = field.int_mat_mul(left, field.int_mat_mul(aw, v))
    den = c.den * ad * (1 if s is None else ring.galois_scale(s))
    try:
        return [[field._residue(ring.mul(c.num, x), den * ci * cj) for x, cj in zip(row, cds)]
                for row, ci in zip(g, cds)]
    except NegativeValuation:
        raise NegativeValuation(
            "gram matrix has a negative-valuation entry; scale first") from None


def descend(rep: GroupRep) -> DescentResult:
    """Run the full reduction and recompute every certificate from scratch."""
    field = rep.field
    n = rep.dim

    # every generator has finite order (the closure proved it), so its
    # determinant is a root of unity, of valuation 0: no determinant is taken
    ints = rep._integer_generators
    start = _stabilize(standard_lattice(field, n), ints, [True] * len(ints))
    bal = balance(start, rep.form, generators=rep.generators)
    dual, f2, res = bal.dual, bal.form, bal.inclusion
    exps = res.exps
    w = sum(exps)
    s = n - w

    # adapted bases D u_inv and D u_inv diag(pi^exps), with inverses u D^-1
    # and diag(pi^-exps) u D^-1; u (D^-1 B) v = diag(pi^exps) makes the
    # second one B v for the column transform v that snf does not build
    basis_star = la.mat_mul(dual.basis, res.u_inv)
    star_inv = la.mat_mul(res.u, dual.inverse)
    scales = [field.pi_power(a) for a in exps]
    basis_lat = [[x * c for x, c in zip(row, scales)] for row in basis_star]
    lat_inv = [[field.pi_power(-a) * x for x in row] for a, row in zip(exps, star_inv)]
    kfield = field.residue_field
    adapted_lat = Lattice(field, basis_lat, _inverse=lat_inv)
    adapted_dual = Lattice(field, basis_star, _inverse=star_inv)
    if adapted_lat != bal.lattice or adapted_dual != dual:
        raise InternalInconsistency("adapted bases do not span the balanced pair")

    # star_inv g basis_star on integer forms: the rows of star_inv and the
    # columns of basis_star, which the adapted dual keeps, prepared once
    prepare, mul, residue = field._prepare, field._prepared_mul, field._residue
    (rds, inv_rows), (cds, basis_cols) = adapted_dual._inverse_rows, adapted_dual._basis_columns
    inv_rows, basis_cols = prepare(inv_rows), prepare(zip(*basis_cols))

    def reduced_action(dm):
        gd, gw = dm
        p = mul(prepare(mul(inv_rows, prepare(zip(*gw)))), basis_cols)
        pbar = [[residue(x, rd * gd * cd) for x, cd in zip(prow, cds)]
                for prow, rd in zip(p, rds)]
        zero = kfield.zero
        for i in range(w):
            for j in range(w, n):
                if pbar[i][j] != zero:
                    raise InternalInconsistency(
                        "reduced action is not block lower triangular")
        lower = [[pbar[w + i][w + j] for j in range(s)] for i in range(s)]
        upper = [[pbar[i][j] for j in range(w)] for i in range(w)]
        return la.block_diag(kfield, [lower, upper])

    # reduced form: first block from the lattice quotient, second (carrying
    # one extra uniformizer factor) from the dual quotient.  On the pair
    # balance certified both grams are integral (the reduction refuses any
    # entry that is not); with nothing off the blocks, ResidueForm's kind
    # check and AssembledForm's determinants on the blocks cover the whole
    # grams
    bar = _reduced_gram(f2, adapted_lat, field.one)
    tilde = _reduced_gram(f2, adapted_dual, field.pi_power(1))
    kz = kfield.zero
    for i in range(n):
        for j in range(n):
            if not ((i >= w and j >= w) or bar[i][j] == kz):
                raise InternalInconsistency("first residue gram has mass off its block")
            if not ((i < w and j < w) or tilde[i][j] == kz):
                raise InternalInconsistency("second residue gram has mass off its block")
    bar_kind, tilde_kind = f2.reduced_kind_pair()
    conj = field.residue_involution
    f0 = AssembledForm([ResidueForm(kfield, [row[w:] for row in bar[w:]], bar_kind, conj),
                        ResidueForm(kfield, [row[:w] for row in tilde[:w]], tilde_kind, conj)])

    # reduction mod pi is a ring homomorphism on integral matrices, and block
    # lower triangular matrices multiply on their diagonal blocks: once each
    # generator's action is integral and block lower triangular (checked by
    # reduced_action), rho_bar(m g) = rho_bar(m) rho_bar(g).  rho_bar is
    # carried along the tree as keys of rows in k^N and checked on every
    # other Cayley edge, so it is a homomorphism: then the generators'
    # isometries are every element's, and charpolys are class functions
    gen_bar = [reduced_action(dm) for dm in ints]
    kind_correct = all(f0.is_isometry(p) for p in gen_bar)
    points, keys = _reduced_keys(rep, gen_bar)

    kernel = [i for i, key in enumerate(keys) if key == keys[0]]
    faithful = len(kernel) == 1
    image_order = len(set(keys))
    # one ResidueElement per distinct entry and one row list per point,
    # shared by every element that has that row
    entries = {v: kfield.from_integer(v, 1) for v in {v for pt in points for v in pt}}
    rows = [[entries[v] for v in pt] for pt in points]
    rho_bar = [[rows[p] for p in key] for key in keys]

    # both charpolys once per conjugacy class, at its smallest index; over k
    # by Hessenberg reduction on the points' coefficient tuples, compared as
    # tuples with the census's reductions, and one ResidueElement list built
    # per distinct charpoly
    cls, census = rep.class_charpolys()
    cp_k = {r: tuple(fp_charpoly([points[q] for q in keys[r]], kfield)) for r in census}
    charpoly_ok = all(cp_k[r] == tuple(c.coeffs for c in red)
                      for r, (_, _, red) in census.items())
    classes = Counter()
    for r, (size, _, _) in census.items():
        classes[cp_k[r]] += size
    polys = {cp: [kfield.from_integer(c, 1) for c in cp] for cp in classes}
    charpoly_table_K = [census[c][1] for c in cls]
    charpoly_table_k = [polys[cp_k[c]] for c in cls]

    # every kernel element must be explained by a failure of the rigidity
    # hypothesis.  Each one stabilizes the lattice and has finite order (the
    # closure and reduced_action guarantee both), so with 2e < ell - 1 the
    # rigidity statement forces it to be the identity: a nontrivial kernel
    # then falsifies the implementation, as rigidity_check would report
    if field.two_e_ok and not faithful:
        raise InternalInconsistency(
            f"kernel element {kernel[1]} is not the identity although 2e < ell - 1")
    kernel_explanations = [{"element_index": idx, "explained_by": "hypothesis_failure"}
                           for idx in kernel if idx != 0]

    certificates = {
        "faithful": faithful,
        "charpoly_preserved": charpoly_ok,
        "f0_nondegenerate": f0.is_nondegenerate(),
        "kind_correct": kind_correct,
        "hypothesis_2e_lt_ell_minus_1": field.two_e_ok,
    }

    return DescentResult(
        descriptor=field,
        rep=rep,
        group_order=rep.order,
        kernel_size=len(kernel),
        image_order=image_order,
        lattice_basis=basis_lat,
        dual_basis=basis_star,
        scale_power=bal.scale_power,
        chain_steps=bal.steps,
        invariant_exps=exps,
        block_dims=f0.dims,
        block_kinds=f0.kinds,
        rho_bar=rho_bar,
        f0=f0,
        f0_gram=f0.gram,
        charpoly_table_K=charpoly_table_K,
        charpoly_table_k=charpoly_table_k,
        certificates=certificates,
        charpoly_classes=sorted(classes.items()),
        kernel_explanations=kernel_explanations,
    )
