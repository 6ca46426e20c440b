"""Nondegenerate sesquilinear forms over K and over residue fields.

Convention used throughout: f(x, y) = conj(x)^T A y, with the involution (if
any) applied to the first argument; bilinear kinds use no involution at all.
A matrix M is an isometry when conj(M)^T A M = A.  _Form states this once
for GramForm (over K), ResidueForm (over k) and AssembledForm (the reduced
form f0, joined from checked ResidueForms): one constructor checks what every
form needs, every form keeps `field` and `conj`, and is_nondegenerate is the
one determinant test.

Scaling bookkeeping: for a hermitian form over a ramified involution the
uniformizer is anti-fixed, so multiplying the Gram matrix by pi flips the
hermitian axiom's sign.  The `twist` field counts those flips mod 2; the
reduced-form kinds are read off it (even twist reduces the first residue
form to a symmetric one and the second to an alternating one, odd twist
swaps them, because the residue involution is trivial in the ramified case).
Unramified involutions use a conjugation-fixed uniformizer, so both reduced
forms stay hermitian, and bilinear kinds are preserved verbatim.

A GramForm keeps the integer forms of A and A^-1 for dual, and its last
certified balanced pair, keyed by lattice identity, with the reduced gram on
the lattice, and no dual: reductions certify once per (lattice, dual) per
form, so reduce_tilde after reduce_bar on the same objects, or without a
dual, checks nothing again.  balance keeps the pair it returns the same way.
Integrality is the digit test throughout.  _lattice_gram is the one form on
a lattice, on integer forms: normalize_scale reads its valuations, and
reduce_bar, reduce_tilde and descend its residues (_reduced_gram).  No CLI
path calls reduce_bar, reduce_tilde or the slot; ROADMAP item 19 retires them.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import linalg as la
from .errors import (
    CharTwo,
    DegenerateForm,
    InternalInconsistency,
    KindMismatch,
    NegativeValuation,
    NoInvolution,
    PreconditionViolated,
)
from .exactfield import FieldElement
from .lattice import Lattice, _check_peer, quotient_length, scale_lattice

KINDS = ("symmetric", "alternating", "hermitian")


def _check_shape(gram):
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise KindMismatch("gram matrix must be square")
    return n


def _kind_holds(gram, conj, skew: bool) -> bool:
    """Whether conj(A)^T equals A, or -A when skew.  Forms live in odd or
    zero characteristic, where skew symmetry forces a zero diagonal."""
    expect = [[-x for x in row] for row in gram] if skew else gram
    return la.mat_eq(la.conj_transpose(gram, conj), expect)


class _Form:
    """Conventions shared by every form class: f(x, y) = conj(x)^T A y, with
    scalars in `field`, A in `gram`, and `conj` the entrywise map applied to
    the first slot (None for bilinear kinds)."""

    def __init__(self, field, gram, kind: str, conj, twist: int = 0):
        """Check a kind tag, a square gram, an involution for the hermitian
        kind (conj is ignored for bilinear kinds) and the kind axiom: conj(A)^T
        is A, or -A for the alternating kind and an odd twist."""
        if kind not in KINDS:
            raise KindMismatch(f"unknown form kind {kind!r}")
        self.field = field
        self.gram = la.mat_copy(gram)
        self.kind = kind
        self.dim = _check_shape(gram)
        self.conj = conj if kind == "hermitian" else None
        if kind == "hermitian" and conj is None:
            raise NoInvolution("hermitian forms need an involution")
        if not _kind_holds(self.gram, self.conj, kind == "alternating" or twist):
            raise KindMismatch(
                f"gram matrix does not satisfy the {kind} axiom (twist {twist})")

    def gram_in_basis(self, b):
        """Gram matrix of the form restricted to the columns of b."""
        return la.mat_mul(la.conj_transpose(b, self.conj), la.mat_mul(self.gram, b))

    def is_isometry(self, m) -> bool:
        return la.mat_eq(self.gram_in_basis(m), self.gram)

    def is_nondegenerate(self) -> bool:
        return la.det(self.gram, self.field) != self.field.zero


class GramForm(_Form):
    """A nondegenerate form over K with an explicit kind tag."""

    def __init__(self, field, gram, kind: str, twist: int = 0, *, _nondegenerate=False):
        self.twist = twist % 2 if (
            kind == "hermitian" and field.involution_type == "ramified") else 0
        conj = None if field.involution is None else FieldElement.conjugate
        super().__init__(field, gram, kind, conj, self.twist)
        if not _nondegenerate and not self.is_nondegenerate():
            raise DegenerateForm("gram matrix is singular")
        self._balanced_slot = None

    @cached_property
    def _dual_forms(self):
        """(rds, W, cds, V) with A = diag(rds)^-1 W and A^-1 = V diag(cds)^-1."""
        rows = self.field.integer_rows(self.gram)
        cols = self.field.integer_rows(list(zip(*la.mat_inv(self.gram, self.field))))
        return ([d for d, _ in rows], [w for _, w in rows],
                [d for d, _ in cols], list(zip(*(w for _, w in cols))))

    def dual(self, lat: Lattice) -> Lattice:
        """The vectors pairing integrally with lat in the first slot, without
        inverting A B: the basis is conj(B^-1 A^-1)^T and its inverse
        conj(A B)^T, both taken on the integer forms the form and the lattice
        keep.  Each call builds a new Lattice; no dual is kept."""
        field = self.field
        _check_peer(field, self.dim, lat)
        rds, w, cds, v = self._dual_forms
        basis = la._int_product(field, *lat._inverse_rows, cds, v)
        inv = la._int_product(field, rds, w, *lat._basis_columns)
        return Lattice(field, la.conj_transpose(basis, self.conj),
                       _inverse=la.conj_transpose(inv, self.conj))

    def _keep_balanced(self, lat: Lattice, dual: Lattice, length: int):
        """Keep a pair the caller certified: dual is self.dual(lat), pi * dual
        <= lat <= dual and dual/lat has that length."""
        self._balanced_slot = (lat, dual, None, length)

    # -- scaling ----------------------------------------------------------

    def scale_by_pi_power(self, j: int) -> "GramForm":
        """pi^j times the form, its kind axiom checked with the twist moved by
        j.  No determinant is taken: det(pi^j A) = pi^(jn) det A, nonzero
        since A is."""
        scaled = la.scalar_mul(self.field.pi_power(j), self.gram)
        return GramForm(self.field, scaled, self.kind, self.twist + j, _nondegenerate=True)

    def reduced_kind_pair(self):
        """Kinds of (first, second) residue forms after reduction mod lambda.

        The second residue form carries one extra uniformizer factor, hence
        one extra twist in the ramified hermitian case.
        """
        if self.kind != "hermitian":
            return (self.kind, self.kind)
        if self.field.involution_type == "unramified":
            return ("hermitian", "hermitian")
        first = "symmetric" if self.twist == 0 else "alternating"
        second = "alternating" if self.twist == 0 else "symmetric"
        return (first, second)


def classify_gram(field, gram):
    """Best kind tag for a gram matrix, or None if no kind equation holds.

    Prefers alternating over symmetric over hermitian when several hold.
    """
    _check_shape(gram)
    if _kind_holds(gram, None, True):
        return "alternating"
    if _kind_holds(gram, None, False):
        return "symmetric"
    if field.involution is not None and _kind_holds(gram, FieldElement.conjugate, False):
        return "hermitian"
    return None


def _lattice_gram(form: GramForm, lat: Lattice, c) -> list:
    """c conj(X)^T A X, X the basis of lat and A the form's gram, on integer
    forms: A over one denominator, the columns of X that lat keeps and the
    involution's Galois map on their coordinates.  Entry (i, j) is w / d for
    the pair (w, d) there, not necessarily in lowest terms."""
    field = form.field
    _check_peer(field, form.dim, lat)
    ring, s = field.kring, None if form.conj is None else field.involution
    ad, aw = la.integer_matrix(field, form.gram)
    cds, v = lat._basis_columns
    left = list(zip(*v)) if s is None else [[ring.galois(x, s) for x in col] for col in zip(*v)]
    g = field.int_mat_mul(left, field.int_mat_mul(aw, v))
    den = c.den * ad * (1 if s is None else ring.galois_scale(s))
    return [[(ring.mul(c.num, x), den * ci * cj) for x, cj in zip(row, cds)]
            for row, ci in zip(g, cds)]


def _reduced_gram(form: GramForm, lat: Lattice, c) -> list:
    """The residues of _lattice_gram, each pair reduced as it stands
    (FieldDescriptor._residue); NegativeValuation unless all are integral."""
    residue = form.field._residue
    try:
        return [[residue(w, d) for w, d in row] for row in _lattice_gram(form, lat, c)]
    except NegativeValuation:
        raise NegativeValuation(
            "gram matrix has a negative-valuation entry; scale first") from None


def normalize_scale(form: GramForm, lat: Lattice):
    """Rescale the form so its value ideal on the lattice is exactly O.

    Returns (m, scaled form) where the scaled form is pi^m times the input:
    m is minus the minimum valuation among gram entries in the lattice basis
    (read off _lattice_gram), so the scaled gram has minimum valuation zero.
    """
    from_integer = form.field.from_integer
    low = min(from_integer(w, d).valuation()
              for row in _lattice_gram(form, lat, form.field.one) for w, d in row)
    if low == math.inf:
        raise DegenerateForm("form vanishes on the lattice")
    if low == 0:
        return 0, form
    return -low, form.scale_by_pi_power(-low)


class ResidueForm(_Form):
    """A form over a residue field, with the same conventions as GramForm."""

    def __init__(self, field, gram, kind: str, conj=None):
        if field.p == 2:
            raise CharTwo("residue forms need odd characteristic")
        super().__init__(field, gram, kind, conj)


def _reduce_side(lat: Lattice, form: GramForm, dual, side: int):
    """The body of reduce_bar (side 0) and reduce_tilde (side 1): one
    (ResidueForm, kernel) pair.

    Raises unless the lattice is balanced and the form takes integral values
    on it, not all divisible by pi (digit tests; no valuation is certified);
    the form keeps the last pair that passed, with the reduced gram on lat
    (built and checked here for a pair balance kept) and the length of
    dual/lat, and a call without a dual on that lat takes the kept one.
    Side 0 reduces the form on lat's basis, side 1 pi times the form on the
    dual's basis; each call checks its kernel dimension against that length.
    """
    field = form.field
    slot = form._balanced_slot
    if dual is None and slot is not None and slot[0] is lat:
        dual = slot[1]
    if slot is None or slot[0] is not lat or slot[1] is not dual:
        computed = form.dual(lat)
        if dual is None:
            dual = computed
        elif not (dual.contains_lattice(computed) and computed.contains_lattice(dual)):
            raise PreconditionViolated(
                "supplied dual basis does not span the dual lattice")
        pdual = scale_lattice(field.pi_power(1), dual)
        if not dual.contains_lattice(lat) or not lat.contains_lattice(pdual):
            raise PreconditionViolated(
                "lattice is not balanced against the form; run the balance chain")
        slot = (lat, dual, None, quotient_length(lat, dual))
    _, _, rg, length = slot
    if rg is None:
        try:
            rg = _reduced_gram(form, lat, field.one)
        except NegativeValuation:
            raise PreconditionViolated(
                "form is not integral on the lattice; normalize the scale first") from None
        if all(x.is_zero() for row in rg for x in row):
            raise PreconditionViolated(
                "form is not scale-normalized on the lattice (all values divisible by pi)")
        form._balanced_slot = (lat, dual, rg, length)
    if side:
        try:
            rg = _reduced_gram(form, dual, field.pi_power(1))
        except NegativeValuation:
            raise InternalInconsistency(
                "pi times the form is not integral on the dual of a balanced lattice") from None
    kind = form.reduced_kind_pair()[side]
    kfield = field.residue_field
    rform = ResidueForm(kfield, rg, kind, conj=field.residue_involution)
    kernel = la.kernel_basis(rg, kfield)
    # the first kernel is dual/lat, the second its complement
    if len(kernel) != (form.dim - length if side else length):
        raise InternalInconsistency(
            f"residue kernel {side} disagrees with the index of the lattice in its dual")
    return rform, kernel


def reduce_bar(lat: Lattice, form: GramForm, dual=None):
    """First residue form: the form itself reduced on lat mod pi.

    The form must take integral values on lat with minimum valuation zero,
    and lat must be balanced (pi*dual inside lat inside dual).  Returns
    (ResidueForm, kernel basis); the kernel dimension equals the length of
    dual/lat, and the form is nondegenerate modulo that kernel.  An optional
    precomputed dual fixes the basis used for the balance check.  The
    preconditions are certified once per (lat, dual) per form.
    """
    return _reduce_side(lat, form, dual, 0)


def reduce_tilde(lat: Lattice, form: GramForm, dual=None):
    """Second residue form: pi times the form, reduced on the dual mod pi.

    Preconditions as in reduce_bar, and not checked again after it on the
    same objects.  Returns (ResidueForm, kernel basis) on the dual lattice's
    coordinates; the kernel dimension is complementary to reduce_bar's, and
    the form is nondegenerate modulo the kernel.
    """
    return _reduce_side(lat, form, dual, 1)


class AssembledForm(_Form):
    """Block-diagonal residue form joined from nondegenerate residue parts.

    In descend the first block is the nondegenerate part of the first
    reduction, the second that of the pi-scaled one.  Kinds must agree, and
    the form takes the common kind, except for the symmetric/alternating
    pair of the ramified hermitian case, which takes the tag "product".
    """

    def __init__(self, blocks):
        parts = tuple(blocks)
        if not parts:
            raise KindMismatch("assembly needs at least one block")
        field = parts[0].field
        for b in parts:
            if b.field != field:
                raise KindMismatch("blocks live over different residue fields")
            if not b.is_nondegenerate():
                raise DegenerateForm("assembly blocks must be nondegenerate")
        kinds = tuple(b.kind for b in parts if b.dim > 0)
        uniform = len(set(kinds)) <= 1
        if not uniform and set(kinds) != {"symmetric", "alternating"}:
            raise KindMismatch(
                f"cannot assemble blocks of kinds {kinds}; only the "
                "symmetric/alternating mix is meaningful")
        self.field = field
        self.blocks = parts
        self.dims = tuple(b.dim for b in parts)
        self.kinds = tuple(b.kind for b in parts)
        self.kind = (kinds[0] if kinds and uniform else
                     "product" if kinds else "symmetric")
        self.dim = sum(self.dims)
        self.conj = next((b.conj for b in parts if b.conj is not None), None)
        self.gram = la.block_diag(field, [b.gram for b in parts])
