"""Sharpness demonstrations at the boundary 2e = ell - 1.

Two families are packaged here.  The first puts the cyclic group of order
ell on a 2-dimensional space over the real cyclotomic subfield with the
conjugation-trace form; descent over that bundle necessarily kills the
group, and a finite certificate shows why: every order-ell element of
GL_2(F_ell) is a nonidentity unipotent, and no nondegenerate symmetric form
survives the standard unipotent.  The second tensors the quaternion plane
with that rotation plane; on the residue side the doubled quaternion module
with a unipotent gluing admits no nondegenerate invariant alternating form,
which a small linear-algebra certificate checks exhaustively.

Everything is verified by enumeration or by solving explicit linear systems
over F_ell; no step assumes the statement it certifies.  The two exhaustive
searches over F_ell decide a row of ell candidates at a time: each candidate
still has its own residual or its own Cayley-Hamilton power, and the row's
outcomes are the bits of one AND of precomputed ell-bit masks.
"""

from __future__ import annotations

import itertools

from . import linalg as la
from .cyclotomic import CycloRing, least_factor
from .descent import GroupRep
from .errors import (
    CharTwo,
    InternalInconsistency,
    InvalidDescriptor,
    SearchSpaceTooLarge,
)
from .exactfield import make_descriptor
from .finitefield import fp_det, fp_kernel, fp_mat_mul, fp_mat_pow
from .forms import GramForm, classify_gram

DEFAULT_ENUM_CAP = 1000000
# largest ell the verifiers accept; prop6 has no enumeration bound, and its
# quaternion-pair search grows linearly in ell
MAX_VERIFY_ELL = 10 ** 6


class NonexistenceCertificate:
    """A finite search or solved linear system standing in for a 'does not
    exist' claim.  The counts must add up to the declared search space for
    the verdict to mean anything, so they are all recorded."""

    def __init__(self, tag: str, ell: int, search_space: str, examined: int, verdict: bool,
                 counts: dict | None = None, details: dict | None = None):
        self.tag, self.ell, self.search_space = tag, ell, search_space
        self.examined, self.verdict = examined, verdict
        self.counts = {} if counts is None else counts
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "ell": self.ell,
            "search_space": self.search_space,
            "examined": self.examined,
            "verdict": self.verdict,
            "counts": dict(sorted(self.counts.items())),
            "details": dict(sorted(self.details.items())),
        }


def _require_verifiable(tag: str, ell: int, candidates: int, enum_cap: int):
    """Refuse a verifier's input before any work: ell over MAX_VERIFY_ELL,
    then an exhaustive search of more than enum_cap candidates, then an ell
    that is not an odd prime.  The ceiling comes first, so no huge ell is
    trial-divided."""
    if ell > MAX_VERIFY_ELL:
        raise InvalidDescriptor(f"verify: --ell must be at most {MAX_VERIFY_ELL}")
    if candidates > enum_cap:
        raise SearchSpaceTooLarge(
            f"verify {tag}: {candidates} candidates at ell={ell} exceed "
            f"--enum-cap {enum_cap}")
    _require_odd_prime(ell)


def _require_odd_prime(ell: int):
    if ell == 2:
        raise CharTwo("residue characteristic 2 is excluded")
    if ell < 2 or least_factor(ell) != ell:
        raise InvalidDescriptor(f"{ell} is not an odd prime")


# ---------------------------------------------------------------------------
# invariant-form and commutant systems over F_ell


def _eye(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _invariance_rows(g):
    """kron(g^T, g^T) - 1, the matrix of B -> g^T B g - B on the entries of
    B flattened row-major, by vec(P X Q) = (P kron Q^T) vec(X)."""
    gt = la.transpose(g)
    return la.mat_sub(la.kron(gt, gt), _eye(len(g) ** 2))


def _solve_form_constraints(gens, ell, n, alternating=False):
    """Basis of the space of bilinear forms B with g^T B g = B for all g.

    Unknowns are the n*n entries of B, row-major; each g contributes the
    rows of _invariance_rows(g).  With alternating=True the rows of
    B -> B + B^T are added; in odd characteristic they force the zero
    diagonal.
    """
    rows = [row for g in gens for row in _invariance_rows(g)]
    if alternating:
        rows += [[(c == i * n + j) + (c == j * n + i) for c in range(n * n)]
                 for i in range(n) for j in range(n)]
    basis = fp_kernel(rows, ell)
    return [[[v[i * n + j] for j in range(n)] for i in range(n)] for v in basis]


def _solve_commutant(gens, ell, n):
    """Basis of the space of matrices E with E g = g E for all g: the kernel
    of kron(1, g^T) - kron(g, 1) on E flattened row-major."""
    one = _eye(n)
    rows = [row for g in gens
            for row in la.mat_sub(la.kron(one, la.transpose(g)), la.kron(g, one))]
    return fp_kernel(rows, ell)


# ---------------------------------------------------------------------------
# the unipotent lemma


def _zero_masks(x: int, ell: int) -> list:
    """masks[s], for s in F_ell, has bit r set iff (s + r x) mod ell = 0:
    the r at which a residual component starting at s and advancing by x
    vanishes, found by evaluating it at every (s, r)."""
    steps = [r * x for r in range(ell)]
    return [sum(1 << r for r, y in enumerate(steps) if not (s + y) % ell)
            for s in range(ell)]


def _invariant_symmetric_grams(g, ell: int):
    """Scan all ell^3 symmetric 2x2 Gram matrices for invariance under g.

    Returns (examined, invariant) with invariant the list of (p, q, r) whose
    Gram [[p, q], [q, r]] satisfies g^T B g = B, in lexicographic order.
    B -> g^T B g - B is F_ell-linear, so its values R_p, R_q, R_r on the
    three symmetric basis matrices, flattened row-major, are read once off
    _invariance_rows(g): columns 0, 1 + 2 and 3.  Each candidate's residual
    is p R_p + q R_q + r R_r, and it is invariant iff all four components
    vanish.  For each (p, q) the component i starts at s_i = p R_p[i] +
    q R_q[i], so the row of ell candidates (p, q, 0 ... ell - 1) is decided
    at once: bit r of zero_0[s_0] & ... & zero_3[s_3] (see _zero_masks) is
    set iff candidate r is invariant, and the set bits, low to high, keep
    the lexicographic order.
    """
    m = _invariance_rows(g)
    rp = [row[0] for row in m]
    rq = [row[1] + row[2] for row in m]
    rr = [row[3] for row in m]
    masks = {x: _zero_masks(x, ell) for x in set(rr)}
    z0, z1, z2, z3 = (masks[x] for x in rr)
    p0, p1, p2, p3 = rp
    q0, q1, q2, q3 = rq
    examined = 0
    invariant = []
    for p in range(ell):
        for q in range(ell):
            examined += ell
            hit = (z0[(p * p0 + q * q0) % ell] & z1[(p * p1 + q * q1) % ell]
                   & z2[(p * p2 + q * q2) % ell] & z3[(p * p3 + q * q3) % ell])
            while hit:
                low = hit & -hit
                invariant.append((p, q, low.bit_length() - 1))
                hit ^= low
    return examined, invariant


def no_invariant_symmetric_form(ell: int,
                                enum_cap: int = DEFAULT_ENUM_CAP) -> NonexistenceCertificate:
    """Exhaustively confirm the standard unipotent kills symmetric forms.

    Enumerates all ell^3 symmetric 2x2 Gram matrices over F_ell and checks
    that none is both nondegenerate and invariant under [[1,1],[0,1]].  Each
    candidate's invariance is decided by its own residual g^T B g - B, a sum
    of the residuals of the three symmetric basis matrices, a row of ell
    candidates by one AND of masks (see _invariant_symmetric_grams).  For
    the invariant ones the two vanishing identities f(u,u) = 0 and
    f(u,v) = 0 (u the fixed vector, v its partner) are verified, and fp_det
    decides nondegeneracy.  More than enum_cap candidates raise
    SearchSpaceTooLarge before the search.
    """
    _require_verifiable("lemma", ell, ell ** 3, enum_cap)
    examined, invariant_grams = _invariant_symmetric_grams([[1, 1], [0, 1]], ell)
    nondeg_invariant = 0
    identities = True
    for p, q, r in invariant_grams:
        if p != 0 or q != 0:
            identities = False
        if fp_det([[p, q], [q, r]], ell) != 0:
            nondeg_invariant += 1
    verdict = nondeg_invariant == 0 and identities
    return NonexistenceCertificate(
        tag="lemma",
        ell=ell,
        search_space=f"all {ell ** 3} symmetric 2x2 Gram matrices over F_{ell}",
        examined=examined,
        verdict=verdict,
        counts={
            "candidates": examined,
            "invariant": len(invariant_grams),
            "nondegenerate_invariant": nondeg_invariant,
        },
        details={"vanishing_identities_verified": identities},
    )


def _ell_power_table(ell: int) -> list:
    """Coefficients of M^ell for every invertible 2x2 matrix M over F_ell.

    By Cayley-Hamilton M^ell = alpha M + beta I, where alpha x + beta is
    x^ell reduced modulo the characteristic polynomial x^2 - t x + d, t the
    trace and d the determinant of M.  table[t][d] = (alpha, beta) for
    every t and every d != 0 (table[t][0] is None): ell (ell - 1) entries,
    each x^ell taken as 1 multiplied by x ell times, a step being
    x (alpha x + beta) = (alpha t + beta) x - alpha d modulo the charpoly.
    """
    table = []
    for t in range(ell):
        row = [None]
        for d in range(1, ell):
            alpha, beta = 0, 1
            for _ in range(ell):
                alpha, beta = (alpha * t + beta) % ell, (-alpha * d) % ell
            row.append((alpha, beta))
        table.append(row)
    return table


def _unipotent_checks(a: int, b: int, c: int, d: int, ell: int):
    """(N^2 = 0, M conjugate to U = [[1, 1], [0, 1]]) for M = [[a, b], [c, d]]
    over F_ell and N = M - 1, on the entries.  Conjugacy is certified without
    an inverse, and only when N^2 = 0: P = [N v, v] for v the first unit
    vector with N v != 0 (e_2 when N = 0, where det P = 0), with det P != 0
    and M P = P U, that is M N v = N v and M v = N v + v."""
    n00, n11 = a - 1, d - 1
    # N^2 = [[n00^2 + bc, b (n00 + n11)], [c (n00 + n11), bc + n11^2]]
    tr, bc = n00 + n11, b * c
    if (n00 * n00 + bc) % ell or b * tr % ell or c * tr % ell or (n11 * n11 + bc) % ell:
        return False, False
    # v = e_1 unless N e_1 = (n00, c) vanishes; (x, y) = N v
    v0, v1 = (1, 0) if n00 % ell or c % ell else (0, 1)
    x, y = (n00, c) if v0 else (b, n11)
    return True, ((x * v1 - y * v0) % ell != 0
                  and (a * x + b * y - x) % ell == (c * x + d * y - y) % ell == 0
                  and (a * v0 + b * v1 - x - v0) % ell == (c * v0 + d * v1 - y - v1) % ell == 0)


def _order_ell_unipotent_fact(ell: int) -> dict:
    """Check every order-ell element of GL_2(F_ell) is a nonidentity
    unipotent conjugate to [[1,1],[0,1]], by enumerating the whole group.

    Each invertible M = [[a, b], [c, d]] has its ell-th power alpha M +
    beta I, with (alpha, beta) looked up by trace t and determinant D in
    _ell_power_table, and M has order ell iff M != I and that power is I:
    alpha a + beta = alpha d + beta = 1 and alpha b = alpha c = 0.  These
    four equations are read off bit masks over the determinants D != 0,
    one set per trace: one[t][x] holds the D with alpha x + beta = 1 and
    kills[t][y] the D with alpha y = 0.  For each (a, d) and b the mask
    one[t][a] & one[t][d] & kills[t][b] holds the determinants at which
    three equations hold; when it is empty every c is skipped, otherwise
    c is accepted iff bit ad - bc is set in it and in kills[t][c].
    Each accepted M is then certified by _unipotent_checks.
    """
    one, kills = [], []
    for row in _ell_power_table(ell):
        coeffs = list(enumerate(row[1:], 1))
        one.append([sum(1 << det for det, (alpha, beta) in coeffs
                        if (alpha * x + beta) % ell == 1) for x in range(ell)])
        kills.append([sum(1 << det for det, (alpha, _) in coeffs
                          if not alpha * y % ell) for y in range(ell)])
    count = 0
    all_square_zero = True
    all_conjugate = True
    for a in range(ell):
        for d in range(ell):
            t = (a + d) % ell
            one_t, kills_t = one[t], kills[t]
            dets = one_t[a] & one_t[d]
            if not dets:
                continue
            for b in range(ell):
                dets_b = dets & kills_t[b]
                if not dets_b:
                    continue
                for c in range(ell):
                    if not (dets_b & kills_t[c]) >> ((a * d - b * c) % ell) & 1:
                        continue
                    if a == d == 1 and b == c == 0:
                        continue
                    count += 1
                    square_zero, conjugate = _unipotent_checks(a, b, c, d, ell)
                    all_square_zero &= square_zero
                    all_conjugate &= conjugate or not square_zero
    return {
        "order_ell_count": count,
        "expected_count": ell * ell - 1,
        "all_square_zero": all_square_zero,
        "all_conjugate_to_standard": all_conjugate,
    }


# ---------------------------------------------------------------------------
# order-ell rotation bundle


def build_prop5_bundle(ell: int) -> GroupRep:
    """Cyclic order-ell group on the cyclotomic plane with the trace form.

    K is the real subfield of the ell-th cyclotomic field, V has basis
    {1, zeta} inside the full cyclotomic field, the generator is
    multiplication by zeta, and the form is the conjugation trace
    tr(x * ybar), which works out to [[2, c], [c, 2]] with c the trace of
    zeta.  The ramification index is (ell-1)/2, so 2e = ell - 1 exactly.
    """
    _require_odd_prime(ell)
    desc = make_descriptor(ell, ell, subgroup=(1, ell - 1))
    c = desc.orbit_sum(1)
    z, o = desc.zero, desc.one
    gen = [[z, -o], [o, c]]
    gram = [[o + o, c], [c, o + o]]
    form = GramForm(desc, gram, "symmetric")
    return GroupRep(desc, [gen], form)


def _irreducibility_witness(ell: int) -> bool:
    """Certify the rotation plane has no eigenvector over the real subfield.

    The discriminant of the generator's characteristic polynomial is a
    square only in the full cyclotomic field: its square roots are
    w = zeta - zeta^(-1) and -w, and both move under the subfield's Galois
    group, so neither lies in K and the charpoly has no root in K.
    """
    ring = CycloRing(ell)
    w = ring.sub(ring.zeta_power(1), ring.zeta_power(ell - 1))
    c = ring.add(ring.zeta_power(1), ring.zeta_power(ell - 1))
    disc = ring.sub(ring.mul(c, c), tuple(4 * x for x in ring.one))
    if ring.mul(w, w) != disc:
        raise InternalInconsistency("discriminant witness failed to square")
    moved = ring.galois(w, ell - 1)
    return moved != w and ring.neg(moved) == w


def verify_prop5(ell: int, enum_cap: int = DEFAULT_ENUM_CAP) -> NonexistenceCertificate:
    """Existence of the order-ell symmetric bundle plus nonexistence of any
    faithful symmetric home for it over F_ell.

    The existence half rebuilds the bundle and checks the form is symmetric
    nondegenerate and invariant, the group has order exactly ell, and the
    plane is irreducible over K.  The nonexistence half combines the
    unipotent normal-form fact with the exhaustive symmetric-form search.
    More than enum_cap candidates (ell^4 + ell^3) raise SearchSpaceTooLarge
    before any work.
    """
    _require_verifiable("prop5", ell, ell ** 4 + ell ** 3, enum_cap)
    rep = build_prop5_bundle(ell)
    desc = rep.field
    irreducible = _irreducibility_witness(ell)
    existence = (
        rep.order == ell
        and classify_gram(desc, rep.form.gram) == "symmetric"
        and irreducible
    )
    lemma = no_invariant_symmetric_form(ell, enum_cap)
    fact = _order_ell_unipotent_fact(ell)
    normal_form_ok = (
        fact["order_ell_count"] == fact["expected_count"]
        and fact["all_square_zero"]
        and fact["all_conjugate_to_standard"]
    )
    verdict = existence and lemma.verdict and normal_form_ok
    return NonexistenceCertificate(
        tag="prop5",
        ell=ell,
        search_space=(
            f"GL_2(F_{ell}) order-{ell} elements plus {ell ** 3} symmetric grams"),
        examined=lemma.examined + fact["order_ell_count"],
        verdict=verdict,
        counts={
            "group_order": rep.order,
            "order_ell_elements": fact["order_ell_count"],
            "symmetric_grams": lemma.examined,
            "nondegenerate_invariant": lemma.counts["nondegenerate_invariant"],
        },
        details={
            "existence_half": existence,
            "irreducible_over_K": irreducible,
            "hypothesis_boundary": 2 * desc.e == ell - 1,
            "all_order_ell_unipotent": fact["all_square_zero"],
            "all_conjugate_to_standard": fact["all_conjugate_to_standard"],
        },
    )


# ---------------------------------------------------------------------------
# quaternion times rotation bundle


def build_prop6_bundle(ell: int) -> GroupRep:
    """Quaternion group tensored with the order-ell rotation, dimension 4.

    K is the compositum of the Gaussian field and the real ell-th cyclotomic
    subfield (conductor 4*ell).  The quaternion factor uses the explicit
    anticommuting pair over the Gaussian integers, the rotation factor is
    the order-ell plane, and the form is alternating tensor symmetric.
    """
    _require_odd_prime(ell)
    n = 4 * ell
    h2 = None
    for h in range(1, n):
        if h % 4 == 1 and h % ell == ell - 1:
            h2 = h
            break
    desc = make_descriptor(n, ell, subgroup=(1, h2))
    i_el = desc.zeta_power(ell)
    c = desc.orbit_sum(4)
    z, o = desc.zero, desc.one
    a1 = [[z, -o], [o, z]]
    b1 = [[i_el, z], [z, -i_el]]
    g2 = [[z, -o], [o, c]]
    i2 = la.identity(desc, 2)
    f1 = [[z, o], [-o, z]]
    f2 = [[o + o, c], [c, o + o]]
    gens = [la.kron(a1, i2), la.kron(b1, i2), la.kron(i2, g2)]
    gram = la.kron(f1, f2)
    if classify_gram(desc, gram) != "alternating":
        raise InternalInconsistency("tensor form should classify as alternating")
    form = GramForm(desc, gram, "alternating")
    rep = GroupRep(desc, gens, form)
    if rep.order != 8 * ell:
        raise InternalInconsistency(
            f"expected closure of order {8 * ell}, found {rep.order}")
    return rep


def _quaternion_pair_mod(ell: int):
    """Generators of the quaternion group inside SL_2(F_ell).

    For ell = 1 mod 4 this is the entrywise reduction of the pair over the
    Gaussian field; otherwise a conjugate model with a^2 + b^2 = -1 is used
    (such a pair always exists over F_ell).
    """
    abar = [[0, ell - 1], [1, 0]]
    if ell % 4 == 1:
        for a in range(2, ell):
            if (a * a) % ell == ell - 1:
                return abar, [[a, 0], [0, ell - a]]
    for a in range(ell):
        rest = (-1 - a * a) % ell
        for b in range(ell):
            if (b * b) % ell == rest:
                return abar, [[a, b], [b, (ell - a) % ell]]
    raise InternalInconsistency("no quaternion pair mod ell; ell is not prime?")


def _count_degenerate_alternating(sol, ell: int) -> tuple[int, int]:
    """(enumerated, degenerate) over every F_ell-combination of the
    alternating 4x4 forms in sol.

    A form B is degenerate iff its Pfaffian Pf(B) = B01 B23 - B02 B13 +
    B03 B12 vanishes, since det B = Pf(B)^2.  On B = sum_t c_t S_t the
    Pfaffian is a quadratic form in c, worked out once from the basis.  For
    each choice of c_1 ... c_{d-1} it is a quadratic in c_0, walked by its
    first and second differences: two additions mod ell per candidate.
    """
    for b in sol:
        if any(b[i][i] % ell or (b[i][j] + b[j][i]) % ell
               for i in range(4) for j in range(4)):
            raise InternalInconsistency("Pfaffian applied to a non-alternating form")
    if not sol:
        return 1, 1  # the zero form alone

    def polar(x, y):  # Pf(X) = polar(X, X)
        return x[0][1] * y[2][3] - x[0][2] * y[1][3] + x[0][3] * y[1][2]

    d = len(sol)
    # Pf(sum_t c_t S_t) = sum_{s <= t} q[s][t] c_s c_t
    q = [[(polar(sol[s], sol[t]) + polar(sol[t], sol[s]) * (s != t)) % ell
          for t in range(d)] for s in range(d)]
    enumerated = degenerate = 0
    for rest in itertools.product(range(ell), repeat=d - 1):
        c = (0,) + rest
        val = sum(q[s][t] * c[s] * c[t]
                  for s in range(1, d) for t in range(s, d)) % ell
        # val(c_0 + 1) - val(c_0) = q00 (2 c_0 + 1) + sum_t q0t c_t
        diff = (q[0][0] + sum(q[0][t] * c[t] for t in range(1, d))) % ell
        step = 2 * q[0][0] % ell
        for _ in range(ell):
            if not val:
                degenerate += 1
            val = (val + diff) % ell
            diff = (diff + step) % ell
        enumerated += ell
    return enumerated, degenerate


def verify_prop6(ell: int, enum_cap: int = DEFAULT_ENUM_CAP) -> NonexistenceCertificate:
    """Certify the doubled quaternion module admits no nondegenerate
    invariant alternating form over F_ell.

    With W the quaternion plane mod ell, V0 = W + W carries the diagonal
    quaternion action and the unipotent gluing c(x, y) = (x + y, y).  Three
    solved linear systems give: (a) the invariant bilinear forms on W are
    one-dimensional and alternating; (b) the quaternion commutant of V0 has
    dimension 4; (c) every invariant alternating form on V0 vanishes on the
    first copy of W, hence is degenerate.  (c) is certified twice: by the
    vanishing identities on the solution-space basis, and by enumerating the
    whole solution space whenever it fits under the cap, each form decided
    by its Pfaffian (see _count_degenerate_alternating).
    """
    _require_verifiable("prop6", ell, 0, enum_cap)
    abar, bbar = _quaternion_pair_mod(ell)

    # sanity: the pair anticommutes and squares to -1
    ident = [[1, 0], [0, 1]]
    if fp_mat_pow(abar, 4, ell) != ident or fp_mat_pow(bbar, 4, ell) != ident:
        raise InternalInconsistency("quaternion generators must have order 4")
    if fp_mat_mul(abar, bbar, ell) != [[(-v) % ell for v in row]
                                       for row in fp_mat_mul(bbar, abar, ell)]:
        raise InternalInconsistency("quaternion generators must anticommute")

    # (a) invariant bilinear forms on W
    w_basis = _solve_form_constraints([abar, bbar], ell, 2)
    w_dim = len(w_basis)
    w_alternating = all(
        all(b[i][i] % ell == 0 for i in range(2))
        and all((b[i][j] + b[j][i]) % ell == 0 for i in range(2) for j in range(2))
        for b in w_basis)

    # (b) commutant of the doubled module, quaternions acting diagonally
    dgens = [la.kron(ident, abar), la.kron(ident, bbar)]
    end_dim = len(_solve_commutant(dgens, ell, 4))

    # (c) invariant alternating forms on V0 under quaternions + gluing
    glue = la.kron([[1, 1], [0, 1]], ident)
    sol = _solve_form_constraints(dgens + [glue], ell, 4, alternating=True)
    sol_dim = len(sol)

    # identity route: each basis form vanishes on W + 0, so every member
    # does; a form killing a 2-dimensional subspace of a 4-space is singular
    kills_first_copy = all(
        all(b[i][j] % ell == 0 for i in range(4) for j in range(2))
        and all(b[j][i] % ell == 0 for i in range(4) for j in range(2))
        for b in sol)

    # enumeration route when the solution space is small enough
    enumerated = None
    degenerate = None
    if ell ** sol_dim <= enum_cap:
        enumerated, degenerate = _count_degenerate_alternating(sol, ell)
        all_degenerate = enumerated == degenerate
    else:
        if not kills_first_copy:
            raise SearchSpaceTooLarge(
                "solution space too large to enumerate and the vanishing "
                "identities did not close the argument")
        all_degenerate = True

    verdict = (w_dim == 1 and w_alternating and end_dim == 4
               and kills_first_copy and all_degenerate)
    return NonexistenceCertificate(
        tag="prop6",
        ell=ell,
        search_space=(
            f"solution space of invariant alternating forms, dimension {sol_dim} "
            f"over F_{ell}"),
        examined=enumerated if enumerated is not None else 0,
        verdict=verdict,
        counts={
            "invariant_form_dim_W": w_dim,
            "commutant_dim": end_dim,
            "alternating_solution_dim": sol_dim,
            "enumerated": enumerated if enumerated is not None else 0,
            "degenerate": degenerate if degenerate is not None else 0,
        },
        details={
            "routes": ["identity"] + (["enumeration"] if enumerated is not None else []),
            "W_invariant_forms_alternating": w_alternating,
            "kills_first_copy": kills_first_copy,
        },
    )
