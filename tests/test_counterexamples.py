import itertools
import random
import time
from collections import Counter

import pytest

from isodescent import counterexamples
from isodescent import linalg as la
from isodescent.counterexamples import (
    NonexistenceCertificate,
    _count_degenerate_alternating,
    _ell_power_table,
    _invariant_symmetric_grams,
    _order_ell_unipotent_fact,
    _quaternion_pair_mod,
    _solve_commutant,
    _solve_form_constraints,
    _unipotent_checks,
    build_prop5_bundle,
    build_prop6_bundle,
    no_invariant_symmetric_form,
    verify_prop5,
    verify_prop6,
)
from isodescent.errors import (CharTwo, InternalInconsistency, InvalidDescriptor,
                               SearchSpaceTooLarge)
from isodescent.finitefield import fp_det, fp_kernel, fp_mat_mul, fp_mat_pow, fp_powmod


class TestLemma:
    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_exhaustive_counts(self, ell):
        cert = no_invariant_symmetric_form(ell)
        assert cert.verdict
        assert cert.tag == "lemma"
        assert cert.ell == ell
        assert cert.examined == ell ** 3
        assert cert.counts["candidates"] == ell ** 3
        # hand solve: g-invariance forces the two top entries to vanish,
        # leaving exactly ell singular survivors
        assert cert.counts["invariant"] == ell
        assert cert.counts["nondegenerate_invariant"] == 0
        assert cert.details["vanishing_identities_verified"]

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            no_invariant_symmetric_form(2)

    @pytest.mark.parametrize("bad", [1, 9, 15])
    def test_nonprime_rejected(self, bad):
        with pytest.raises(InvalidDescriptor):
            no_invariant_symmetric_form(bad)

    def test_to_dict_is_sorted_and_complete(self):
        d = no_invariant_symmetric_form(3).to_dict()
        assert set(d) == {"tag", "ell", "search_space", "examined",
                          "verdict", "counts", "details"}
        assert list(d["counts"]) == sorted(d["counts"])


class TestProp5:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_full_certificate(self, ell):
        cert = verify_prop5(ell)
        assert cert.verdict
        assert cert.tag == "prop5"
        assert cert.counts["group_order"] == ell
        assert cert.counts["order_ell_elements"] == ell ** 2 - 1
        assert cert.counts["symmetric_grams"] == ell ** 3
        assert cert.counts["nondegenerate_invariant"] == 0
        assert cert.details["existence_half"]
        assert cert.details["irreducible_over_K"]
        assert cert.details["all_order_ell_unipotent"]
        assert cert.details["all_conjugate_to_standard"]
        # the construction sits exactly on the excluded boundary
        assert cert.details["hypothesis_boundary"]

    def test_irreducibility_witness_is_reported(self, monkeypatch):
        # the witness holds at every ell; a failing one must show in the
        # details and sink the existence half and the verdict
        monkeypatch.setattr(counterexamples, "_irreducibility_witness", lambda ell: False)
        cert = verify_prop5(5)
        assert cert.details["irreducible_over_K"] is False
        assert cert.details["existence_half"] is False
        assert cert.verdict is False

    def test_bundle_shape(self):
        rep = build_prop5_bundle(5)
        desc = rep.field
        assert rep.order == 5
        assert desc.ell == 5
        assert desc.e == 2
        assert not desc.two_e_ok
        assert rep.form.kind == "symmetric"
        assert rep.form.dim == 2
        # GroupRep construction already verified every element is an isometry
        assert len(rep.generators) == 1

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            verify_prop5(2)


class TestProp6:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_solved_dimensions(self, ell):
        cert = verify_prop6(ell)
        assert cert.verdict
        assert cert.tag == "prop6"
        assert cert.counts["invariant_form_dim_W"] == 1
        assert cert.counts["commutant_dim"] == 4
        assert cert.counts["alternating_solution_dim"] == 1
        assert cert.counts["enumerated"] == ell
        assert cert.counts["degenerate"] == ell
        assert cert.details["routes"] == ["identity", "enumeration"]
        assert cert.details["kills_first_copy"]
        assert cert.details["W_invariant_forms_alternating"]

    def test_identity_route_alone_still_certifies(self):
        cert = verify_prop6(5, enum_cap=1)
        assert cert.verdict
        assert cert.details["routes"] == ["identity"]
        assert cert.counts["enumerated"] == 0
        assert cert.counts["degenerate"] == 0

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            verify_prop6(2)


class TestProp6Bundle:
    def test_group_and_form_shape(self):
        rep = build_prop6_bundle(5)
        assert rep.order == 40
        assert rep.form.kind == "alternating"
        assert rep.form.dim == 4
        desc = rep.field
        assert desc.ell == 5
        # the coefficient field ramifies just enough to sit on the boundary
        assert desc.e == 2
        assert not desc.two_e_ok

    def test_charpoly_census_over_K(self):
        rep = build_prop6_bundle(5)
        desc = rep.field

        def poly(ints):
            return tuple(desc.rational(c) for c in ints)

        census = Counter(tuple(la.charpoly(m, desc)) for m in rep.elements)
        assert census[poly([1, 0, 2, 0, 1])] == 6    # (t^2+1)^2
        assert census[poly([1, 4, 6, 4, 1])] == 1    # (t+1)^4
        assert census[poly([1, -4, 6, -4, 1])] == 1  # (t-1)^4
        assert sum(census.values()) == 40

    def test_minus_identity_reduces_consistently(self):
        rep = build_prop6_bundle(5)
        desc = rep.field
        minus = la.scalar_mul(-desc.one, la.identity(desc, 4))
        match = [m for m in rep.elements if la.mat_eq(m, minus)]
        assert len(match) == 1
        cp = la.charpoly(match[0], desc)
        assert cp == [desc.rational(c) for c in (1, 4, 6, 4, 1)]
        k = desc.residue_field
        assert [c.reduce() for c in cp] == [k.element(c) for c in (1, 4, 1, 4, 1)]


# ---------------------------------------------------------------------------
# schoolbook references: every candidate checked with full matrix products


def schoolbook_lemma(ell):
    g = [[1, 1], [0, 1]]
    examined = invariant = nondeg_invariant = 0
    identities = True
    for p in range(ell):
        for q in range(ell):
            for r in range(ell):
                examined += 1
                b = [[p, q], [q, r]]
                gtbg = fp_mat_mul(fp_mat_mul([[1, 0], [1, 1]], b, ell), g, ell)
                if gtbg != [[v % ell for v in row] for row in b]:
                    continue
                invariant += 1
                if b[0][0] % ell != 0 or b[0][1] % ell != 0:
                    identities = False
                if fp_det(b, ell) != 0:
                    nondeg_invariant += 1
    return NonexistenceCertificate(
        tag="lemma",
        ell=ell,
        search_space=f"all {ell ** 3} symmetric 2x2 Gram matrices over F_{ell}",
        examined=examined,
        verdict=nondeg_invariant == 0 and identities,
        counts={
            "candidates": examined,
            "invariant": invariant,
            "nondegenerate_invariant": nondeg_invariant,
        },
        details={"vanishing_identities_verified": identities},
    )


def schoolbook_order_ell_fact(ell):
    ident = [[1, 0], [0, 1]]
    count = 0
    all_square_zero = True
    all_conjugate = True
    for a in range(ell):
        for b in range(ell):
            for c in range(ell):
                for d in range(ell):
                    m = [[a, b], [c, d]]
                    if (a * d - b * c) % ell == 0:
                        continue
                    if m == ident or fp_mat_pow(m, ell, ell) != ident:
                        continue
                    count += 1
                    nil = [[(a - 1) % ell, b], [c, (d - 1) % ell]]
                    if fp_mat_mul(nil, nil, ell) != [[0, 0], [0, 0]]:
                        all_square_zero = False
                        continue
                    v = None
                    for cand in ([1, 0], [0, 1]):
                        img = [(nil[0][0] * cand[0] + nil[0][1] * cand[1]) % ell,
                               (nil[1][0] * cand[0] + nil[1][1] * cand[1]) % ell]
                        if img != [0, 0]:
                            v = cand
                            break
                    img = [(nil[0][0] * v[0] + nil[0][1] * v[1]) % ell,
                           (nil[1][0] * v[0] + nil[1][1] * v[1]) % ell]
                    pmat = [[img[0], v[0]], [img[1], v[1]]]
                    pinv_scale = pow(fp_det(pmat, ell), -1, ell)
                    pinv = [[(pmat[1][1] * pinv_scale) % ell,
                             (-pmat[0][1] * pinv_scale) % ell],
                            [(-pmat[1][0] * pinv_scale) % ell,
                             (pmat[0][0] * pinv_scale) % ell]]
                    if fp_mat_mul(fp_mat_mul(pinv, m, ell), pmat, ell) != [[1, 1], [0, 1]]:
                        all_conjugate = False
    return {
        "order_ell_count": count,
        "expected_count": ell * ell - 1,
        "all_square_zero": all_square_zero,
        "all_conjugate_to_standard": all_conjugate,
    }


def schoolbook_invariant_grams(g, ell):
    gt = [[g[0][0], g[1][0]], [g[0][1], g[1][1]]]
    return [(p, q, r) for p in range(ell) for q in range(ell) for r in range(ell)
            if fp_mat_mul(fp_mat_mul(gt, [[p, q], [q, r]], ell), g, ell)
            == [[p, q], [q, r]]]


def gl2(ell):
    for a in range(ell):
        for b in range(ell):
            for c in range(ell):
                for d in range(ell):
                    if (a * d - b * c) % ell:
                        yield [[a, b], [c, d]]


class TestPerCandidateChecks:
    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_lemma_matches_schoolbook(self, ell):
        assert no_invariant_symmetric_form(ell).to_dict() == schoolbook_lemma(ell).to_dict()

    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_order_ell_fact_matches_schoolbook(self, ell):
        assert _order_ell_unipotent_fact(ell) == schoolbook_order_ell_fact(ell)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_unipotent_checks_match_the_matrix_products(self, ell):
        # every M in M_2(F_ell), not only the order-ell elements, so each
        # outcome occurs and a check that always passes shows
        unipotent = [[1, 1], [0, 1]]
        seen = Counter()
        for a, b, c, d in itertools.product(range(ell), repeat=4):
            m = [[a, b], [c, d]]
            nil = [[(a - 1) % ell, b], [c, (d - 1) % ell]]
            square_zero = fp_mat_mul(nil, nil, ell) == [[0, 0], [0, 0]]
            # v the first unit vector with N v != 0, e_2 when N = 0
            v = [1, 0] if nil[0][0] or nil[1][0] else [0, 1]
            nv = [row[0] for row in fp_mat_mul(nil, [[v[0]], [v[1]]], ell)]
            pmat = [[nv[0], v[0]], [nv[1], v[1]]]
            conjugate = (square_zero and fp_det(pmat, ell) != 0
                         and fp_mat_mul(m, pmat, ell) == fp_mat_mul(pmat, unipotent, ell))
            got = _unipotent_checks(a, b, c, d, ell)
            assert got == (square_zero, conjugate), m
            seen[got] += 1
        assert seen[(True, False)] == 1  # the identity, where N v = 0 for both v
        assert seen[(True, True)] == ell * ell - 1
        assert seen[(False, False)] == ell ** 4 - ell * ell

    @pytest.mark.parametrize("ell", [3, 5])
    def test_residual_scan_matches_schoolbook_for_every_g(self, ell):
        # every g in GL_2, so each of R_p, R_q, R_r is nonzero for some g
        for g in gl2(ell):
            expected = schoolbook_invariant_grams(g, ell)
            assert _invariant_symmetric_grams(g, ell) == (ell ** 3, expected), g

    @pytest.mark.parametrize("ell", [7, 11])
    def test_residual_scan_matches_schoolbook_on_a_seeded_sample(self, ell):
        # rows of ell candidates wider than at ell = 3 and 5, so a mask bit
        # off by one or a wrong row start shows
        rng = random.Random(f"residual-scan-{ell}")
        for g in rng.sample(list(gl2(ell)), 40):
            expected = schoolbook_invariant_grams(g, ell)
            assert _invariant_symmetric_grams(g, ell) == (ell ** 3, expected), g

    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_power_table_matches_fp_powmod(self, ell):
        table = _ell_power_table(ell)
        for t in range(ell):
            for d in range(1, ell):
                # the remainder is trimmed, so pad it to (beta, alpha)
                beta, alpha = (fp_powmod((0, 1), ell, (d, (-t) % ell, 1), ell)
                               + (0, 0))[:2]
                assert table[t][d] == (alpha, beta), (t, d)

    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_power_table_gives_the_ell_th_power(self, ell):
        table = _ell_power_table(ell)
        assert len(table) == ell
        assert all(len(row) == ell and row[0] is None for row in table)
        for m in gl2(ell):
            t = (m[0][0] + m[1][1]) % ell
            det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % ell
            alpha, beta = table[t][det]
            power = [[(alpha * m[i][j] + (beta if i == j else 0)) % ell
                      for j in range(2)] for i in range(2)]
            assert power == fp_mat_pow(m, ell, ell), m


class TestLargerEll:
    def test_prop5_ell23(self):
        cert = verify_prop5(23)
        assert cert.verdict
        assert cert.counts["order_ell_elements"] == 528
        assert cert.counts["nondegenerate_invariant"] == 0

    def test_lemma_ell47(self):
        cert = no_invariant_symmetric_form(47)
        assert cert.verdict
        assert cert.examined == 47 ** 3
        assert cert.counts["candidates"] == 47 ** 3
        assert cert.counts["invariant"] == 47
        assert cert.counts["nondegenerate_invariant"] == 0
        assert cert.details["vanishing_identities_verified"]

    def test_huge_composite_ell_rejected(self):
        # 10^400 + 1 has the factor 353; the ceiling refuses it before any
        # trial division
        with pytest.raises(InvalidDescriptor):
            no_invariant_symmetric_form(10 ** 400 + 1)

    @pytest.mark.parametrize("builder", [build_prop5_bundle, build_prop6_bundle])
    def test_huge_composite_bundle_ell_rejected(self, builder):
        # no ceiling stands before the bundle builders' primality test, and
        # the trial division stops at the factor 353
        started = time.perf_counter()
        with pytest.raises(InvalidDescriptor, match="not an odd prime"):
            builder(10 ** 400 + 1)
        assert time.perf_counter() - started < 1.0

    # 1009^3 and 37^4 + 37^3 candidates exceed the default cap of 10^6, and
    # 1000003 is the first prime over MAX_VERIFY_ELL
    @pytest.mark.parametrize("verifier, ell, error", [
        (no_invariant_symmetric_form, 1009, SearchSpaceTooLarge),
        (verify_prop5, 37, SearchSpaceTooLarge),
        (verify_prop6, 1000003, InvalidDescriptor),
    ], ids=["lemma", "prop5", "prop6"])
    def test_over_bound_input_is_refused_at_once(self, verifier, ell, error):
        started = time.perf_counter()
        with pytest.raises(error):
            verifier(ell)
        assert time.perf_counter() - started < 1.0


def schoolbook_degenerate_count(sol, ell):
    """The former prop6 enumeration: one fp_det per form of the span."""
    sol_dim = len(sol)
    enumerated = 0
    degenerate = 0
    coeffs = [0] * sol_dim
    while True:
        b = [[0] * 4 for _ in range(4)]
        for t, cf in enumerate(coeffs):
            if cf:
                for i in range(4):
                    for j in range(4):
                        b[i][j] = (b[i][j] + cf * sol[t][i][j]) % ell
        enumerated += 1
        if fp_det(b, ell) == 0:
            degenerate += 1
        pos = 0
        while pos < sol_dim and coeffs[pos] == ell - 1:
            coeffs[pos] = 0
            pos += 1
        if pos == sol_dim:
            break
        coeffs[pos] += 1
    return enumerated, degenerate


def prop6_solution_space(ell):
    abar, bbar = _quaternion_pair_mod(ell)
    gens = [[[m[0][0], m[0][1], 0, 0], [m[1][0], m[1][1], 0, 0],
             [0, 0, m[0][0], m[0][1]], [0, 0, m[1][0], m[1][1]]] for m in (abar, bbar)]
    glue = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    return _solve_form_constraints(gens + [glue], ell, 4, alternating=True)


def random_alternating(rng, ell):
    b = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            b[i][j] = rng.randrange(ell)
            b[j][i] = (-b[i][j]) % ell
    return b


class TestProp6Pfaffian:
    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_prop6_space_matches_the_determinant_loop(self, ell):
        sol = prop6_solution_space(ell)
        assert _count_degenerate_alternating(sol, ell) == schoolbook_degenerate_count(sol, ell)
        cert = verify_prop6(ell)
        assert (cert.counts["enumerated"], cert.counts["degenerate"]) == \
            schoolbook_degenerate_count(sol, ell)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_random_spans_match_the_determinant_loop(self, ell):
        # spans with nondegenerate members and cross terms in the Pfaffian
        rng = random.Random(f"pfaffian-{ell}")
        nondegenerate_seen = False
        for dim in (0, 1, 2, 3):
            for _ in range(4):
                sol = [random_alternating(rng, ell) for _ in range(dim)]
                got = _count_degenerate_alternating(sol, ell)
                assert got == schoolbook_degenerate_count(sol, ell), sol
                nondegenerate_seen |= got[0] != got[1]
        assert nondegenerate_seen

    def test_non_alternating_form_rejected(self):
        sol = [random_alternating(random.Random("sym"), 5)]
        sol[0][0][0] = 1
        with pytest.raises(InternalInconsistency):
            _count_degenerate_alternating(sol, 5)

    def test_prop6_enumerates_just_under_the_verify_ceiling(self):
        cert = verify_prop6(999983)
        assert cert.verdict
        assert cert.counts["enumerated"] == cert.counts["degenerate"] == 999983


# ---------------------------------------------------------------------------
# index-loop references for the Kronecker-product systems: the former
# _solve_form_constraints, _solve_commutant and prop6's diag4 and cmat


def reference_form_constraints(gens, ell, n, alternating=False):
    rows = []
    for g in gens:
        # (g^T B g)_{ij} = sum_{k,l} g_{ki} B_{kl} g_{lj}
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    gki = g[k][i]
                    if gki == 0:
                        continue
                    for l in range(n):
                        row[k * n + l] = (row[k * n + l] + gki * g[l][j]) % ell
                row[i * n + j] = (row[i * n + j] - 1) % ell
                rows.append(row)
    if alternating:
        for i in range(n):
            for j in range(i, n):
                row = [0] * (n * n)
                if i == j:
                    row[i * n + i] = 1
                else:
                    row[i * n + j] = 1
                    row[j * n + i] = 1
                rows.append(row)
    basis = fp_kernel(rows, ell)
    return [[[v[i * n + j] for j in range(n)] for i in range(n)] for v in basis]


def reference_commutant(gens, ell, n):
    rows = []
    for g in gens:
        # (E g - g E)_{ij} = sum_k E_{ik} g_{kj} - g_{ik} E_{kj}
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] = (row[i * n + k] + g[k][j]) % ell
                    row[k * n + j] = (row[k * n + j] - g[i][k]) % ell
                rows.append(row)
    return fp_kernel(rows, ell)


def diag4(m):
    return [[m[0][0], m[0][1], 0, 0],
            [m[1][0], m[1][1], 0, 0],
            [0, 0, m[0][0], m[0][1]],
            [0, 0, m[1][0], m[1][1]]]


cmat = [[1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 1]]


def random_gens(rng, ell, n, count):
    return [[[rng.randrange(-ell, 2 * ell) for _ in range(n)] for _ in range(n)]
            for _ in range(count)]


class TestKroneckerSystems:
    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
    def test_prop6_systems_match_the_index_loops(self, ell):
        abar, bbar = _quaternion_pair_mod(ell)
        dgens = [diag4(abar), diag4(bbar)]
        ident = [[1, 0], [0, 1]]
        assert [la.kron(ident, m) for m in (abar, bbar)] == dgens
        assert la.kron([[1, 1], [0, 1]], ident) == cmat
        w_basis = _solve_form_constraints([abar, bbar], ell, 2)
        commutant = _solve_commutant(dgens, ell, 4)
        sol = _solve_form_constraints(dgens + [cmat], ell, 4, alternating=True)
        assert w_basis == reference_form_constraints([abar, bbar], ell, 2)
        assert commutant == reference_commutant(dgens, ell, 4)
        assert sol == reference_form_constraints(dgens + [cmat], ell, 4, alternating=True)
        cert = verify_prop6(ell)
        assert cert.counts["invariant_form_dim_W"] == len(w_basis)
        assert cert.counts["commutant_dim"] == len(commutant)
        assert cert.counts["alternating_solution_dim"] == len(sol)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_systems_match_the_index_loops(self, ell, n):
        rng = random.Random(f"kron-{ell}-{n}")
        nonzero = {False: 0, True: 0}
        # the identity keeps every form; a signed permutation matrix keeps a
        # space of forms of each kind for some permutations; random matrices
        # mostly keep none
        systems = [[[[int(i == j) for j in range(n)] for i in range(n)]]]
        for _ in range(15):
            perm, sign = rng.sample(range(n), n), rng.choice((1, -1))
            systems.append([[[sign * int(perm[i] == j) for j in range(n)]
                             for i in range(n)]])
            systems.append(random_gens(rng, ell, n, rng.choice((1, 2))))
        for gens in systems:
            for alternating in (False, True):
                got = _solve_form_constraints(gens, ell, n, alternating)
                assert got == reference_form_constraints(gens, ell, n, alternating), gens
                nonzero[alternating] += bool(got) and gens is not systems[0]
            assert _solve_commutant(gens, ell, n) == reference_commutant(gens, ell, n), gens
        assert all(nonzero.values())

    @pytest.mark.parametrize("alternating", [False, True])
    def test_all_81_forms_at_ell3(self, alternating):
        # oracle: every bilinear form on F_3^2, checked entry by entry
        ell, n = 3, 2
        rng = random.Random("oracle-81")
        systems = [list(_quaternion_pair_mod(ell)), [[[1, 1], [0, 1]]],
                   [[[1, 0], [0, 1]]], [[[2, 0], [0, 1]]]]
        systems += [random_gens(rng, ell, n, 1) for _ in range(8)]
        for gens in systems:
            invariant = set()
            for entries in itertools.product(range(ell), repeat=n * n):
                b = [list(entries[:n]), list(entries[n:])]
                if alternating and any((b[i][j] + b[j][i]) % ell or b[i][i]
                                       for i in range(n) for j in range(n)):
                    continue
                if all(sum(g[k][i] * b[k][l] * g[l][j]
                           for k in range(n) for l in range(n)) % ell == b[i][j]
                       for g in gens for i in range(n) for j in range(n)):
                    invariant.add(entries)
            basis = _solve_form_constraints(gens, ell, n, alternating)
            span = {tuple(sum(c * m[i][j] for c, m in zip(coeffs, basis)) % ell
                          for i in range(n) for j in range(n))
                    for coeffs in itertools.product(range(ell), repeat=len(basis))}
            assert span == invariant, gens
            assert len(invariant) == ell ** len(basis)
