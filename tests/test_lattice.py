import random

import pytest

from isodescent import linalg as la
from isodescent.errors import NotContained, SingularMatrix
from isodescent.forms import GramForm
from isodescent.lattice import (
    Lattice,
    apply_matrix,
    dual_lattice,
    is_stable,
    lattice_intersect,
    lattice_sum,
    quotient_invariants,
    quotient_length,
    scale_lattice,
    snf,
    stabilize,
    standard_lattice,
)

from conftest import quaternion_rep, random_invertible


def random_lattice(rng, desc, n):
    return Lattice(desc, random_invertible(rng, desc, n))


class TestSmithNormalForm:
    @pytest.mark.parametrize("descname,count", [("gauss5", 250), ("real5", 250)])
    def test_reconstruction_500(self, descname, count, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"snf-{descname}")
        for _ in range(count):
            n = rng.randint(1, 4)
            m = random_invertible(rng, desc, n)
            res = snf(m, desc)
            diag = la.mat_mul(res.u, la.mat_mul(m, res.v))
            expected = [[desc.pi_power(res.exps[i]) if i == j else desc.zero
                         for j in range(n)] for i in range(n)]
            assert la.mat_eq(diag, expected)
            assert list(res.exps) == sorted(res.exps, reverse=True)
            # change-of-basis matrices are integral with integral inverses
            for u, ui in ((res.u, res.u_inv), (res.v, res.v_inv)):
                assert la.mat_eq(la.mat_mul(u, ui), la.identity(desc, n))
                for row in list(u) + list(ui):
                    for x in row:
                        assert x.valuation() >= 0
            det_val = la.det(m, desc).valuation()
            assert sum(res.exps) == det_val

    def test_integral_matrix_with_det_valuation_four(self, gauss5):
        d = gauss5
        m = [[d.rational(5), d.one, d.zero],
             [d.zero, d.rational(5), d.one],
             [d.zero, d.zero, d.rational(25)]]
        assert la.det(m, d).valuation() == 4
        res = snf(m, d)
        assert sum(res.exps) == 4

    def test_singular_matrix_rejected(self, gauss5):
        d = gauss5
        with pytest.raises(SingularMatrix):
            snf([[d.one, d.one], [d.one, d.one]], d)


class TestLatticeBasics:
    def test_standard_lattice_contains_integral_vectors(self, gauss5):
        lat = standard_lattice(gauss5, 3)
        assert lat.contains_vector([gauss5.one, gauss5.rational(7), gauss5.pi])
        assert not lat.contains_vector(
            [gauss5.one * gauss5.pi_power(-1), gauss5.zero, gauss5.zero])

    def test_transition_matrix_recovers_basis(self, gauss5):
        rng = random.Random("trans")
        a = random_lattice(rng, gauss5, 3)
        b = random_lattice(rng, gauss5, 3)
        t = a.transition_from(b)
        assert la.mat_eq(la.mat_mul(a.basis, t), b.basis)

    def test_equal_lattices_with_different_bases(self, gauss5):
        d = gauss5
        a = standard_lattice(d, 2)
        b = Lattice(d, [[d.one, d.rational(3)], [d.one, d.rational(4)]])
        assert a.contains_lattice(b) and b.contains_lattice(a)
        assert a == b

    def test_scaling_changes_index(self, gauss5, quad7):
        for desc in (gauss5, quad7):
            lat = standard_lattice(desc, 3)
            small = scale_lattice(desc.pi_power(2), lat)
            assert lat.contains_lattice(small)
            assert quotient_length(small, lat) == 6
            assert quotient_invariants(small, lat) == [2, 2, 2]

    def test_quotient_length_requires_containment(self, gauss5):
        lat = standard_lattice(gauss5, 2)
        big = scale_lattice(gauss5.pi_power(-1), lat)
        with pytest.raises(NotContained):
            quotient_length(big, lat)


class TestSumIntersect:
    @pytest.mark.parametrize("descname", ["gauss5", "real5"])
    def test_bounds_and_modularity(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"sum-{descname}")
        for _ in range(40):
            n = rng.randint(1, 3)
            a = random_lattice(rng, desc, n)
            b = random_lattice(rng, desc, n)
            s = lattice_sum(a, b)
            t = lattice_intersect(a, b)
            assert s.contains_lattice(a) and s.contains_lattice(b)
            assert a.contains_lattice(t) and b.contains_lattice(t)
            # second isomorphism theorem on lengths
            assert quotient_length(b, s) == quotient_length(t, a)

    def test_sum_contains_both_basis_vectors(self, gauss5):
        rng = random.Random("sum-members")
        for _ in range(20):
            a = random_lattice(rng, gauss5, 3)
            b = random_lattice(rng, gauss5, 3)
            s = lattice_sum(a, b)
            for col in range(3):
                assert s.contains_vector([a.basis[r][col] for r in range(3)])
                assert s.contains_vector([b.basis[r][col] for r in range(3)])


class TestDualLattice:
    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_involution_and_inclusion_reversal(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"dual-{descname}")
        for _ in range(30):
            n = rng.randint(1, 3)
            m = random_invertible(rng, desc, n)
            # double dual needs a reflexive pairing; m^T m is symmetric
            gram = la.mat_mul(la.transpose(m), m)
            a = random_lattice(rng, desc, n)
            sub = scale_lattice(desc.pi_power(rng.randint(1, 2)), a)
            da = dual_lattice(a, gram)
            dsub = dual_lattice(sub, gram)
            assert dual_lattice(da, gram) == a
            assert dsub.contains_lattice(da)

    def test_hermitian_double_dual(self, gauss7):
        desc = gauss7
        rng = random.Random("herm-dual")
        conj = lambda x: x.conjugate()
        for _ in range(10):
            n = rng.randint(1, 3)
            m = random_invertible(rng, desc, n)
            gram = la.mat_mul(la.transpose(la.mat_apply(conj, m)), m)
            lat = random_lattice(rng, desc, n)
            dd = dual_lattice(dual_lattice(lat, gram, conj=conj), gram, conj=conj)
            assert dd == lat

    def test_standard_lattice_self_dual_under_identity(self, gauss5):
        lat = standard_lattice(gauss5, 3)
        assert dual_lattice(lat, la.identity(gauss5, 3)) == lat

    def test_dual_pairing_is_integral(self, gauss5):
        rng = random.Random("dualpair")
        gram = random_invertible(rng, gauss5, 2)
        lat = random_lattice(rng, gauss5, 2)
        dual = dual_lattice(lat, gram)
        prod = la.mat_mul(la.transpose(dual.basis), la.mat_mul(gram, lat.basis))
        for row in prod:
            for x in row:
                assert x.valuation() >= 0


class TestStabilize:
    def test_stabilized_lattice_is_stable_and_contains_start(self, gauss5):
        rep = quaternion_rep(gauss5)
        rng = random.Random("stab")
        for _ in range(15):
            start = random_lattice(rng, gauss5, 2)
            big = stabilize(start, rep.generators)
            assert big.contains_lattice(start)
            assert is_stable(big, rep.generators)

    def test_already_stable_is_unchanged(self, gauss5):
        rep = quaternion_rep(gauss5)
        lat = standard_lattice(gauss5, 2)
        assert stabilize(lat, rep.generators) == lat


def signed_swaps(desc, n):
    """Generators of the signed permutation group of degree n."""
    z, o = desc.zero, desc.one
    swap = [[o if j == (i + 1) % n else z for j in range(n)] for i in range(n)]
    sign = [[(-o if i == 0 else o) if i == j else z for j in range(n)] for i in range(n)]
    return [swap, sign]


def reference_stabilize(lat, mats):
    """The sum-then-measure algorithm: every moved lattice is added, and the
    sum is adopted when it has positive length over the current lattice."""
    cur = lat
    changed = True
    while changed:
        changed = False
        for m in mats:
            moved = Lattice(cur.field, la.mat_mul(m, cur.basis))
            s = lattice_sum(cur, moved)
            if quotient_length(cur, s) != 0:
                cur = s
                changed = True
    return cur


def reference_dot_dual(lat):
    return Lattice(lat.field, la.mat_inv(la.transpose(lat.basis), lat.field))


def assert_inverse(lat):
    assert la.mat_eq(la.mat_mul(lat.basis, lat.inverse), la.identity(lat.field, lat.dim))
    assert la.mat_eq(la.mat_mul(lat.inverse, lat.basis), la.identity(lat.field, lat.dim))


@pytest.fixture
def count_solves(monkeypatch):
    """List that records every linalg.solve call (mat_inv goes through it)."""
    calls = []
    real = la.solve

    def counted(a, b, field):
        calls.append(len(a))
        return real(a, b, field)

    monkeypatch.setattr(la, "solve", counted)
    return calls


class TestCarriedInverses:
    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_every_operation_carries_a_true_inverse(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"inverse-{descname}")
        conj = lambda x: x.conjugate()
        for _ in range(4):
            n = rng.randint(1, 3)
            a = random_lattice(rng, desc, n)
            b = random_lattice(rng, desc, n)
            m = random_invertible(rng, desc, n)
            sym = la.mat_mul(la.transpose(m), m)
            made = [
                standard_lattice(desc, n),
                scale_lattice(desc.pi_power(rng.randint(-2, 2)), a),
                lattice_sum(a, b),
                lattice_intersect(a, b),
                dual_lattice(a, sym),
                GramForm(desc, sym, "symmetric").dual(a),
                apply_matrix(m, a),
            ]
            if desc.involution is not None:
                herm = la.mat_mul(la.conj_transpose(m, conj), m)
                made += [dual_lattice(a, herm, conj=conj),
                         GramForm(desc, herm, "hermitian").dual(a)]
            for lat in made:
                assert_inverse(lat)

    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_bases_match_inverting_definitions(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"defn-{descname}")
        conj = lambda x: x.conjugate()
        for _ in range(4):
            n = rng.randint(1, 3)
            a = random_lattice(rng, desc, n)
            b = random_lattice(rng, desc, n)
            ref = reference_dot_dual(lattice_sum(reference_dot_dual(a), reference_dot_dual(b)))
            assert la.mat_eq(lattice_intersect(a, b).basis, ref.basis)
            m = random_invertible(rng, desc, n)
            pairs = [(la.mat_mul(la.transpose(m), m), None, "symmetric")]
            if desc.involution is not None:
                pairs.append((la.mat_mul(la.conj_transpose(m, conj), m), conj, "hermitian"))
            for gram, cj, kind in pairs:
                want = la.mat_inv(la.transpose(la.mat_mul(gram, a.basis)), desc)
                if cj is not None:
                    want = la.mat_apply(cj, want)
                assert la.mat_eq(dual_lattice(a, gram, conj=cj).basis, want)
                assert la.mat_eq(GramForm(desc, gram, kind).dual(a).basis, want)

    def test_chain_operations_invert_nothing(self, gauss5, count_solves):
        rng = random.Random("no-solves")
        a = random_lattice(rng, gauss5, 3)
        b = random_lattice(rng, gauss5, 3)
        m = random_invertible(rng, gauss5, 3)
        form = GramForm(gauss5, la.mat_mul(la.transpose(m), m), "symmetric")
        assert len(count_solves) == 2  # the checked bases of a and b
        del count_solves[:]
        form.dual(a)
        assert len(count_solves) == 1  # the gram inverse, kept on the form
        del count_solves[:]
        d = form.dual(lattice_intersect(scale_lattice(gauss5.pi_power(-1), a), b))
        s = lattice_sum(standard_lattice(gauss5, 3), d)
        d.contains_lattice(s)
        is_stable(s, signed_swaps(gauss5, 3))
        stabilize(s, signed_swaps(gauss5, 3))
        assert count_solves == []

    def test_moved_lattice_inverts_only_when_read(self, gauss5, count_solves):
        rng = random.Random("lazy")
        a = standard_lattice(gauss5, 2)
        moved = apply_matrix(random_invertible(rng, gauss5, 2), a)
        a.contains_lattice(moved)
        assert count_solves == []
        moved.inverse
        moved.inverse
        assert count_solves == [2]


class TestStabilityPredicates:
    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_is_stable_matches_two_containments(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"stable-{descname}")
        z, o, pi = desc.zero, desc.one, desc.pi
        for _ in range(4):
            n = rng.randint(2, 3)
            lat = stabilize(random_lattice(rng, desc, n), signed_swaps(desc, n))
            shrink = [[pi if i == j == 0 else (o if i == j else z) for j in range(n)]
                      for i in range(n)]
            mats = signed_swaps(desc, n) + [
                shrink,                                   # M L strictly inside L
                la.scalar_mul(desc.pi_power(-1), la.identity(desc, n)),
                random_invertible(rng, desc, n),
            ]
            for m in mats:
                moved = apply_matrix(m, lat)
                want = lat.contains_lattice(moved) and moved.contains_lattice(lat)
                assert is_stable(lat, [m]) == want
            assert is_stable(lat, signed_swaps(desc, n))
            assert lat.contains_lattice(apply_matrix(shrink, lat))
            assert not is_stable(lat, [shrink])

    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_stabilize_matches_reference_basis(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"stab-ref-{descname}")
        for _ in range(4):
            n = rng.randint(2, 3)
            start = random_lattice(rng, desc, n)
            gens = signed_swaps(desc, n)
            assert la.mat_eq(stabilize(start, gens).basis,
                             reference_stabilize(start, gens).basis)

    def test_stabilize_matches_reference_on_quaternions(self, gauss5):
        rep = quaternion_rep(gauss5)
        rng = random.Random("stab-ref-q8")
        for _ in range(6):
            start = random_lattice(rng, gauss5, 2)
            assert la.mat_eq(stabilize(start, rep.generators).basis,
                             reference_stabilize(start, rep.generators).basis)


class TestSingularInputs:
    def test_singular_basis_rejected(self, gauss5):
        o = gauss5.one
        with pytest.raises(SingularMatrix):
            Lattice(gauss5, [[o, o], [o, o]])

    def test_singular_matrix_rejected_by_stability(self, gauss5):
        o, z = gauss5.one, gauss5.zero
        lat = standard_lattice(gauss5, 2)
        singular = [[o, o], [o, o]]
        for mats in ([singular], [[[z, o], [o, z]], singular]):
            with pytest.raises(SingularMatrix):
                stabilize(lat, mats)
            with pytest.raises(SingularMatrix):
                is_stable(lat, mats)

    def test_scaling_by_zero_rejected(self, gauss5):
        lat = standard_lattice(gauss5, 2)
        with pytest.raises(SingularMatrix):
            scale_lattice(gauss5.zero, lat)
        with pytest.raises(SingularMatrix):
            scale_lattice(0, lat)
