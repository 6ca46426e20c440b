import functools
import random

import pytest

from isodescent import exactfield
from isodescent import lattice as lattice_mod
from isodescent import linalg as la
from isodescent.errors import (
    DimensionMismatch,
    InvalidDescriptor,
    NotContained,
    NotStable,
    SingularMatrix,
)
from isodescent.exactfield import FieldElement, make_descriptor
from isodescent.forms import GramForm
from isodescent.lattice import (
    Lattice,
    is_stable,
    lattice_intersect,
    lattice_sum,
    maps_into,
    quotient_length,
    scale_lattice,
    snf,
    stabilize,
    standard_lattice,
)

from conftest import (SNF_FIELDS, assert_carried_valuations, contains_vector, quaternion_rep,
                      random_field_element, random_invertible, reference_snf, snf_field)


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
            assert list(res.exps) == sorted(res.exps, reverse=True)
            # the row transform is integral with an integral inverse
            assert la.mat_eq(la.mat_mul(res.u, res.u_inv), la.identity(desc, n))
            assert all(x.is_integral() for row in res.u + res.u_inv for x in row)
            # diag(pi^-exps) u m is integral with a unit determinant, so its
            # inverse is integral too
            w = [[desc.pi_power(-a) * x for x in row]
                 for a, row in zip(res.exps, la.mat_mul(res.u, m))]
            assert all(x.is_integral() for row in w for x in row)
            assert la.det(w, desc).valuation() == 0
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
        assert contains_vector(lat, [gauss5.one, gauss5.rational(7), gauss5.pi])
        assert not contains_vector(
            lat, [gauss5.one * gauss5.pi_power(-1), gauss5.zero, gauss5.zero])

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
            assert snf(lat.transition_from(small), desc).exps == [2, 2, 2]

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
                assert contains_vector(s, [a.basis[r][col] for r in range(3)])
                assert contains_vector(s, [b.basis[r][col] for r in range(3)])


class TestDualLattice:
    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_involution_and_inclusion_reversal(self, descname, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"dual-{descname}")
        for _ in range(30):
            n = rng.randint(1, 3)
            m = random_invertible(rng, desc, n)
            # double dual needs a reflexive pairing; m^T m is symmetric
            dual = GramForm(desc, la.mat_mul(la.transpose(m), m), "symmetric").dual
            a = random_lattice(rng, desc, n)
            sub = scale_lattice(desc.pi_power(rng.randint(1, 2)), a)
            da = dual(a)
            assert dual(da) == a
            assert dual(sub).contains_lattice(da)

    def test_hermitian_double_dual(self, gauss7):
        desc = gauss7
        rng = random.Random("herm-dual")
        conj = lambda x: x.conjugate()
        for _ in range(10):
            n = rng.randint(1, 3)
            m = random_invertible(rng, desc, n)
            dual = GramForm(desc, la.mat_mul(la.conj_transpose(m, conj), m), "hermitian").dual
            lat = random_lattice(rng, desc, n)
            assert dual(dual(lat)) == lat

    def test_standard_lattice_self_dual_under_identity(self, gauss5):
        lat = standard_lattice(gauss5, 3)
        assert GramForm(gauss5, la.identity(gauss5, 3), "symmetric").dual(lat) == lat

    def test_dual_pairing_is_integral(self, gauss5):
        rng = random.Random("dualpair")
        m = random_invertible(rng, gauss5, 2)
        gram = la.mat_mul(la.transpose(m), m)
        lat = random_lattice(rng, gauss5, 2)
        dual = GramForm(gauss5, gram, "symmetric").dual(lat)
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
                GramForm(desc, sym, "symmetric").dual(a),
                Lattice(desc, la.mat_mul(m, a.basis)),
            ]
            if desc.involution is not None:
                herm = la.mat_mul(la.conj_transpose(m, conj), m)
                made.append(GramForm(desc, herm, "hermitian").dual(a))
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
                    want = [[cj(x) for x in row] for row in want]
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
                moved = Lattice(desc, la.mat_mul(m, lat.basis))
                assert maps_into(m, lat) == lat.contains_lattice(moved)
                want = lat.contains_lattice(moved) and moved.contains_lattice(lat)
                assert is_stable(lat, [m]) == want
            assert is_stable(lat, signed_swaps(desc, n))
            assert maps_into(shrink, lat)
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


@pytest.fixture
def count_checks(monkeypatch):
    """Counts of the la.det and maps_into calls the lattice module makes."""
    calls = {"det": 0, "maps_into": 0}
    det, maps = la.det, lattice_mod.maps_into

    def counted_det(m, field):
        calls["det"] += 1
        return det(m, field)

    def counted_maps_into(m, lat):
        calls["maps_into"] += 1
        return maps(m, lat)

    monkeypatch.setattr(la, "det", counted_det)
    monkeypatch.setattr(lattice_mod, "maps_into", counted_maps_into)
    return calls


def fresh_copy(m):
    """A value-equal copy of m that shares no list and no element with it."""
    return [[FieldElement(x.field, x.coeffs) for x in row] for row in m]


class TestStabilityRecord:
    """stabilize records on the lattice it returns the values of the
    matrices it has shown the lattice stable under; is_stable skips exactly
    those and decides every other matrix as before."""

    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_recorded_generators_are_not_checked_again(self, descname, request,
                                                       count_checks):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"record-{descname}")
        for _ in range(4):
            n = rng.randint(2, 3)
            gens = signed_swaps(desc, n)
            lat = stabilize(random_lattice(rng, desc, n), gens)
            for mats in (gens, [fresh_copy(m) for m in gens], gens[::-1]):
                count_checks.update(det=0, maps_into=0)
                assert is_stable(lat, mats)
                assert count_checks == {"det": 0, "maps_into": 0}

    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_other_matrices_are_decided_in_full(self, descname, request, count_checks):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"record-others-{descname}")
        z, o, pi = desc.zero, desc.one, desc.pi
        for _ in range(4):
            n = rng.randint(2, 3)
            gens = signed_swaps(desc, n)
            lat = stabilize(random_lattice(rng, desc, n), gens)
            changed = fresh_copy(gens[0])
            changed[0][0] = changed[0][0] + o
            shrink = [[pi if i == j == 0 else (o if i == j else z) for j in range(n)]
                      for i in range(n)]
            others = [changed, shrink,
                      la.scalar_mul(desc.pi_power(-1), la.identity(desc, n)),
                      random_invertible(rng, desc, n)]
            for m in others:
                moved = Lattice(desc, la.mat_mul(m, lat.basis))
                want = lat.contains_lattice(moved) and moved.contains_lattice(lat)
                count_checks.update(det=0)
                assert is_stable(lat, [m]) == want
                assert is_stable(lat, gens + [m]) == want
                assert count_checks["det"] == 2
            singular = [[o] * n for _ in range(n)]
            with pytest.raises(SingularMatrix):
                is_stable(lat, gens + [singular])

    def test_negative_valuation_determinant_refused_at_once(self, rat5, monkeypatch):
        """diag(1/5, 1) maps no lattice into itself, and stabilize once grew
        the lattice under it forever; a determinant of positive valuation
        is stabilized as before, and not recorded."""
        z, o = rat5.zero, rat5.one
        lat = standard_lattice(rat5, 2)
        five = [[rat5.rational(5), z], [z, o]]

        def grown(*args):
            raise AssertionError("stabilize grew the lattice")

        monkeypatch.setattr(lattice_mod, "_span", grown)
        with pytest.raises(NotStable):
            stabilize(lat, [[[o / rat5.rational(5), z], [z, o]]])
        assert stabilize(lat, [five]) is lat
        assert not is_stable(lat, [five])


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


# ----------------------------------------------------------------------
# the row side of the Smith normal form against the full reference


def random_snf_input(rng, desc, nr, nc):
    """Entries of either sign of valuation, about a third of them zero."""
    return [[desc.zero if rng.random() < 0.3 else random_field_element(rng, desc)
             for _ in range(nc)] for _ in range(nr)]


def rank_deficient(rng, desc, nr, nc):
    """The last row a multiple of the first, so the rank is below nr."""
    m = random_snf_input(rng, desc, nr, nc)
    c = random_field_element(rng, desc)
    m[-1] = [c * x for x in m[0]]
    return m


def reference_span(field, b1, b2):
    """The sum's basis u_inv diag(pi^e) and its inverse diag(pi^-e) u, on
    the full reference form of the joint matrix (b1 | b2)."""
    n = len(b1)
    res = reference_snf([r1 + r2 for r1, r2 in zip(b1, b2)], field)
    basis = [[res.u_inv[i][j] * field.pi_power(res.exps[j]) for j in range(n)]
             for i in range(n)]
    inv = [[field.pi_power(-res.exps[i]) * x for x in res.u[i]] for i in range(n)]
    return basis, inv


def assert_span_matches_the_reference(a, b):
    """lattice_sum and lattice_intersect, basis and inverse entry by entry,
    against reference_span of the two bases and of the two dot duals, and
    every valuation carried into them exact."""
    field = a.field
    basis, inv = reference_span(field, a.basis, b.basis)
    dual_basis, dual_inv = reference_span(field, la.transpose(a.inverse),
                                          la.transpose(b.inverse))
    for lat, want, want_inv in ((lattice_sum(a, b), basis, inv),
                                (lattice_intersect(a, b), la.transpose(dual_inv),
                                 la.transpose(dual_basis))):
        assert la.mat_eq(lat.basis, want) and la.mat_eq(lat.inverse, want_inv)
        assert_carried_valuations(lat.basis + lat.inverse)


def assert_rows_match_the_reference(m, desc):
    """snf(m) against reference_snf(m): the same u, u_inv and exps, or
    SingularMatrix from both, and every valuation carried into u and u_inv
    exact.  The reference certifies valuations of m's entries first, so snf
    starts from some memos set; so does the identity's one."""
    desc.one.valuation()
    try:
        ref = reference_snf(m, desc)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            snf(m, desc)
        return
    rows = snf(m, desc)
    assert la.mat_eq(rows.u, ref.u) and la.mat_eq(rows.u_inv, ref.u_inv)
    assert rows.exps == ref.exps
    assert_carried_valuations(rows.u + rows.u_inv)
    # the full form's m v is u_inv (diag(pi^exps) | 0), which is what
    # descend builds from the row side in place of B v
    r, nc = rows.rank, len(m[0])
    want = [[row[j] * desc.pi_power(rows.exps[j]) if j < r else desc.zero
             for j in range(nc)] for row in rows.u_inv]
    assert la.mat_eq(la.mat_mul(m, ref.v), want)


class TestSmithAgainstReference:
    @pytest.mark.parametrize("fi", range(len(SNF_FIELDS)))
    def test_full_and_row_side_match_the_reference(self, fi):
        desc = snf_field(fi)
        rng = random.Random(f"snf-ref-{fi}")
        for trial in range(10):
            n = rng.randint(1, 3)
            assert_rows_match_the_reference(
                random_snf_input(rng, desc, n, n if trial % 2 else 2 * n), desc)

    @pytest.mark.parametrize("fi", range(3))
    def test_workload_shapes_match_the_reference(self, fi):
        """4 x 4 and 4 x 8, the shapes of stabilize's and the chain's forms
        over Q, Q(i) and Q(sqrt -7)."""
        desc = snf_field(fi)
        rng = random.Random(f"snf-wide-{fi}")
        for nc in (4, 8, 4, 8):
            assert_rows_match_the_reference(random_snf_input(rng, desc, 4, nc), desc)

    @pytest.mark.parametrize("fi", range(len(SNF_FIELDS)))
    def test_rank_deficient_inputs_raise(self, fi):
        desc = snf_field(fi)
        rng = random.Random(f"snf-deficient-{fi}")
        for n in (2, 3):
            for nc in (n, 2 * n):
                m = rank_deficient(rng, desc, n, nc)
                with pytest.raises(SingularMatrix):
                    reference_snf(m, desc)
                with pytest.raises(SingularMatrix):
                    snf(m, desc)

    @pytest.mark.parametrize("fi", range(len(SNF_FIELDS)))
    def test_sum_and_intersection_match_the_reference(self, fi):
        desc = snf_field(fi)
        rng = random.Random(f"sum-ref-{fi}")
        for _ in range(4):
            n = rng.randint(1, 3)
            assert_span_matches_the_reference(random_lattice(rng, desc, n),
                                              random_lattice(rng, desc, n))

    @pytest.mark.parametrize("fi", range(3))
    def test_workload_sums_match_the_reference(self, fi):
        """4 x 8 joints, the shape of stabilize's and the chain's sums, over
        Q, Q(i) and Q(sqrt -7)."""
        desc = snf_field(fi)
        rng = random.Random(f"sum-wide-{fi}")
        for _ in range(2):
            assert_span_matches_the_reference(random_lattice(rng, desc, 4),
                                              random_lattice(rng, desc, 4))

    def test_row_side_builds_no_column_transform(self, gauss5, monkeypatch):
        sizes = []
        real = la.identity

        def recorded(field, n):
            sizes.append(n)
            return real(field, n)

        monkeypatch.setattr(la, "identity", recorded)
        rng = random.Random("rows-only")
        m = random_invertible(rng, gauss5, 3) + random_invertible(rng, gauss5, 3)
        wide = [r1 + r2 for r1, r2 in zip(m[:3], m[3:])]
        snf(wide, gauss5)
        assert sizes == [3, 3]
        a, b = Lattice(gauss5, m[:3]), Lattice(gauss5, m[3:])
        del sizes[:]
        lattice_sum(a, b)
        snf(a.transition_from(scale_lattice(gauss5.pi, a)), gauss5)
        assert sizes == [3, 3, 3, 3]  # u and u_inv of each, no v or v_inv


# ----------------------------------------------------------------------
# containment as an integrality test


def old_contains(l1, l2):
    """The definition before the integer test: every entry of B1^-1 B2 has a
    certified valuation >= 0."""
    return all(x.valuation() >= 0 for row in l1.transition_from(l2) for x in row)


# the fields of tests/test_properties.py
INTEGRALITY_FIELDS = [(4, 5, (1,), None), (4, 7, (1,), 3), (5, 5, (1, 4), None),
                      (7, 7, (1, 2, 4), 3), (9, 3, (1,), None), (28, 7, (1, 13), None)]


@functools.lru_cache(maxsize=None)
def integrality_field(i):
    n, ell, sub, inv = INTEGRALITY_FIELDS[i]
    return make_descriptor(n, ell, subgroup=sub, involution=inv)


class TestIntegralityTest:
    @pytest.mark.parametrize("fi", range(len(INTEGRALITY_FIELDS)))
    def test_boundary_entries(self, fi):
        """pi^k / ell^t has valuation k - e t: -1 at k = e t - 1, 0 at k = e t."""
        desc = integrality_field(fi)
        rng = random.Random(f"boundary-{fi}")
        for t in (1, 2, 3):
            for k in (desc.e * t - 1, desc.e * t):
                entry = desc.pi_power(k) / desc.rational(desc.ell ** t)
                n = rng.randint(1, 3)
                a = random_lattice(rng, desc, n)
                c = random_invertible(rng, desc, n, lambda r, d: random_field_element(
                    r, d, integral=True))
                i, j = rng.randrange(n), rng.randrange(n)
                c[i][j] = entry
                if la.det(c, desc) == desc.zero:
                    continue
                b = Lattice(desc, la.mat_mul(a.basis, c))
                assert a.contains_lattice(b) == old_contains(a, b)
                # the other entries are integral, so the boundary decides
                assert a.contains_lattice(b) == (k >= desc.e * t)
                column = [row[j] for row in b.basis]
                assert contains_vector(a, column) == (k >= desc.e * t)
                assert entry.is_integral() == (k >= desc.e * t)

    @pytest.mark.parametrize("fi", range(len(INTEGRALITY_FIELDS)))
    def test_random_pairs_match_the_valuation_test(self, fi):
        desc = integrality_field(fi)
        rng = random.Random(f"contains-{fi}")
        for _ in range(12):
            n = rng.randint(1, 3)
            a = random_lattice(rng, desc, n)
            b = random_lattice(rng, desc, n)
            pairs = ((a, b), (b, a), (a, lattice_sum(a, b)), (lattice_sum(a, b), a))
            # the second round reads the integer forms the first one kept
            for _ in range(2):
                for x, y in pairs:
                    assert x.contains_lattice(y) == old_contains(x, y)

    def test_contains_builds_no_element(self, quad7, monkeypatch):
        rng = random.Random("no-elements")
        a = random_lattice(rng, quad7, 3)
        b = lattice_sum(a, random_lattice(rng, quad7, 3))
        vec = [a.basis[r][0] for r in range(3)]
        want = (a.contains_lattice(b), b.contains_lattice(a), contains_vector(b, vec))

        def forbidden(*args, **kwargs):
            raise AssertionError("containment built or certified an element")

        monkeypatch.setattr(FieldElement, "valuation", forbidden)
        monkeypatch.setattr(FieldElement, "__init__", forbidden)
        monkeypatch.setattr(la, "mat_mul", forbidden)
        monkeypatch.setattr(exactfield, "_make", forbidden)
        got = (a.contains_lattice(b), b.contains_lattice(a), contains_vector(b, vec))
        assert got == want == (False, True, True)


class TestDimensionMismatch:
    def test_every_operation_refuses_a_2_and_a_3_dim_lattice(self, gauss5):
        rng = random.Random("dims")
        a = random_lattice(rng, gauss5, 2)
        b = random_lattice(rng, gauss5, 3)
        i3 = la.identity(gauss5, 3)
        calls = [
            lambda: lattice_sum(a, b),
            lambda: lattice_sum(b, a),
            lambda: lattice_intersect(a, b),
            lambda: lattice_intersect(b, a),
            lambda: a.contains_lattice(b),
            lambda: b.contains_lattice(a),
            lambda: a == b,
            lambda: b == a,
            lambda: contains_vector(a, [gauss5.one] * 3),
            lambda: contains_vector(b, [gauss5.one] * 2),
            lambda: a.transition_from(b),
            lambda: quotient_length(a, b),
            lambda: quotient_length(b, a),
            lambda: maps_into(i3, a),
            lambda: is_stable(a, [i3]),
            lambda: stabilize(a, [i3]),
            lambda: GramForm(gauss5, i3, "symmetric").dual(a),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()


class TestKeptIntegerForms:
    """A lattice keeps the integer rows of its inverse and the integer
    columns of its basis; the tests that read them still check the
    descriptor of every operand."""

    def test_foreign_descriptor_refused(self, gauss5, gauss13):
        rng = random.Random("foreign")
        a = random_lattice(rng, gauss5, 2)
        b = random_lattice(rng, gauss13, 2)
        swap = signed_swaps(gauss13, 2)[0]
        calls = [
            lambda: a.contains_lattice(b),
            lambda: b.contains_lattice(a),
            lambda: a == b,
            lambda: b == a,
            lambda: maps_into(swap, a),
            lambda: stabilize(a, [swap]),
            lambda: contains_vector(a, [gauss13.one] * 2),
            lambda: a.transition_from(b),
            lambda: b.transition_from(a),
            lambda: GramForm(gauss5, la.identity(gauss5, 2), "symmetric").dual(b),
            lambda: GramForm(gauss13, la.identity(gauss13, 2), "symmetric").dual(a),
        ]
        for _ in range(2):  # once building the integer forms, once reading them
            for call in calls:
                with pytest.raises(InvalidDescriptor):
                    call()

    def test_clone_descriptor_accepted(self, gauss5):
        clone = make_descriptor(4, 5)
        assert clone is not gauss5 and clone == gauss5
        rng = random.Random("clone")
        own, cloned = signed_swaps(gauss5, 2), signed_swaps(clone, 2)
        for _ in range(6):
            a = random_lattice(rng, gauss5, 2)
            c = random_lattice(rng, gauss5, 2)
            # c over the clone
            b = Lattice(clone, [[clone.element(list(x.coeffs)) for x in row] for row in c.basis])
            assert b == c and c == b
            for x, y in ((a, b), (b, a), (a, lattice_sum(a, b)), (lattice_sum(a, b), b)):
                assert x.contains_lattice(y) == old_contains(x, y)
            assert a.contains_lattice(b) == a.contains_lattice(c)
            assert b.contains_lattice(a) == c.contains_lattice(a)
            for m1, m2 in zip(own, cloned):
                assert maps_into(m2, a) == maps_into(m1, a)
                assert maps_into(m1, b) == maps_into(m1, c)
            assert la.mat_eq(stabilize(a, cloned).basis, stabilize(a, own).basis)
            assert la.mat_eq(stabilize(b, own).basis, stabilize(c, own).basis)

    @pytest.mark.parametrize("descname", ["gauss5", "gauss7", "quad7"])
    def test_transition_matches_mat_mul(self, descname, request):
        """transition_from multiplies the kept integer forms of B^-1 and B'."""
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"transition-{descname}")
        for _ in range(6):
            n = rng.randint(1, 3)
            a, b = random_lattice(rng, desc, n), random_lattice(rng, desc, n)
            for x, y in ((a, b), (b, a), (a, lattice_sum(a, b)), (lattice_sum(a, b), a)):
                for _ in range(2):  # once building the integer forms, once reading them
                    assert la.mat_eq(x.transition_from(y), la.mat_mul(x.inverse, y.basis))

    @pytest.mark.parametrize("descname", ["gauss5", "quad7"])
    def test_maps_into_matches_the_image_lattice(self, descname, request):
        """maps_into reads m B off the integer forms; the reference builds
        the image lattice m L and tests its containment."""
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"maps-into-{descname}")
        for _ in range(8):
            n = rng.randint(1, 3)
            lat = random_lattice(rng, desc, n)
            m = random_invertible(rng, desc, n)
            image = Lattice(desc, la.mat_mul(m, lat.basis))
            for _ in range(2):
                assert maps_into(m, lat) == old_contains(lat, image)
