import random

import pytest

from isodescent import forms
from isodescent import linalg as la
from isodescent.descent import balance
from isodescent.errors import (
    CharTwo,
    DegenerateForm,
    DimensionMismatch,
    KindMismatch,
    NoInvolution,
    PreconditionViolated,
)
from isodescent.finitefield import ResidueField
from isodescent.forms import (
    AssembledForm,
    GramForm,
    ResidueForm,
    classify_gram,
    normalize_scale,
    reduce_bar,
    reduce_gram,
    reduce_tilde,
)
from isodescent.lattice import Lattice, scale_lattice, standard_lattice
from isodescent.localring import LambdaEngine

from conftest import assert_matrix_equal, evaluate, random_field_element, random_invertible


def symplectic2(desc):
    one = desc.one
    return [[desc.zero, one], [-one, desc.zero]]


def symmetric_invertible(rng, desc, n):
    m = random_invertible(rng, desc, n)
    return la.mat_mul(la.transpose(m), m)


def hermitian_invertible(rng, desc, n):
    m = random_invertible(rng, desc, n)
    mh = la.conj_transpose(m, lambda x: x.conjugate())
    return la.mat_mul(mh, m)


class TestClassify:
    def test_standard_symplectic_is_alternating(self, gauss5):
        assert classify_gram(gauss5, symplectic2(gauss5)) == "alternating"

    def test_identity_is_symmetric(self, gauss5):
        assert classify_gram(gauss5, la.identity(gauss5, 3)) == "symmetric"

    def test_hermitian_needs_the_involution(self, gauss7):
        i = gauss7.zeta_power(1)
        two = gauss7.rational(2)
        gram = [[gauss7.one, i], [i.conjugate(), two]]
        assert classify_gram(gauss7, gram) == "hermitian"

    def test_no_kind_returns_none(self, gauss5):
        one, two = gauss5.one, gauss5.rational(2)
        gram = [[one, two], [one + two, two]]
        assert classify_gram(gauss5, gram) is None

    def test_zero_matrix_prefers_alternating(self, gauss5):
        z = gauss5.zero
        assert classify_gram(gauss5, [[z, z], [z, z]]) == "alternating"


# (kind, gram from one and zero, error) for each check every form makes
REFUSALS = {
    "unknown-kind": ("unitary", lambda o, z: [[o]], KindMismatch),
    "non-square": ("symmetric", lambda o, z: [[o, z]], KindMismatch),
    "hermitian-without-involution": ("hermitian", lambda o, z: [[o]], NoInvolution),
    "symmetric-axiom": ("symmetric", lambda o, z: [[o, o + o], [o + o + o, o + o]],
                        KindMismatch),
    "alternating-axiom": ("alternating", lambda o, z: [[o]], KindMismatch),
    # skew, but with a nonzero diagonal
    "alternating-diagonal": ("alternating", lambda o, z: [[o, o], [-o, z]], KindMismatch),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
@pytest.mark.parametrize("make", ["GramForm", "ResidueForm"])
def test_every_form_refuses(gauss5, make, case):
    # gauss5 carries no involution, so neither side has one for the hermitian kind
    field = gauss5 if make == "GramForm" else gauss5.residue_field
    kind, gram, error = REFUSALS[case]
    with pytest.raises(error):
        getattr(forms, make)(field, gram(field.one, field.zero), kind)


class TestGramForm:
    def test_singular_gram_rejected(self, gauss5):
        one = gauss5.one
        with pytest.raises(DegenerateForm):
            GramForm(gauss5, [[one, one], [one, one]], "symmetric")

    def test_bilinear_evaluation(self, gauss5):
        rng = random.Random("forms-bilinear")
        f = GramForm(gauss5, symmetric_invertible(rng, gauss5, 3), "symmetric")
        for _ in range(25):
            x = [random_field_element(rng, gauss5) for _ in range(3)]
            y = [random_field_element(rng, gauss5) for _ in range(3)]
            a = random_field_element(rng, gauss5)
            assert evaluate(f, x, y) == evaluate(f, y, x)
            assert evaluate(f, [a * v for v in x], y) == a * evaluate(f, x, y)
            assert evaluate(f, x, [a * v for v in y]) == a * evaluate(f, x, y)

    def test_alternating_vanishes_on_diagonal(self, gauss5):
        rng = random.Random("forms-alt")
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        for _ in range(25):
            x = [random_field_element(rng, gauss5) for _ in range(2)]
            y = [random_field_element(rng, gauss5) for _ in range(2)]
            assert evaluate(f, x, x).is_zero
            assert evaluate(f, x, y) == -evaluate(f, y, x)

    def test_sesquilinear_evaluation(self, gauss7):
        rng = random.Random("forms-herm")
        f = GramForm(gauss7, hermitian_invertible(rng, gauss7, 2), "hermitian")
        for _ in range(25):
            x = [random_field_element(rng, gauss7) for _ in range(2)]
            y = [random_field_element(rng, gauss7) for _ in range(2)]
            a = random_field_element(rng, gauss7)
            # conjugate-linear in the first slot, linear in the second
            assert evaluate(f, [a * v for v in x], y) == a.conjugate() * evaluate(f, x, y)
            assert evaluate(f, x, [a * v for v in y]) == a * evaluate(f, x, y)
            assert evaluate(f, y, x) == evaluate(f, x, y).conjugate()

    def test_gram_in_basis_matches_evaluate(self, gauss7):
        rng = random.Random("forms-basis")
        for kind, builder in (("symmetric", symmetric_invertible),
                              ("hermitian", hermitian_invertible)):
            f = GramForm(gauss7, builder(rng, gauss7, 2), kind)
            b = random_invertible(rng, gauss7, 2)
            g = f.gram_in_basis(b)
            cols = la.transpose(b)
            for i in range(2):
                for j in range(2):
                    assert g[i][j] == evaluate(f, cols[i], cols[j])

    def test_isometry_detection(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        one, z = gauss5.one, gauss5.zero
        rot = [[z, -one], [one, z]]
        assert f.is_isometry(la.identity(gauss5, 2))
        assert f.is_isometry(rot)
        assert not f.is_isometry(la.scalar_mul(gauss5.rational(2),
                                               la.identity(gauss5, 2)))

    def test_dual_pairing_is_integral_with_conjugation(self, gauss7):
        rng = random.Random("forms-dual")
        f = GramForm(gauss7, hermitian_invertible(rng, gauss7, 2), "hermitian")
        lat = Lattice(gauss7, random_invertible(rng, gauss7, 2))
        dual = f.dual(lat)
        cols = la.transpose(dual.basis)
        lcols = la.transpose(lat.basis)
        for x in cols:
            for y in lcols:
                assert evaluate(f, x, y).valuation() >= 0


class TestNormalizeScale:
    def test_already_unimodular_means_zero(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        m, f2 = normalize_scale(f, standard_lattice(gauss5, 2))
        assert m == 0
        assert_matrix_equal(f2.gram, f.gram)

    @pytest.mark.parametrize("descname", ["rat5", "real5"])
    def test_ell_times_symplectic_scales_by_minus_e(self, descname, request):
        # v(ell) = e, so removing one factor of ell costs e uniformizer powers
        desc = request.getfixturevalue(descname)
        ell = desc.rational(desc.ell)
        f = GramForm(desc, la.scalar_mul(ell, symplectic2(desc)), "alternating")
        m, f2 = normalize_scale(f, standard_lattice(desc, 2))
        assert m == -desc.e
        unit = desc.pi_power(-desc.e) * ell
        assert unit.valuation() == 0
        assert_matrix_equal(f2.gram, la.scalar_mul(unit, symplectic2(desc)))

    def test_scaling_follows_the_lattice(self, gauss5):
        f = GramForm(gauss5, la.identity(gauss5, 2), "symmetric")
        shrunk = scale_lattice(gauss5.pi_power(2), standard_lattice(gauss5, 2))
        m, f2 = normalize_scale(f, shrunk)
        assert m == -4
        assert_matrix_equal(f2.gram, la.scalar_mul(gauss5.pi_power(-4),
                                                   la.identity(gauss5, 2)))
        again, f3 = normalize_scale(f2, shrunk)
        assert again == 0
        assert_matrix_equal(f3.gram, f2.gram)

    def test_ramified_hermitian_twist_bookkeeping(self, quad7):
        h = GramForm(quad7, [[quad7.one]], "hermitian")
        assert h.twist == 0
        lat = Lattice(quad7, [[quad7.pi_power(1)]])
        m, h2 = normalize_scale(h, lat)
        assert m == -2
        assert h2.twist == 0
        assert h2.reduced_kind_pair() == ("symmetric", "alternating")

    def test_odd_power_input_normalizes_to_even_twist(self, quad7):
        h = GramForm(quad7, [[quad7.one]], "hermitian").scale_by_pi_power(1)
        assert h.twist == 1
        m, h2 = normalize_scale(h, standard_lattice(quad7, 1))
        assert m == -1
        assert h2.twist == 0


class TestReducedKindPair:
    def test_bilinear_kinds_repeat(self, gauss5):
        s = GramForm(gauss5, la.identity(gauss5, 2), "symmetric")
        a = GramForm(gauss5, symplectic2(gauss5), "alternating")
        assert s.reduced_kind_pair() == ("symmetric", "symmetric")
        assert a.reduced_kind_pair() == ("alternating", "alternating")

    def test_unramified_hermitian_stays_hermitian(self, gauss7):
        h = GramForm(gauss7, [[gauss7.one]], "hermitian")
        assert h.reduced_kind_pair() == ("hermitian", "hermitian")
        assert h.scale_by_pi_power(1).reduced_kind_pair() == ("hermitian", "hermitian")
        assert h.scale_by_pi_power(1).twist == 0

    def test_ramified_parity_table(self, quad7):
        h = GramForm(quad7, [[quad7.one]], "hermitian")
        assert h.reduced_kind_pair() == ("symmetric", "alternating")
        odd = h.scale_by_pi_power(1)
        assert odd.twist == 1
        assert odd.reduced_kind_pair() == ("alternating", "symmetric")
        assert odd.scale_by_pi_power(1).twist == 0
        assert h.scale_by_pi_power(2).reduced_kind_pair() == h.reduced_kind_pair()

    def test_ramified_odd_twist_axiom(self, quad7):
        # pi is anti-fixed, so conj-transpose of the scaled gram flips sign
        odd = GramForm(quad7, [[quad7.pi_power(1)]], "hermitian", twist=1)
        assert odd.gram[0][0].conjugate() == -odd.gram[0][0]


class TestResidueForm:
    def test_char_two_rejected(self):
        f2 = ResidueField(2, (0, 1))
        with pytest.raises(CharTwo):
            ResidueForm(f2, [[f2.one]], "symmetric")

    def test_nondegeneracy(self, gauss5):
        k = gauss5.residue_field
        one, zero = k.one, k.zero
        assert ResidueForm(k, [[one, zero], [zero, one]], "symmetric").is_nondegenerate()
        assert not ResidueForm(k, [[one, zero], [zero, zero]],
                               "symmetric").is_nondegenerate()

    def test_hermitian_residue_form(self, gauss7):
        k = gauss7.residue_field
        conj = gauss7.residue_involution
        assert k.degree == 2
        g = k.gen
        with pytest.raises(KindMismatch):
            # the generator of F_49 is not fixed by x -> x^7
            ResidueForm(k, [[g]], "hermitian", conj=conj)
        gram = [[k.zero, g], [conj(g), k.zero]]
        f = ResidueForm(k, gram, "hermitian", conj=conj)
        assert f.is_nondegenerate()
        x = [k.one, k.zero]
        y = [k.zero, k.one]
        assert evaluate(f, x, y) == g
        assert evaluate(f, y, x) == conj(g)

    def test_residue_isometry(self, gauss5):
        k = gauss5.residue_field
        one, zero = k.one, k.zero
        f = ResidueForm(k, [[zero, one], [-one, zero]], "alternating")
        assert f.is_isometry([[one, one], [zero, one]])
        assert not f.is_isometry([[one + one, zero], [zero, one]])


class TestReduceGram:
    def test_entrywise_reduction(self, rat5):
        half = rat5.rational("1/2")
        out = reduce_gram([[rat5.one, half]])
        k = rat5.residue_field
        assert out[0][0] == k.one
        assert out[0][1] == k.element(3)

    def test_negative_valuation_refused(self, rat5):
        from isodescent.errors import NegativeValuation
        bad = rat5.rational("1/5")
        with pytest.raises(NegativeValuation):
            reduce_gram([[bad]])


class TestReductions:
    def test_self_dual_lattice(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        lat = standard_lattice(gauss5, 2)
        bar, kb = reduce_bar(lat, f)
        assert kb == []
        assert bar.is_nondegenerate()
        k = gauss5.residue_field
        assert_matrix_equal(bar.gram, [[k.zero, k.one], [k.element(4), k.zero]])
        tilde, kt = reduce_tilde(lat, f)
        assert len(kt) == 2
        assert not tilde.is_nondegenerate()
        assert all(x == k.zero for row in tilde.gram for x in row)

    def test_split_diagonal_case(self, rat5):
        pi = rat5.pi_power(1)
        gram = [[rat5.one, rat5.zero], [rat5.zero, pi]]
        f = GramForm(rat5, gram, "symmetric")
        lat = standard_lattice(rat5, 2)
        bar, kb = reduce_bar(lat, f)
        tilde, kt = reduce_tilde(lat, f)
        k = rat5.residue_field
        assert_matrix_equal(bar.gram, [[k.one, k.zero], [k.zero, k.zero]])
        assert_matrix_equal(tilde.gram, [[k.zero, k.zero], [k.zero, k.one]])
        assert len(kb) == 1 and len(kt) == 1
        # kernels point at complementary coordinates
        assert kb[0][0] == k.zero and kb[0][1] == k.one
        assert kt[0][0] == k.one and kt[0][1] == k.zero

    def test_unbalanced_lattice_rejected(self, rat5):
        sq = rat5.pi_power(2)
        gram = [[rat5.one, rat5.zero], [rat5.zero, sq]]
        f = GramForm(rat5, gram, "symmetric")
        lat = standard_lattice(rat5, 2)
        with pytest.raises(PreconditionViolated):
            reduce_bar(lat, f)
        with pytest.raises(PreconditionViolated):
            reduce_tilde(lat, f)

    def test_unnormalized_scale_rejected(self, rat5):
        pi = rat5.pi_power(1)
        f = GramForm(rat5, la.scalar_mul(pi, la.identity(rat5, 2)), "symmetric")
        lat = standard_lattice(rat5, 2)
        with pytest.raises(PreconditionViolated):
            reduce_bar(lat, f)

    def test_wrong_dual_basis_rejected(self, rat5):
        pi = rat5.pi_power(1)
        gram = [[rat5.one, rat5.zero], [rat5.zero, pi]]
        f = GramForm(rat5, gram, "symmetric")
        lat = standard_lattice(rat5, 2)
        with pytest.raises(PreconditionViolated):
            reduce_bar(lat, f, dual=lat)

    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("gauss5", "alternating"),
                                               ("quad7", "hermitian")])
    def test_kernel_dimensions_are_complementary(self, descname, kind, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"reduce-{descname}-{kind}")
        for _ in range(20):
            n = rng.randint(1, 3)
            if kind == "alternating":
                n = 2
                gram = la.scalar_mul(desc.pi_power(rng.randint(0, 2)),
                                     symplectic2(desc))
            elif kind == "symmetric":
                gram = symmetric_invertible(rng, desc, n)
            else:
                gram = hermitian_invertible(rng, desc, n)
            f = GramForm(desc, gram, kind)
            lat = Lattice(desc, random_invertible(rng, desc, n))
            bal = balance(lat, f)
            t, f2 = bal.lattice, bal.form
            bar, kb = reduce_bar(t, f2, dual=bal.dual)
            tilde, kt = reduce_tilde(t, f2, dual=bal.dual)
            assert len(kb) + len(kt) == n
            # rank of each nondegenerate part complements its kernel
            assert len(la.kernel_basis(bar.gram, bar.field)) == len(kb)
            assert len(la.kernel_basis(tilde.gram, tilde.field)) == len(kt)


    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("gauss5", "alternating"),
                                               ("quad7", "hermitian")])
    def test_tilde_matches_the_scaled_form(self, descname, kind, request):
        """reduce_tilde scales the gram matrix by pi in place of building
        the form pi f; the reduction of pi f on the dual is the reference."""
        desc = request.getfixturevalue(descname)
        k = desc.residue_field
        rng = random.Random(f"tilde-{descname}-{kind}")
        for _ in range(10):
            n = 2 if kind == "alternating" else rng.randint(1, 3)
            if kind == "alternating":
                gram = la.scalar_mul(desc.pi_power(rng.randint(0, 2)), symplectic2(desc))
            elif kind == "symmetric":
                gram = symmetric_invertible(rng, desc, n)
            else:
                gram = hermitian_invertible(rng, desc, n)
            bal = balance(Lattice(desc, random_invertible(rng, desc, n)),
                          GramForm(desc, gram, kind))
            scaled = bal.form.scale_by_pi_power(1)
            want = reduce_gram(scaled.gram_in_basis(bal.dual.basis))
            for dual in (bal.dual, None):
                tilde, kt = reduce_tilde(bal.lattice, bal.form, dual=dual)
                assert_matrix_equal(tilde.gram, want)
                assert kt == la.kernel_basis(want, k)
                assert tilde.kind == scaled.reduced_kind_pair()[0]

    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("gauss5", "alternating"),
                                               ("quad7", "symmetric"),
                                               ("quad7", "hermitian"),
                                               ("gauss7", "hermitian")])
    def test_pair_matches_the_two_single_reductions(self, descname, kind, request):
        """The pair (reduce_bar, reduce_tilde) with the dual passed or left
        to the form agrees with each reduction on a fresh form, which
        certifies its preconditions afresh."""
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"pair-{descname}-{kind}")
        for _ in range(6):
            n = 2 if kind == "alternating" else rng.randint(1, 3)
            if kind == "alternating":
                gram = la.scalar_mul(desc.pi_power(rng.randint(0, 2)), symplectic2(desc))
            elif kind == "symmetric":
                gram = symmetric_invertible(rng, desc, n)
            else:
                gram = hermitian_invertible(rng, desc, n)
            bal = balance(Lattice(desc, random_invertible(rng, desc, n)),
                          GramForm(desc, gram, kind))
            singles = [reduce(bal.lattice, GramForm(desc, bal.form.gram, bal.form.kind,
                                                    bal.form.twist), dual=bal.dual)
                       for reduce in (reduce_bar, reduce_tilde)]
            for dual in (bal.dual, None):
                pair = (reduce_bar(bal.lattice, bal.form, dual=dual),
                        reduce_tilde(bal.lattice, bal.form, dual=dual))
                for (got, got_kernel), (want, want_kernel) in zip(pair, singles):
                    assert_matrix_equal(got.gram, want.gram)
                    assert got_kernel == want_kernel
                    assert got.kind == want.kind

class TestCertifiedOnce:
    """The form keeps the last (lattice, dual) whose preconditions passed;
    a reduction on other objects is checked in full."""

    @staticmethod
    def balanced(rng, desc, kind):
        n = 2 if kind == "alternating" else rng.randint(1, 3)
        if kind == "alternating":
            gram = la.scalar_mul(desc.pi_power(rng.randint(0, 2)), symplectic2(desc))
        elif kind == "symmetric":
            gram = symmetric_invertible(rng, desc, n)
        else:
            gram = hermitian_invertible(rng, desc, n)
        return balance(Lattice(desc, random_invertible(rng, desc, n)), GramForm(desc, gram, kind))

    def test_wrong_dual_and_unbalanced_lattice_after_a_certified_call(self, rat5):
        pi = rat5.pi_power(1)
        f = GramForm(rat5, [[rat5.one, rat5.zero], [rat5.zero, pi]], "symmetric")
        lat = standard_lattice(rat5, 2)
        dual = f.dual(lat)
        reduce_bar(lat, f, dual=dual)
        for wrong in (lat, scale_lattice(pi, dual)):
            for reduce in (reduce_bar, reduce_tilde):
                with pytest.raises(PreconditionViolated):
                    reduce(lat, f, dual=wrong)
        # the dual as another object is certified afresh
        again = Lattice(rat5, dual.basis)
        assert reduce_bar(lat, f, dual=again)[1] == reduce_bar(lat, f, dual=dual)[1]
        # pi L is not balanced against f, the lattice diag(1, 1/pi) not integral
        for other in (scale_lattice(pi, lat),
                      Lattice(rat5, [[rat5.one, rat5.zero], [rat5.zero, rat5.pi_power(-1)]])):
            for reduce in (reduce_bar, reduce_tilde):
                with pytest.raises(PreconditionViolated):
                    reduce(other, f)
        # after the failures the certified pair reduces as on a fresh form
        assert reduce_tilde(lat, f, dual=dual)[1] == reduce_tilde(lat, GramForm(
            rat5, f.gram, f.kind), dual=dual)[1]

    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("gauss5", "alternating"),
                                               ("quad7", "hermitian"),
                                               ("gauss7", "hermitian")])
    def test_tilde_after_bar_matches_a_fresh_form(self, descname, kind, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"certified-{descname}-{kind}")
        for _ in range(6):
            bal = self.balanced(rng, desc, kind)
            reduce_bar(bal.lattice, bal.form, dual=bal.dual)
            got, got_kernel = reduce_tilde(bal.lattice, bal.form, dual=bal.dual)
            fresh = GramForm(desc, bal.form.gram, bal.form.kind, bal.form.twist)
            want, want_kernel = reduce_tilde(bal.lattice, fresh, dual=bal.dual)
            assert_matrix_equal(got.gram, want.gram)
            assert got.kind == want.kind and got_kernel == want_kernel

    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("quad7", "hermitian")])
    def test_second_reduction_checks_nothing(self, descname, kind, request, monkeypatch):
        """balance keeps the pair it returns as certified, so both reductions
        on (bal.lattice, bal.dual) check nothing again; the same lattice as
        another object is certified in full, once."""
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"counted-{descname}-{kind}")
        bal = self.balanced(rng, desc, kind)
        calls = {"contains": [], "dual": 0, "length": 0}
        contains, dual, length = Lattice.contains_lattice, GramForm.dual, forms.quotient_length

        def counted_contains(a, b):
            calls["contains"].append((a, b))
            return contains(a, b)

        def counted_dual(form, lat):
            calls["dual"] += 1
            return dual(form, lat)

        def counted_length(sub, sup):
            calls["length"] += 1
            return length(sub, sup)

        monkeypatch.setattr(Lattice, "contains_lattice", counted_contains)
        monkeypatch.setattr(GramForm, "dual", counted_dual)
        monkeypatch.setattr(forms, "quotient_length", counted_length)
        reduce_bar(bal.lattice, bal.form, dual=bal.dual)
        reduce_tilde(bal.lattice, bal.form, dual=bal.dual)
        assert calls == {"contains": [], "dual": 0, "length": 0}
        # another object for T: its dual is built and checked against the
        # supplied one, the balance checks run, and the length is taken once
        again = Lattice(desc, bal.lattice.basis)
        reduce_bar(again, bal.form, dual=bal.dual)
        assert calls["contains"] and calls["dual"] == 1 and calls["length"] == 1
        assert any(a is again or b is again for a, b in calls["contains"])
        calls.update(contains=[], dual=0, length=0)
        reduce_tilde(again, bal.form, dual=bal.dual)
        reduce_bar(again, bal.form, dual=bal.dual)
        assert calls == {"contains": [], "dual": 0, "length": 0}

    @pytest.mark.parametrize("descname,kind", [("gauss5", "symmetric"),
                                               ("gauss5", "alternating"),
                                               ("quad7", "hermitian"),
                                               ("gauss7", "hermitian")])
    @pytest.mark.parametrize("pass_dual", [True, False])
    def test_reductions_after_balance_certify_nothing(self, descname, kind, pass_dual,
                                                      request, monkeypatch):
        """On the pair balance returned, reduce_bar then reduce_tilde, with
        the dual passed or left to the kept pair, certify no valuation, build
        no dual and make no containment test, and give the reductions of a
        fresh form."""
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"no-valuation-{descname}-{kind}")
        calls = {"valuation": 0, "dual": 0, "contains": 0}
        certify, dual, contains = LambdaEngine.valuation, GramForm.dual, Lattice.contains_lattice

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for _ in range(4):
            bal = self.balanced(rng, desc, kind)
            fresh = GramForm(desc, bal.form.gram, bal.form.kind, bal.form.twist)
            want = [reduce(Lattice(desc, bal.lattice.basis), fresh)
                    for reduce in (reduce_bar, reduce_tilde)]
            kwargs = {"dual": bal.dual} if pass_dual else {}
            monkeypatch.setattr(LambdaEngine, "valuation", counted("valuation", certify))
            monkeypatch.setattr(GramForm, "dual", counted("dual", dual))
            monkeypatch.setattr(Lattice, "contains_lattice", counted("contains", contains))
            got = [reduce(bal.lattice, bal.form, **kwargs)
                   for reduce in (reduce_bar, reduce_tilde)]
            monkeypatch.undo()
            assert calls == {"valuation": 0, "dual": 0, "contains": 0}
            for (rform, kernel), (wform, wkernel) in zip(got, want):
                assert_matrix_equal(rform.gram, wform.gram)
                assert rform.kind == wform.kind and kernel == wkernel


# symmetric, alternating, inert hermitian (z4's field) and ramified
# hermitian (remark4's field) of even and odd twist
KEPT_FORM_CASES = [("gauss5", "symmetric", 0), ("rat5", "alternating", 0),
                   ("gauss7", "hermitian", 0), ("quad7", "hermitian", 0),
                   ("quad7", "hermitian", 1)]


def random_form(rng, desc, kind, twist):
    n = 2 if kind == "alternating" else rng.randint(1, 3)
    if kind == "alternating":
        gram = la.scalar_mul(desc.pi_power(rng.randint(-1, 2)), symplectic2(desc))
    elif kind == "symmetric":
        gram = symmetric_invertible(rng, desc, n)
    else:
        # pi is anti-fixed in the ramified case: pi H is skew-hermitian
        gram = la.scalar_mul(desc.pi_power(twist), hermitian_invertible(rng, desc, n))
    return GramForm(desc, gram, kind, twist)


class TestKeptFormProducts:
    """dual multiplies the integer forms a GramForm keeps of A and A^-1 with
    those a lattice keeps of B^-1 and B; scale_by_pi_power takes no
    determinant."""

    @pytest.mark.parametrize("descname,kind,twist", KEPT_FORM_CASES)
    def test_dual_matches_mat_mul(self, descname, kind, twist, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"kept-dual-{descname}-{kind}-{twist}")
        for _ in range(4):
            f = random_form(rng, desc, kind, twist)
            a_inv = la.mat_inv(f.gram, desc)
            for _ in range(2):  # once building the kept forms, once reading them
                lat = Lattice(desc, random_invertible(rng, desc, f.dim))
                dual = f.dual(lat)
                want = la.conj_transpose(la.mat_mul(lat.inverse, a_inv), f.conj)
                want_inv = la.conj_transpose(la.mat_mul(f.gram, lat.basis), f.conj)
                assert la.mat_eq(dual.basis, want) and la.mat_eq(dual.inverse, want_inv)

    @pytest.mark.parametrize("descname,kind,twist", KEPT_FORM_CASES)
    def test_scaled_form_is_the_checked_form(self, descname, kind, twist, request,
                                             monkeypatch):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"kept-scale-{descname}-{kind}-{twist}")
        f = random_form(rng, desc, kind, twist)
        calls = {"kind": 0, "det": 0}
        real_kind, real_det = forms._kind_holds, la.det

        def kind_holds(*args):
            calls["kind"] += 1
            return real_kind(*args)

        def det(*args):
            calls["det"] += 1
            return real_det(*args)

        monkeypatch.setattr(forms, "_kind_holds", kind_holds)
        monkeypatch.setattr(la, "det", det)
        for j in range(-2, 3):
            calls.update(kind=0, det=0)
            got = f.scale_by_pi_power(j)
            assert calls == {"kind": 1, "det": 0}
            want = GramForm(desc, la.scalar_mul(desc.pi_power(j), f.gram), kind, twist + j)
            assert calls == {"kind": 2, "det": 1}
            assert la.mat_eq(got.gram, want.gram)
            assert (got.kind, got.twist, got.conj) == (want.kind, want.twist, want.conj)


class TestAssemble:
    def test_two_alternating_blocks(self, gauss5):
        k = gauss5.residue_field
        j = [[k.zero, k.one], [-k.one, k.zero]]
        f0 = AssembledForm([ResidueForm(k, j, "alternating"),
                            ResidueForm(k, j, "alternating")])
        assert f0.kind == "alternating"
        assert f0.dim == 4
        assert f0.is_nondegenerate()
        assert f0.gram[0][2] == k.zero and f0.gram[2][0] == k.zero
        assert f0.gram[2][3] == k.one

    def test_empty_second_block_returns_first(self, gauss5):
        k = gauss5.residue_field
        bar = ResidueForm(k, [[k.one, k.zero], [k.zero, k.one]], "symmetric")
        empty = ResidueForm(k, [], "symmetric")
        f0 = AssembledForm([bar, empty])
        assert f0.kind == "symmetric"
        assert f0.dim == 2
        assert_matrix_equal(f0.gram, bar.gram)

    def test_mixed_parity_product(self, gauss5):
        k = gauss5.residue_field
        sym = ResidueForm(k, [[k.one]], "symmetric")
        alt = ResidueForm(k, [[k.zero, k.one], [-k.one, k.zero]], "alternating")
        f0 = AssembledForm([sym, alt])
        assert f0.kind == "product"
        assert f0.kinds == ("symmetric", "alternating")
        assert f0.dims == (1, 2)
        assert f0.is_nondegenerate()

    def test_foreign_kind_mix_rejected(self, gauss7):
        k = gauss7.residue_field
        conj = gauss7.residue_involution
        herm = ResidueForm(k, [[k.one]], "hermitian", conj=conj)
        sym = ResidueForm(k, [[k.one]], "symmetric")
        with pytest.raises(KindMismatch):
            AssembledForm([herm, sym])

    def test_degenerate_block_rejected(self, gauss5):
        k = gauss5.residue_field
        good = ResidueForm(k, [[k.one]], "symmetric")
        bad = ResidueForm(k, [[k.zero]], "symmetric")
        with pytest.raises(DegenerateForm):
            AssembledForm([good, bad])

    def test_blocks_from_different_fields_rejected(self, gauss5, gauss13):
        k5 = gauss5.residue_field
        k13 = gauss13.residue_field
        with pytest.raises(KindMismatch):
            AssembledForm([ResidueForm(k5, [[k5.one]], "symmetric"),
                           ResidueForm(k13, [[k13.one]], "symmetric")])

    def test_blockwise_isometry(self, gauss5):
        k = gauss5.residue_field
        j = [[k.zero, k.one], [-k.one, k.zero]]
        f0 = AssembledForm([ResidueForm(k, [[k.one]], "symmetric"),
                            ResidueForm(k, j, "alternating")])
        g = [[-k.one, k.zero, k.zero],
             [k.zero, k.one, k.one],
             [k.zero, k.zero, k.one]]
        assert f0.is_isometry(g)
        g2 = [[k.one, k.zero, k.zero],
              [k.one, k.one, k.zero],
              [k.zero, k.zero, k.one]]
        assert not f0.is_isometry(g2)


class TestDimensionZero:
    def test_empty_product(self, gauss5):
        o = gauss5.one
        assert la.mat_mul([], []) == []
        assert la.mat_mul([], [[o, o]]) == []
        with pytest.raises(DimensionMismatch):
            la.mat_mul([[o]], [])
        with pytest.raises(DimensionMismatch):
            la.mat_mul([[o, o]], [[o]])

    def test_gram_form(self, rat5):
        f = GramForm(rat5, [], "symmetric")
        assert f.gram_in_basis([]) == []
        assert f.is_isometry([])

    def test_residue_form(self, rat5):
        f = ResidueForm(rat5.residue_field, [], "alternating")
        assert f.gram_in_basis([]) == []
        assert f.is_isometry([])

    def test_evaluate_is_zero(self, rat5):
        assert evaluate(GramForm(rat5, [], "symmetric"), [], []) == rat5.zero
        k = rat5.residue_field
        assert evaluate(ResidueForm(k, [], "alternating"), [], []) == k.zero
