import hashlib
import json
import random

import pytest

from isodescent import descent, forms
from isodescent import linalg as la
from isodescent.cli import _descent_result_dict, load_bundle
from isodescent.counterexamples import build_prop5_bundle, build_prop6_bundle
from isodescent.descent import GroupRep, balance, descend, rigidity_check
from isodescent.errors import (
    DimensionMismatch,
    GroupTooLarge,
    HypothesisViolated,
    InternalInconsistency,
    NotFiniteOrder,
    NotStable,
    PreconditionViolated,
)
from isodescent.exactfield import FieldDescriptor, make_descriptor, with_uniformizer
from isodescent.forms import GramForm, reduce_bar, reduce_tilde
from isodescent.lattice import (
    Lattice,
    SNFResult,
    is_stable,
    quotient_length,
    scale_lattice,
    stabilize,
    standard_lattice,
)
from isodescent.localring import LambdaEngine

from conftest import (
    BUNDLE_DIR,
    assert_matrix_equal,
    quaternion_rep,
    ramified_pair_rep,
    random_invertible,
    reference_snf,
    rotation4_rep,
)


def mat_key(m):
    return tuple(tuple(row) for row in m)


def symplectic2(desc):
    one = desc.one
    return [[desc.zero, one], [-one, desc.zero]]


def int_matrix(desc, rows):
    return [[desc.rational(c) for c in row] for row in rows]


def random_signed_permutation(rng, desc, n):
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[desc.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = desc.one if rng.random() < 0.5 else -desc.one
    return m


def random_unimodular(rng, desc, n):
    """Integer matrix of determinant +-1 built from shears and swaps."""
    m = la.identity(desc, n)
    for _ in range(rng.randint(2, 5)):
        i, j = rng.sample(range(n), 2)
        c = desc.rational(rng.randint(-3, 3))
        for r in range(n):
            m[r][i] = m[r][i] + c * m[r][j]
        if rng.random() < 0.3:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
    return m


class TestGroupRep:
    def test_closure_orders(self, q8_rep5, z4_rep7, remark4_rep7):
        assert q8_rep5.order == 8
        assert z4_rep7.order == 4
        assert remark4_rep7.order == 16
        assert build_prop5_bundle(5).order == 5

    def test_closure_is_closed_and_faithful(self, q8_rep5):
        keys = {mat_key(m) for m in q8_rep5.elements}
        assert len(keys) == q8_rep5.order
        for a in q8_rep5.elements:
            for b in q8_rep5.elements:
                assert mat_key(la.mat_mul(a, b)) in keys

    def test_identity_comes_first(self, q8_rep5, gauss5):
        assert_matrix_equal(q8_rep5.elements[0], la.identity(gauss5, 2))

    def test_cap_exceeded(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        gens = [int_matrix(gauss5, [[0, -1], [1, 0]])]
        with pytest.raises(GroupTooLarge):
            GroupRep(gauss5, gens, f, cap=3)

    @pytest.mark.parametrize("gram, kind, gen", [
        ([[1, 0], [0, -1]], "symmetric", [["5/3", "4/3"], ["4/3", "5/3"]]),
        ([[0, 1], [-1, 0]], "alternating", [[2, 1], [1, 1]]),
        ([[4, 1], [1, 4]], "symmetric", [[0, -1], [1, "1/2"]]),
    ])
    def test_infinite_group_raises_not_finite_order(self, gauss5, gram, kind, gen):
        # traces 10/3, not integral; 3, with Tr(3 * 3) = 18 > phi(4) * 2^2;
        # and 1/2, a rotation by arccos(1/4), every power's trace in [-2, 2]
        f = GramForm(gauss5, int_matrix(gauss5, gram), kind)
        with pytest.raises(NotFiniteOrder, match="the group is infinite"):
            GroupRep(gauss5, [int_matrix(gauss5, gen)], f, cap=50)

    def test_trace_integrality_is_read_on_the_power_basis(self):
        # Q(i) as Q(zeta_8)^{1,5}, where theta = eta_2 = 2i: the trace i of
        # the generator is an algebraic integer with coordinates (0, 1/2) on
        # the basis 1, theta, so integrality is read on zeta_8's power basis
        desc = make_descriptor(8, 3, subgroup=(1, 5), involution=3)
        i = desc.zeta_power(2)
        assert i.num == (0, 1) and i.den == 2
        form = GramForm(desc, [[desc.one]], "hermitian")
        assert GroupRep(desc, [[[i]]], form).order == 4

    def test_unipotent_passes_the_trace_test_until_the_cap(self, gauss5):
        # every power of a unipotent has trace 2, which a finite group allows
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        with pytest.raises(GroupTooLarge):
            GroupRep(gauss5, [int_matrix(gauss5, [[1, 1], [0, 1]])], f, cap=50)

    def test_non_isometry_generator_rejected(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        with pytest.raises(PreconditionViolated):
            GroupRep(gauss5, [int_matrix(gauss5, [[2, 0], [0, 1]])], f)

    def test_dimension_and_field_mismatch(self, gauss5, gauss13):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        with pytest.raises(DimensionMismatch):
            GroupRep(gauss5, [int_matrix(gauss5, [[1]])], f)
        with pytest.raises(DimensionMismatch):
            GroupRep(gauss13, [la.identity(gauss13, 2)], f)


class TestBalance:
    def test_self_dual_start_is_fixed(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        lat = standard_lattice(gauss5, 2)
        bal = balance(lat, f)
        assert bal.lattice == lat
        assert bal.steps == 0
        assert bal.scale_power == 0
        assert bal.invariants == [0, 0]

    def test_symplectic_skew_start(self, rat5):
        # basis (1,0),(0,ell): normalizing makes this lattice self-dual
        f = GramForm(rat5, symplectic2(rat5), "alternating")
        five = rat5.rational(5)
        lat = Lattice(rat5, [[rat5.one, rat5.zero], [rat5.zero, five]])
        bal = balance(lat, f)
        assert bal.scale_power == -1
        assert bal.steps == 0
        assert bal.lattice == lat
        assert bal.invariants == [0, 0]
        assert bal.dual == lat

    def test_two_step_chain(self, rat5):
        f = GramForm(rat5, la.identity(rat5, 2), "symmetric")
        lat = Lattice(rat5, int_matrix(rat5, [[1, 0], [0, 25]]))
        dual0 = f.dual(lat)
        bound = quotient_length(lat, dual0)
        bal = balance(lat, f)
        assert bal.steps == 2
        assert bal.steps <= bound
        assert bal.scale_power == 0
        assert bal.lattice == standard_lattice(rat5, 2)
        assert bal.invariants == [0, 0]

    def test_unstable_start_rejected(self, gauss5, q8_rep5):
        lat = Lattice(gauss5, int_matrix(gauss5, [[1, 0], [0, 5]]))
        with pytest.raises(NotStable):
            balance(lat, q8_rep5.form, generators=q8_rep5.generators)

    def test_balanced_outputs_with_generators(self, gauss5, q8_rep5):
        rng = random.Random("balance-gens")
        for _ in range(15):
            start = Lattice(gauss5, random_invertible(rng, gauss5, 2))
            start = stabilize(start, q8_rep5.generators)
            bal = balance(start, q8_rep5.form, generators=q8_rep5.generators)
            t, tstar = bal.lattice, bal.dual
            assert t.contains_lattice(start)
            assert tstar.contains_lattice(t)
            assert t.contains_lattice(scale_lattice(gauss5.pi_power(1), tstar))
            assert all(a in (0, 1) for a in bal.invariants)
            g = bal.form.gram_in_basis(t.basis)
            vals = [x.valuation() for row in g for x in row]
            assert min(vals) == 0
            assert is_stable(t, q8_rep5.generators)

    @pytest.mark.parametrize("repname", ["q8_rep5", "z4_rep7", "remark4_rep7"])
    def test_recorded_path_matches_fresh_objects(self, repname, request):
        """stabilize records the generators, balance the pair it returns;
        the same calls on objects that carry no record give the same T, T*,
        steps, scale, residue grams and kernels."""
        rep = request.getfixturevalue(repname)
        desc, n, form = rep.field, rep.dim, rep.form
        rng = random.Random(f"recorded-{repname}")
        for _ in range(8):
            start = stabilize(Lattice(desc, random_invertible(rng, desc, n)), rep.generators)
            bal = balance(start, form, generators=rep.generators)
            got = [reduce(bal.lattice, bal.form, dual=bal.dual)
                   for reduce in (reduce_bar, reduce_tilde)]
            fresh = balance(Lattice(desc, start.basis),
                            GramForm(desc, form.gram, form.kind, form.twist),
                            generators=rep.generators)
            assert la.mat_eq(bal.lattice.basis, fresh.lattice.basis)
            assert la.mat_eq(bal.dual.basis, fresh.dual.basis)
            assert (bal.steps, bal.scale_power) == (fresh.steps, fresh.scale_power)
            lat = Lattice(desc, fresh.lattice.basis)
            scaled = GramForm(desc, fresh.form.gram, fresh.form.kind, fresh.form.twist)
            for reduce, (rform, kernel) in zip((reduce_bar, reduce_tilde), got):
                want, want_kernel = reduce(lat, scaled)
                assert_matrix_equal(rform.gram, want.gram)
                assert rform.kind == want.kind and kernel == want_kernel


    def test_values_are_pinned(self, gauss5, gauss13, gauss7, quad7, rat5):
        """stabilize, balance and both residue reductions from seeded random
        starts: the digest pins T and T* with their inverses, the scaled
        form, the scale power, the steps, the inclusion's row side and both
        reduced grams with their kernels, byte for byte."""
        ser = lambda m: [[x.serialize() for x in row] for row in m]
        res = lambda m: [[list(x.coeffs) for x in row] for row in m]
        rng = random.Random("balance-pinned")
        reps = [quaternion_rep(gauss5), quaternion_rep(gauss13), rotation4_rep(gauss7),
                ramified_pair_rep(quad7), block_rep(gauss5, 2, rng), block_rep(rat5, 3, rng)]
        records = []
        for rep in reps:
            for _ in range(3):
                start = Lattice(rep.field, random_invertible(rng, rep.field, rep.dim))
                start = stabilize(start, rep.generators)
                bal = balance(start, rep.form, generators=rep.generators)
                t, tstar, form, inc = bal.lattice, bal.dual, bal.form, bal.inclusion
                record = [ser(t.basis), ser(t.inverse), ser(tstar.basis), ser(tstar.inverse),
                          ser(form.gram), form.twist, bal.scale_power, bal.steps,
                          ser(inc.u), ser(inc.u_inv), inc.exps]
                for reduce in (reduce_bar, reduce_tilde):
                    rform, kernel = reduce(t, form, dual=tstar)
                    record += [res(rform.gram), res(kernel)]
                records.append(record)
        assert sum(r[7] for r in records) >= 4  # the block groups take chain steps
        blob = json.dumps(records, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "4f72fbb50409ae26bf66fdaf5bec9bab33b7cdd07dc850d347af4ba16a5e0c62"


class TestRigidity:
    def test_identity_is_forced(self, rat5):
        lat = standard_lattice(rat5, 2)
        out = rigidity_check(la.identity(rat5, 2), lat)
        assert out["is_identity_forced"] and out["is_identity"]
        assert out["order"] == 1

    def test_minus_identity_not_forced(self, rat5):
        # (A-1)^2 = 4 id has valuation 0 at ell=5, so nothing is forced
        lat = standard_lattice(rat5, 2)
        a = la.scalar_mul(-rat5.one, la.identity(rat5, 2))
        out = rigidity_check(a, lat)
        assert out["order"] == 2
        assert not out["square_condition"]
        assert not out["is_identity_forced"]

    def test_infinite_order_rejected(self, rat5):
        lat = standard_lattice(rat5, 2)
        shear = int_matrix(rat5, [[1, 5], [0, 1]])
        with pytest.raises(NotFiniteOrder):
            rigidity_check(shear, lat, max_order=50)

    def test_unstable_matrix_rejected(self, rat5):
        lat = standard_lattice(rat5, 2)
        bad = [[rat5.one, rat5.rational("1/5")], [rat5.zero, rat5.one]]
        with pytest.raises(NotStable):
            rigidity_check(bad, lat)

    def test_hypothesis_violation_rejected(self, real5):
        lat = standard_lattice(real5, 2)
        with pytest.raises(HypothesisViolated):
            rigidity_check(la.identity(real5, 2), lat)

    def test_random_finite_order_suite(self, rat5):
        rng = random.Random("rigidity-mini")
        for trial in range(60):
            n = rng.choice([2, 3])
            if trial % 10 == 0:
                a = la.identity(rat5, n)
            else:
                p = random_signed_permutation(rng, rat5, n)
                u = random_unimodular(rng, rat5, n)
                a = la.mat_mul(u, la.mat_mul(p, la.mat_inv(u, rat5)))
            out = rigidity_check(a, standard_lattice(rat5, n))
            if out["is_identity_forced"]:
                assert out["is_identity"]

    @pytest.mark.parametrize("n,ell,sub", [(1, 5, (1,)), (7, 7, (1, 2, 4))])
    def test_non_standard_lattice_matches_the_entrywise_definition(
            self, n, ell, sub, monkeypatch):
        """On seeded lattices L = B O^d over Q at 5 and the ramified
        Q(sqrt -7) at 7: M stabilizes L iff B^-1 M B is integral, and the
        square condition holds iff every entry of (B^-1 M B - 1)^2 has
        valuation >= 1, both computed here entrywise; rigidity_check
        certifies no valuation.  M is conjugated into L's endomorphisms
        (B P B^-1), or only into the standard lattice's (U P U^-1)."""
        desc = make_descriptor(n, ell, subgroup=sub)
        assert desc.two_e_ok
        rng = random.Random(f"rigidity-lattice-{n}-{ell}")
        calls = []
        certify = LambdaEngine.valuation

        def counted(engine, vec):
            calls.append(vec)
            return certify(engine, vec)

        outcomes = set()
        for trial in range(24):
            d = rng.choice([2, 3])
            b = random_invertible(rng, desc, d)
            lat = Lattice(desc, b)
            p = (la.identity(desc, d) if trial % 8 == 0
                 else random_signed_permutation(rng, desc, d))
            u = b if trial % 2 else random_unimodular(rng, desc, d)
            m = la.mat_mul(u, la.mat_mul(p, la.mat_inv(u, desc)))
            on_lat = la.mat_mul(la.mat_inv(b, desc), la.mat_mul(m, b))
            stable = all(x.valuation() >= 0 for row in on_lat for x in row)
            am1 = la.mat_sub(on_lat, la.identity(desc, d))
            square = all(x.valuation() >= 1 for row in la.mat_mul(am1, am1) for x in row)
            monkeypatch.setattr(LambdaEngine, "valuation", counted)
            if not stable:
                with pytest.raises(NotStable):
                    rigidity_check(m, lat)
                monkeypatch.undo()
                outcomes.add("unstable")
                continue
            out = rigidity_check(m, lat)
            monkeypatch.undo()
            assert out["square_condition"] == out["is_identity_forced"] == square
            assert out["is_identity"] == la.mat_eq(p, la.identity(desc, d)) == square
            order = 1
            power = p
            while not la.mat_eq(power, la.identity(desc, d)):
                power, order = la.mat_mul(power, p), order + 1
            assert out["order"] == order
            outcomes.add(square)
        assert calls == []
        assert outcomes == {"unstable", True, False}

    @pytest.mark.parametrize("build", [build_prop5_bundle, build_prop6_bundle])
    def test_kernel_under_the_hypothesis_is_inconsistent(self, build, monkeypatch):
        # at ell = 5 both groups have a nontrivial kernel, explained only by
        # 2e >= ell - 1; claiming the hypothesis holds makes that kernel a
        # contradiction, which descend escalates
        rep = build(5)
        assert descend(rep).kernel_size > 1
        monkeypatch.setattr(rep.field, "two_e_ok", True)
        with pytest.raises(InternalInconsistency):
            descend(rep)


class TestCharpoly:
    def test_identity_four(self, gauss5):
        cp = la.charpoly(la.identity(gauss5, 4), gauss5)
        expected = [gauss5.rational(c) for c in (1, -4, 6, -4, 1)]
        assert cp == expected

    def test_companion_matrix(self, rat5):
        # companion of t^3 - 2t + 7 reproduces its own coefficients
        m = int_matrix(rat5, [[0, 0, -7], [1, 0, 2], [0, 1, 0]])
        cp = la.charpoly(m, rat5)
        assert cp == [rat5.rational(c) for c in (7, -2, 0, 1)]

    def test_matches_cofactor_expansion_over_residue_field(self):
        k = make_descriptor(1, 7).residue_field

        def polymul(a, b):
            out = [k.zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return out

        def polyadd(a, b):
            n = max(len(a), len(b))
            a = a + [k.zero] * (n - len(a))
            b = b + [k.zero] * (n - len(b))
            return [x + y for x, y in zip(a, b)]

        def polydet(m):
            if len(m) == 1:
                return m[0][0]
            acc = [k.zero]
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                term = polymul(m[0][j], polydet(minor))
                if j % 2 == 1:
                    term = [-c for c in term]
                acc = polyadd(acc, term)
            return acc

        rng = random.Random("charpoly-oracle")
        for _ in range(20):
            m = [[k.element(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
            entries = [[[-m[i][j]] if i != j else [-m[i][j], k.one]
                        for j in range(3)] for i in range(3)]
            brute = polydet(entries)
            brute = brute + [k.zero] * (4 - len(brute))
            assert la.charpoly(m, k) == brute


def extraspecial_generators(desc, m):
    """The generators of 2^(1+2m)_+ in dimension 2^m: each Kronecker product
    of m factors with X = [[0, 1], [1, 0]] or Z = diag(1, -1) in one factor
    and the identity in the others."""
    o, z = desc.one, desc.zero
    eye, x, zz = [[o, z], [z, o]], [[z, o], [o, z]], [[o, z], [z, -o]]
    gens = []
    for i in range(m):
        for p in (x, zz):
            g = [[o]]
            for j in range(m):
                g = la.kron(g, p if j == i else eye)
            gens.append(g)
    return gens


class TestExtraspecialLadder:
    """The extraspecial 2-groups, order 2^(2m+1) with 2^(2m) + 1 classes.
    The classes of 2^(1+2m)_+ have 4 charpolys: (x - 1)^n and (x + 1)^n on
    the centre, and those of the noncentral involutions and elements of
    order 4, whose traces are 0."""

    def check(self, rep, m):
        res = descend(rep)
        assert rep.order == 2 ** (2 * m + 1)
        assert len(set(rep.conjugacy_classes())) == 2 ** (2 * m) + 1
        assert res.chain_steps == 0
        assert all(res.certificates.values()), res.certificates
        return res

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_plus_type_over_q(self, rat5, m):
        n = 2 ** m
        rep = GroupRep(rat5, extraspecial_generators(rat5, m),
                       GramForm(rat5, la.identity(rat5, n), "symmetric"))
        res = self.check(rep, m)
        assert res.block_dims == (n, 0)
        assert len(res.charpoly_classes) == 4
        if m == 3:
            # the prime-field path against Berkowitz on rho_bar
            kfield = rat5.residue_field
            for r in set(rep.conjugacy_classes()):
                assert res.charpoly_table_k[r] == la.charpoly(res.rho_bar[r], kfield)

    def test_minus_type_over_gaussian(self, gauss5):
        # 2^(1+6)_- = Q_8 (tensor) 2^(1+4)_+, preserving J (tensor) I
        i, o, z = gauss5.zeta_power(1), gauss5.one, gauss5.zero
        q8 = [[[z, -o], [o, z]], [[i, z], [z, -i]]]
        gens = ([la.kron(g, la.identity(gauss5, 4)) for g in q8]
                + [la.kron(la.identity(gauss5, 2), g)
                   for g in extraspecial_generators(gauss5, 2)])
        form = GramForm(gauss5, la.kron([[z, o], [-o, z]], la.identity(gauss5, 4)),
                        "alternating")
        res = self.check(GroupRep(gauss5, gens, form), 3)
        assert res.block_kinds == ("alternating", "alternating")

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_both_types_over_the_inert_gaussian(self, gauss7, sign, m):
        """Over Q(i) at the inert 7 (k = F_49), preserving the hermitian
        identity form, in dimensions 4, 8 and 16; the minus type takes Q_8's
        generators in the first factor.  The k-side charpolys are Hessenberg
        reductions over F_49, checked against Berkowitz on rho_bar up to
        dimension 8."""
        i, o, z = gauss7.zeta_power(1), gauss7.one, gauss7.zero
        n = 2 ** m
        gens = extraspecial_generators(gauss7, m)
        if sign == "-":
            q8 = [[[z, -o], [o, z]], [[i, z], [z, -i]]]
            gens = [la.kron(g, la.identity(gauss7, n // 2)) for g in q8] + gens[2:]
        rep = GroupRep(gauss7, gens, GramForm(gauss7, la.identity(gauss7, n), "hermitian"))
        res = self.check(rep, m)
        assert res.block_dims == (n, 0)
        assert res.block_kinds == ("hermitian", "hermitian")
        if m < 4:
            kfield = gauss7.residue_field
            for r in set(rep.conjugacy_classes()):
                assert res.charpoly_table_k[r] == la.charpoly(res.rho_bar[r], kfield)


class TestClassCensus:
    @pytest.mark.parametrize("name", sorted(p.stem for p in BUNDLE_DIR.glob("*.json")))
    def test_newton_on_traces_is_berkowitz_on_the_representative(self, name):
        # the committed bundles include B_3 x B_2 over Q (order 384, 50 classes)
        rep, _ = load_bundle(str(BUNDLE_DIR / f"{name}.json"))
        cls, census = rep.class_charpolys()
        assert sum(size for size, _, _ in census.values()) == rep.order
        for r, (size, cp, red) in census.items():
            assert cls[r] == r
            assert cp == la.charpoly(rep.element(r), rep.field)
            assert red == [c.reduce() for c in cp]


def element_index_map(rep):
    return {mat_key(m): i for i, m in enumerate(rep.elements)}


@pytest.fixture(scope="module")
def q8_res5(q8_rep5):
    return descend(q8_rep5)


@pytest.fixture(scope="module")
def z4_res7(z4_rep7):
    return descend(z4_rep7)


@pytest.fixture(scope="module")
def remark4_res7(remark4_rep7):
    return descend(remark4_rep7)


class TestDescend:
    def test_quaternion_split_prime(self, q8_res5, gauss5):
        res = q8_res5
        assert res.certificates == {
            "faithful": True,
            "charpoly_preserved": True,
            "f0_nondegenerate": True,
            "kind_correct": True,
            "hypothesis_2e_lt_ell_minus_1": True,
        }
        assert res.block_dims == (2, 0)
        assert res.block_kinds == ("alternating", "alternating")
        assert res.image_order == 8
        assert res.kernel_size == 1
        assert res.scale_power == 0
        assert res.chain_steps == 0
        assert res.invariant_exps == [0, 0]
        k = gauss5.residue_field
        assert_matrix_equal(res.f0_gram, [[k.zero, k.one], [k.element(4), k.zero]])
        assert res.f0.kind == "alternating"

    def test_quaternion_charpoly_census(self, q8_res5, gauss5):
        res = q8_res5
        k = gauss5.residue_field

        def key(ints):
            return tuple(tuple(k.element(c).coeffs) for c in ints)

        counts = dict(res.charpoly_classes)
        assert counts[key([1, 0, 1])] == 6      # t^2 + 1
        assert counts[key([1, 2, 1])] == 1      # (t + 1)^2
        assert counts[key([1, -2, 1])] == 1     # (t - 1)^2
        assert sum(counts.values()) == 8

    def test_quaternion_other_split_prime(self, q8_rep13):
        res = descend(q8_rep13)
        assert all(res.certificates.values())
        assert res.block_dims == (2, 0)
        assert res.block_kinds == ("alternating", "alternating")

    def test_rotation_inert_prime_hermitian(self, z4_res7, gauss7):
        res = z4_res7
        assert all(res.certificates.values())
        assert res.block_dims == (1, 0)
        assert res.block_kinds == ("hermitian", "hermitian")
        assert res.image_order == 4
        k = gauss7.residue_field
        assert k.degree == 2
        assert_matrix_equal(res.f0_gram, [[k.one]])
        assert res.f0.kind == "hermitian"

    def test_ramified_parity_blocks(self, remark4_res7, quad7):
        res = remark4_res7
        assert all(res.certificates.values())
        assert res.invariant_exps == [1, 1, 0, 0]
        assert res.block_dims == (2, 2)
        assert res.block_kinds == ("symmetric", "alternating")
        assert res.f0.kind == "product"
        assert res.f0.dims == (2, 2)
        assert res.image_order == 16

    def test_wild_subfield_with_deep_uniformizer(self):
        # Q(zeta_5) inside Q(zeta_25), with e_rel = 5: its uniformizer needs
        # (1 - zeta_25)^5; the monomial group <diag(zeta_5, 1), swap> of order
        # 50 keeps the identity hermitian form, and 2e = 8 >= ell - 1, so the
        # reduction need not be faithful
        desc = make_descriptor(25, 5, subgroup=(1, 6, 11, 16, 21), involution=4)
        assert desc.involution_type == "ramified" and desc.e_rel == 5
        o, z = desc.one, desc.zero
        form = GramForm(desc, [[o, z], [z, o]], "hermitian")
        rep = GroupRep(desc, [[[desc.zeta_power(5), z], [z, o]], [[z, o], [o, z]]], form)
        assert rep.order == 50
        res = descend(rep)
        assert res.certificates["charpoly_preserved"]
        assert res.certificates["f0_nondegenerate"]
        assert res.certificates["kind_correct"]
        assert not res.certificates["faithful"]
        assert not res.certificates["hypothesis_2e_lt_ell_minus_1"]

    def test_hypothesis_failure_is_explained(self):
        rep = build_prop5_bundle(5)
        res = descend(rep)
        assert not res.certificates["faithful"]
        assert not res.certificates["hypothesis_2e_lt_ell_minus_1"]
        assert res.certificates["charpoly_preserved"]
        assert res.kernel_size == 5
        assert res.image_order == 1
        assert res.block_dims == (1, 1)
        assert len(res.kernel_explanations) == 4
        assert all(e["explained_by"] == "hypothesis_failure"
                   for e in res.kernel_explanations)

    def test_trivial_group(self, gauss5):
        f = GramForm(gauss5, symplectic2(gauss5), "alternating")
        rep = GroupRep(gauss5, [], f)
        assert rep.order == 1
        res = descend(rep)
        assert all(res.certificates.values())
        k = gauss5.residue_field
        assert_matrix_equal(res.f0_gram, [[k.zero, k.one], [k.element(4), k.zero]])
        assert len(res.charpoly_classes) == 1

    @pytest.mark.parametrize("repname,resname", [("q8_rep5", "q8_res5"),
                                                 ("z4_rep7", "z4_res7"),
                                                 ("remark4_rep7", "remark4_res7")])
    def test_reduced_action_is_multiplicative(self, repname, resname, request):
        rep = request.getfixturevalue(repname)
        res = request.getfixturevalue(resname)
        idx = element_index_map(rep)
        for i, a in enumerate(rep.elements):
            for j, b in enumerate(rep.elements):
                kk = idx[mat_key(la.mat_mul(a, b))]
                lhs = res.rho_bar[kk]
                rhs = la.mat_mul(res.rho_bar[i], res.rho_bar[j])
                assert la.mat_eq(lhs, rhs)

    @pytest.mark.parametrize("repname,resname", [("q8_rep5", "q8_res5"),
                                                 ("z4_rep7", "z4_res7"),
                                                 ("remark4_rep7", "remark4_res7")])
    def test_balanced_pair_is_certified_once(self, repname, resname, request, monkeypatch):
        """balance certifies the pair and keeps it on the form; after it
        returns, descend checks only that its adapted bases span that pair
        and reduces the two adapted grams itself: no quotient_length at all,
        and no dual, residue reduction, kernel or second write of the kept
        pair."""
        rep = request.getfixturevalue(repname)
        counted = ("length", "dual", "reduce_bar", "reduce_tilde", "kernel", "keep")
        calls = dict.fromkeys(counted, 0)
        after = {"balance": False}
        real_balance = descent.balance

        def finished_balance(*args, **kwargs):
            bal = real_balance(*args, **kwargs)
            after["balance"] = True
            return bal

        def counter(name, fn, anywhere=False):
            def wrapped(*args, **kwargs):
                calls[name] += anywhere or after["balance"]
                return fn(*args, **kwargs)
            return wrapped

        # reduce_bar and reduce_tilde are sides 0 and 1 of _reduce_side,
        # which catches them however they are imported
        def counted_side(lat, form, dual, side):
            calls[("reduce_bar", "reduce_tilde")[side]] += after["balance"]
            return real_side(lat, form, dual, side)

        real_side = forms._reduce_side
        monkeypatch.setattr(descent, "balance", finished_balance)
        monkeypatch.setattr(forms, "_reduce_side", counted_side)
        monkeypatch.setattr(forms, "quotient_length",
                            counter("length", forms.quotient_length, anywhere=True))
        monkeypatch.setattr(GramForm, "dual", counter("dual", GramForm.dual))
        monkeypatch.setattr(la, "kernel_basis", counter("kernel", la.kernel_basis))
        monkeypatch.setattr(GramForm, "_keep_balanced",
                            counter("keep", GramForm._keep_balanced))
        res = descend(rep)
        assert after["balance"]
        assert calls == dict.fromkeys(counted, 0)
        want = request.getfixturevalue(resname)
        assert_matrix_equal(res.f0_gram, want.f0_gram)

    @pytest.mark.parametrize("repname", ["q8_rep5", "z4_rep7", "remark4_rep7"])
    def test_corrupted_adapted_basis_is_refused(self, repname, request, monkeypatch):
        """An adapted basis that spans a proper sublattice of the balanced
        pair (one column of u_inv times pi, the row of u times pi^-1, so the
        two stay inverse) is refused before any reduction."""
        rep = request.getfixturevalue(repname)
        field = rep.field
        real_balance = descent.balance

        def corrupted_balance(*args, **kwargs):
            bal = real_balance(*args, **kwargs)
            inc = bal.inclusion
            u_inv = [[x * field.pi_power(1) if j == 0 else x for j, x in enumerate(row)]
                     for row in inc.u_inv]
            u = [[x * field.pi_power(-1) for x in row] if i == 0 else row[:]
                 for i, row in enumerate(inc.u)]
            bal.inclusion = SNFResult(u, u_inv, inc.exps)
            return bal

        reductions = []
        reduced_gram = descent._reduced_gram
        monkeypatch.setattr(descent, "balance", corrupted_balance)
        monkeypatch.setattr(descent, "_reduced_gram",
                            lambda *args: reductions.append(args) or reduced_gram(*args))
        with pytest.raises(InternalInconsistency, match="adapted bases"):
            descend(rep)
        assert reductions == []

    def test_reduced_action_preserves_f0(self, remark4_res7):
        res = remark4_res7
        for p in res.rho_bar:
            assert res.f0.is_isometry(p)

    @pytest.mark.parametrize("name", ["q8_split_ell5", "block_b3xb2_q5", "remark4_ell7"])
    def test_no_determinant_over_K(self, name, monkeypatch):
        """The closure proved every generator of finite order, so descend
        stabilizes with no determinant (their valuations are 0), and is_stable
        reads stabilize's record; the only determinants left are the residue
        forms' over k.  Public stabilize still takes one per matrix."""
        rep, _ = load_bundle(str(BUNDLE_DIR / f"{name}.json"))
        fields, det = [], la.det
        monkeypatch.setattr(la, "det", lambda a, field: fields.append(field) or det(a, field))
        assert all(descend(rep).certificates.values())
        assert fields and not any(isinstance(f, FieldDescriptor) for f in fields)
        stabilize(standard_lattice(rep.field, rep.dim), rep.generators)
        assert fields.count(rep.field) == len(rep.generators)

    def test_start_lattice_choice_does_not_matter(self, q8_rep5, q8_res5, gauss5):
        # descend starts from the standard lattice; in the coordinates of a
        # basis B that lattice is the span of B, the group B^-1 g B and the
        # form B^T F B
        def from_start(basis):
            inv = la.mat_inv(basis, gauss5)
            gens = [la.mat_mul(inv, la.mat_mul(g, basis)) for g in q8_rep5.generators]
            form = GramForm(gauss5, q8_rep5.form.gram_in_basis(basis), "alternating")
            return descend(GroupRep(gauss5, gens, form))

        base = q8_res5
        shifted = from_start(scale_lattice(gauss5.pi_power(1),
                                           standard_lattice(gauss5, 2)).basis)
        skew = from_start(int_matrix(gauss5, [[1, 0], [0, 5]]))
        for other in (shifted, skew):
            assert other.certificates == base.certificates
            assert other.charpoly_classes == base.charpoly_classes
            assert other.block_dims == base.block_dims

    def test_unit_rescale_of_form(self, gauss5, q8_rep5, q8_res5):
        base = q8_res5
        for unit in (gauss5.rational(3), gauss5.zeta_power(1)):
            assert unit.valuation() == 0
            gram = la.scalar_mul(unit, q8_rep5.form.gram)
            rep2 = GroupRep(gauss5, q8_rep5.generators,
                            GramForm(gauss5, gram, "alternating"))
            res = descend(rep2)
            assert res.certificates == base.certificates
            assert res.charpoly_classes == base.charpoly_classes
            assert res.block_dims == base.block_dims
            assert res.block_kinds == base.block_kinds

    def test_h3_over_a_residue_subfield(self):
        """W(H_3) from its Cartan matrix over Q(sqrt 5) = Q(zeta_5)^{1,4} at
        ell = 7: the residue field F_49 is a proper subfield of the
        completion's F_7^4, so every residue goes through the subfield
        embedding."""
        desc = make_descriptor(5, 7, subgroup=(1, 4))
        assert (desc.f, desc.f_full) == (2, 4)
        o, z = desc.one, desc.zero
        tau = o + desc.orbit_sum(1)  # 1 + zeta_5 + zeta_5^4, the golden ratio
        cartan = [[2 * o, -tau, z], [-tau, 2 * o, -o], [z, -o, 2 * o]]
        gens = []
        for i in range(3):
            s = la.identity(desc, 3)
            s[i] = [x - c for x, c in zip(s[i], cartan[i])]
            gens.append(s)
        res = descend(GroupRep(desc, gens, GramForm(desc, cartan, "symmetric")))
        assert res.group_order == 120
        assert res.certificates == dict.fromkeys(
            ("faithful", "charpoly_preserved", "f0_nondegenerate", "kind_correct",
             "hypothesis_2e_lt_ell_minus_1"), True)
        assert res.block_dims == (3, 0)
        assert desc.residue_field.degree == 2
        blob = json.dumps(_descent_result_dict(res), sort_keys=True,
                          separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "5fb245cc614a33f8e09f12a2c8da3c312413f963b3101a1b3e7e711f7642b265"

    @pytest.mark.parametrize("ell,digest", [
        (5, "9bec27afd1d22483f99e96a1b7dfac073c0c3e7ac72a49618bdb186f9e3d52c2"),
        (7, "9777fc0077c7993f04d9ee828dced09e8e4bcae4f4b754d8eb187a774aae729b"),
    ])
    def test_prop6_bundle_result(self, ell, digest):
        """The prop6 bundle over Q(zeta_4ell)^{1,h}, a degree-4 or degree-6
        field: the digest pins descend's result block byte for byte."""
        res = descend(build_prop6_bundle(ell))
        blob = json.dumps(_descent_result_dict(res), sort_keys=True,
                          separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_f4_weyl_group(self):
        """W(F_4), order 1152, from its Cartan matrix over Q at ell = 7: the
        reflection in root i subtracts 2 B_ij / B_ii from row i of the
        identity, for the symmetrized gram B with two root lengths.  The
        digest pins the result block byte for byte."""
        desc = make_descriptor(1, 7)
        r = desc.rational
        gram = [[r(x) for x in row] for row in
                ([4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2])]
        gens = []
        for i in range(4):
            s = la.identity(desc, 4)
            c = r(2) / gram[i][i]
            s[i] = [x - c * b for x, b in zip(s[i], gram[i])]
            gens.append(s)
        res = descend(GroupRep(desc, gens, GramForm(desc, gram, "symmetric")))
        assert res.group_order == 1152
        assert res.certificates == dict.fromkeys(
            ("faithful", "charpoly_preserved", "f0_nondegenerate", "kind_correct",
             "hypothesis_2e_lt_ell_minus_1"), True)
        blob = json.dumps(_descent_result_dict(res), sort_keys=True,
                          separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "f558737bce8bfa9ee07c01692f3d325bc1922bad42e056dab628381504a86417"

    def test_d5_weyl_group(self):
        """W(D_5), order 1920, from its Cartan matrix over Q at ell = 7, with
        its 18 conjugacy classes; the closure holds each element as the
        indices of its rows among at most dim |G| orbit points."""
        desc = make_descriptor(1, 7)
        r = desc.rational
        cartan = [[r(2 if i == j else 0) for j in range(5)] for i in range(5)]
        for i, j in ((0, 1), (1, 2), (2, 3), (2, 4)):
            cartan[i][j] = cartan[j][i] = r(-1)
        gens = []
        for i in range(5):
            s = la.identity(desc, 5)
            s[i] = [x - c for x, c in zip(s[i], cartan[i])]
            gens.append(s)
        rep = GroupRep(desc, gens, GramForm(desc, cartan, "symmetric"))
        res = descend(rep)
        assert res.group_order == 1920
        assert len(set(rep.conjugacy_classes())) == 18
        assert res.certificates == dict.fromkeys(
            ("faithful", "charpoly_preserved", "f0_nondegenerate", "kind_correct",
             "hypothesis_2e_lt_ell_minus_1"), True)
        assert len(rep.points) <= rep.dim * rep.order

    def test_uniformizer_choice_does_not_matter(self, gauss5, q8_res5):
        base = q8_res5
        desc2 = with_uniformizer(gauss5, gauss5.pi_power(1) * gauss5.rational(2))
        res = descend(quaternion_rep(desc2))
        assert res.certificates == base.certificates
        assert res.chain_steps == base.chain_steps
        assert res.block_dims == base.block_dims
        assert res.charpoly_classes == base.charpoly_classes


def block_rep(desc, k, rng, kind="symmetric"):
    """B_1 x B_2 with the form diag(1, ell^k, ell^k) in the basis P = D U,
    U unimodular and D scaling the first coordinate by 1/ell: the standard
    lattice stabilizes to ell^-1 O + O^2, and the chain needs steps.  The
    hermitian form is conj(P)^T diag(1, ell^k, ell^k) P, with U sheared
    once more by zeta_n, so that P has entries off Q."""
    o, z = desc.one, desc.zero
    gens = [[[-o, z, z], [z, o, z], [z, z, o]],
            [[o, z, z], [z, z, o], [z, o, z]],
            [[o, z, z], [z, -o, z], [z, z, o]]]
    gram = la.identity(desc, 3)
    gram[1][1] = gram[2][2] = desc.rational(desc.ell ** k)
    d = la.identity(desc, 3)
    d[0][0] = desc.rational(f"1/{desc.ell}")
    u = random_unimodular(rng, desc, 3)
    pt = la.transpose
    if kind == "hermitian":
        shear = la.identity(desc, 3)
        shear[1][0] = desc.zeta_power(1)
        u, pt = la.mat_mul(u, shear), lambda m: la.conj_transpose(m, lambda x: x.conjugate())
    p = la.mat_mul(d, u)
    p_inv = la.mat_inv(p, desc)
    gens = [la.mat_mul(p_inv, la.mat_mul(g, p)) for g in gens]
    form = GramForm(desc, la.mat_mul(pt(p), la.mat_mul(gram, p)), kind)
    return GroupRep(desc, gens, form)


class TestAdaptedBasisAgainstTheColumnSide:
    """descend takes T's adapted basis as D u_inv diag(pi^exps) from the row
    side of the Smith form; the full reference form gives it as B v."""

    def check(self, rep):
        res = descend(rep)
        start = stabilize(standard_lattice(rep.field, rep.dim), rep.generators)
        bal = balance(start, rep.form, generators=rep.generators)
        ref = reference_snf(bal.dual.transition_from(bal.lattice), rep.field)
        # balance returns the row side of this form as its inclusion
        assert la.mat_eq(bal.inclusion.u, ref.u) and la.mat_eq(bal.inclusion.u_inv, ref.u_inv)
        assert bal.inclusion.exps == bal.invariants == ref.exps
        assert res.invariant_exps == ref.exps
        assert la.mat_eq(res.lattice_basis, la.mat_mul(bal.lattice.basis, ref.v))
        assert la.mat_eq(res.dual_basis, la.mat_mul(bal.dual.basis, ref.u_inv))
        return res

    @pytest.mark.parametrize("name", sorted(p.stem for p in BUNDLE_DIR.glob("*.json")))
    def test_committed_bundles(self, name):
        rep, _ = load_bundle(str(BUNDLE_DIR / f"{name}.json"))
        self.check(rep)

    def test_block_group_with_chain_steps(self, gauss5):
        res = self.check(block_rep(gauss5, 3, random.Random("adapted-block")))
        assert res.chain_steps == 2
        assert res.block_dims == (1, 2)
        assert all(res.certificates.values())


class TestF0AgainstTheResidueReductions:
    """descend reduces the two adapted grams itself, through the integer-form
    helper that reduce_bar and reduce_tilde share.  The expected grams are
    the entrywise residues of the form, and of pi times it, on the adapted
    bases, built over K by gram_in_basis; both full reductions must equal
    them, and reduce_bar and reduce_tilde, which certify the pair again, give
    the kinds and the conj of the two blocks of f0."""

    def check(self, rep):
        res = descend(rep)
        field, w = rep.field, sum(res.invariant_exps)
        form = GramForm(field, rep.form.gram, rep.form.kind,
                        rep.form.twist).scale_by_pi_power(res.scale_power)
        residues = lambda g: [[x.reduce() for x in row] for row in g]
        bar_gram = residues(form.gram_in_basis(res.lattice_basis))
        tilde_gram = residues(la.scalar_mul(field.pi_power(1),
                                            form.gram_in_basis(res.dual_basis)))
        lat, dual = Lattice(field, res.lattice_basis), Lattice(field, res.dual_basis)
        bar, _ = reduce_bar(lat, form, dual=dual)
        tilde, _ = reduce_tilde(lat, form, dual=dual)
        assert_matrix_equal(bar.gram, bar_gram)
        assert_matrix_equal(tilde.gram, tilde_gram)
        want = [(bar, [row[w:] for row in bar_gram[w:]]),
                (tilde, [row[:w] for row in tilde_gram[:w]])]
        for block, (full, gram) in zip(res.f0.blocks, want, strict=True):
            assert_matrix_equal(block.gram, gram)
            assert (block.kind, block.conj) == (full.kind, full.conj)
        return res

    @pytest.mark.parametrize("name", sorted(p.stem for p in BUNDLE_DIR.glob("*.json")))
    def test_committed_bundles(self, name):
        rep, _ = load_bundle(str(BUNDLE_DIR / f"{name}.json"))
        self.check(rep)

    @pytest.mark.parametrize("k, seed", [(2, "f0-oracle-a"), (3, "f0-oracle-b")])
    def test_block_groups_with_chain_steps(self, gauss5, k, seed):
        res = self.check(block_rep(gauss5, k, random.Random(seed)))
        assert res.chain_steps >= 1

    @pytest.mark.parametrize("k, seed", [(2, "f0-oracle-c"), (3, "f0-oracle-e")])
    def test_hermitian_block_groups_with_chain_steps(self, gauss7, k, seed):
        """The block groups with a hermitian form over Q(i) at the inert 7,
        on bases off Q, where conj moves both residue grams."""
        res = self.check(block_rep(gauss7, k, random.Random(seed), "hermitian"))
        assert res.chain_steps >= 1
        assert all(res.certificates.values())

    @pytest.mark.parametrize("side, message", [(0, "first residue gram"),
                                               (1, "second residue gram")])
    def test_mass_off_a_block_is_refused(self, side, message, monkeypatch):
        """One off-block diagonal entry of one reduced gram moved by one:
        index 0 lies off the first block, the last index off the second."""
        rep, _ = load_bundle(str(BUNDLE_DIR / "block_b3xb2_q5.json"))
        reduced_gram = descent._reduced_gram
        reduced = []

        def bent(*args):
            rg = reduced_gram(*args)
            if len(reduced) == side:
                i = len(rg) - 1 if side else 0
                rg[i][i] = rg[i][i] + rg[i][i].field.one
            reduced.append(rg)
            return rg

        monkeypatch.setattr(descent, "_reduced_gram", bent)
        with pytest.raises(InternalInconsistency, match=message):
            descend(rep)
