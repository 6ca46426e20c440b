import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from isodescent.errors import (
    InvalidDescriptor,
    NegativeValuation,
    NoInvolution,
)
from isodescent.cyclotomic import CycloRing, _split_ell
from isodescent.finitefield import cyclotomic_factors_mod
from isodescent.exactfield import (MAX_CONDUCTOR, MAX_ELL, MAX_RESIDUE_DEGREE, FieldElement,
                                   _primitive_period, _symmetry_broken, make_descriptor,
                                   with_uniformizer)
from isodescent.localring import LambdaEngine

from conftest import SNF_FIELDS, random_field_element, snf_field


class TestDescriptorConstruction:
    def test_equal_ell_and_m_share_one_factor_tuple(self):
        # Q(zeta_7) and Q(zeta_35) at 5 both factor Phi_7 mod 5: the
        # factorization is computed once and both descriptors hold its factor
        factors = cyclotomic_factors_mod(5, 7)
        assert isinstance(factors, tuple)
        assert make_descriptor(7, 5).factor is make_descriptor(35, 5).factor is factors[0][0]

    def test_rejects_even_characteristic(self):
        with pytest.raises(InvalidDescriptor):
            make_descriptor(4, 2)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(InvalidDescriptor):
            make_descriptor(4, 9)

    def test_rejects_bad_conductor(self):
        with pytest.raises(InvalidDescriptor):
            make_descriptor(0, 5)

    def test_rejects_booleans_as_integers(self):
        for args, kwargs in (((True, 5), {}), ((4, True), {}),
                             ((4, 5), {"prime_choice": False}),
                             ((4, 7), {"involution": 3.7}),
                             ((4, 7), {"involution": "3"}),
                             ((4, 7), {"involution": True}),
                             ((8, 7), {"subgroup": (1, True)}),
                             ((8, 7), {"subgroup": (1, 3.0)}),
                             ((1, 5), {"subgroup": (1.0,)})):
            with pytest.raises(InvalidDescriptor):
                make_descriptor(*args, **kwargs)

    def test_conductor_and_ell_caps(self):
        assert make_descriptor(MAX_CONDUCTOR, 3).degree == 32
        assert make_descriptor(1, 997).ell == 997    # the largest prime <= MAX_ELL
        with pytest.raises(InvalidDescriptor, match=f"at most {MAX_CONDUCTOR}"):
            make_descriptor(MAX_CONDUCTOR + 1, 3)
        for ell in (1009, 10 ** 18 + 9):
            with pytest.raises(InvalidDescriptor, match=f"at most {MAX_ELL}"):
                make_descriptor(4, ell)

    def test_residue_degree_cap(self):
        # Q(zeta_64) at ell = 3, the field of the conductor cap, has the
        # largest admitted residue degree; 3 has order 18 mod 19
        assert make_descriptor(MAX_CONDUCTOR, 3).f == MAX_RESIDUE_DEGREE
        with pytest.raises(InvalidDescriptor, match=f"at most {MAX_RESIDUE_DEGREE}"):
            make_descriptor(19, 3)
        # the cap is on Q(zeta_n): a subfield with a smaller residue degree
        # needs the same tables
        with pytest.raises(InvalidDescriptor, match=f"at most {MAX_RESIDUE_DEGREE}"):
            make_descriptor(19, 3, subgroup=(1, 18))

    def test_rejects_unclosed_subgroup(self):
        with pytest.raises(InvalidDescriptor):
            make_descriptor(5, 7, subgroup=(1, 2))

    def test_rejects_involution_inside_subgroup(self):
        with pytest.raises(InvalidDescriptor):
            make_descriptor(5, 7, subgroup=(1, 4), involution=4)

    def test_degenerate_descriptor_is_rationals(self, rat5):
        assert rat5.degree == 1
        assert rat5.e == 1 and rat5.f == 1
        assert rat5.pi.valuation() == 1

    def test_describe_shapes(self, gauss5, gauss7, real5, quad7):
        for desc, e, f in ((gauss5, 1, 1), (gauss7, 1, 2),
                           (real5, 2, 1), (quad7, 2, 1)):
            d = desc.describe()
            assert d["ramification_index"] == e
            assert d["residue_degree"] == f
            assert d["residue_order"] == desc.ell ** f

    def test_hypothesis_flags(self, gauss5, gauss7, real5, quad7):
        assert gauss5.two_e_ok          # 2 < 4
        assert gauss7.two_e_ok          # 2 < 6
        assert not real5.two_e_ok       # 4 = 4
        assert quad7.two_e_ok           # 4 < 6

    def test_involution_types(self, gauss7, quad7):
        assert gauss7.involution_type == "unramified"
        assert quad7.involution_type == "ramified"


class TestValuation:
    def test_characteristic_has_ramification_valuation(
            self, gauss5, gauss7, real5, quad7, rat5):
        for desc in (gauss5, gauss7, real5, quad7, rat5):
            assert desc.rational(desc.ell).valuation() == desc.e

    def test_zero_and_one(self, gauss5):
        assert gauss5.zero.valuation() == math.inf
        assert gauss5.one.valuation() == 0
        assert gauss5.pi.valuation() == 1

    def test_full_cyclotomic_uniformizer(self):
        desc = make_descriptor(5, 5)
        zeta = desc.zeta_power(1)
        assert (desc.one - zeta).valuation() == 1
        assert desc.e == 4
        assert desc.rational(5).valuation() == 4

    def test_quadratic_square_root_valuations(self, real5, quad7):
        # (2c+1)^2 = 5 for c the trace of zeta_5
        c = real5.orbit_sum(1)
        r = c + c + real5.one
        assert (r * r - real5.rational(5)).is_zero
        assert r.valuation() == 1
        # the anti-fixed element of the conductor-7 field squares to -7
        sq = quad7.orbit_sum(1) - quad7.orbit_sum(3)
        assert (sq * sq + quad7.rational(7)).is_zero
        assert sq.valuation() == 1
        assert (sq.conjugate() + sq).is_zero

    @pytest.mark.parametrize("descname,count",
                             [("gauss5", 340), ("real5", 330), ("quad7", 330)])
    def test_valuation_pair_properties(self, descname, count, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"valuation-{descname}")
        for _ in range(count):
            x = random_field_element(rng, desc)
            y = random_field_element(rng, desc)
            vx, vy = x.valuation(), y.valuation()
            assert (x * y).valuation() == vx + vy
            vsum = (x + y).valuation()
            assert vsum >= min(vx, vy)
            if vx != vy:
                assert vsum == min(vx, vy)

    def test_scaling_shifts_valuation(self, gauss5):
        rng = random.Random("shift")
        for _ in range(50):
            x = random_field_element(rng, gauss5)
            if x.is_zero:
                continue
            k = rng.randint(-3, 3)
            assert (x * gauss5.pi_power(k)).valuation() == x.valuation() + k


class TestReduce:
    def test_zeta5_reduces_to_one(self):
        desc = make_descriptor(5, 5)
        assert desc.zeta_power(1).reduce() == desc.residue_field.one

    def test_half_reduces_to_three(self, gauss5):
        assert gauss5.rational("1/2").reduce() == gauss5.residue_field.element(3)

    def test_gaussian_unit_reduces_to_adjoined_root(self, gauss7):
        k = gauss7.residue_field
        r = gauss7.zeta_power(1).reduce()
        assert r * r == -k.one
        assert r != k.one and r != -k.one

    def test_uniformizer_reduces_to_zero(self, gauss5, real5):
        for desc in (gauss5, real5):
            assert desc.pi.reduce() == desc.residue_field.zero

    def test_negative_valuation_rejected(self, gauss5):
        with pytest.raises(NegativeValuation):
            (gauss5.one * gauss5.pi_power(-1)).reduce()

    @pytest.mark.parametrize("descname,count",
                             [("gauss5", 340), ("gauss7", 330), ("quad7", 330)])
    def test_reduce_is_a_ring_homomorphism(self, descname, count, request):
        desc = request.getfixturevalue(descname)
        rng = random.Random(f"reduce-{descname}")
        for _ in range(count):
            x = random_field_element(rng, desc, integral=True)
            y = random_field_element(rng, desc, integral=True)
            assert (x * y).reduce() == x.reduce() * y.reduce()
            assert (x + y).reduce() == x.reduce() + y.reduce()

    def test_prime_to_ell_denominator_takes_no_valuation(self, gauss7, quad7,
                                                          monkeypatch):
        rng = random.Random("reduce-no-valuation")
        elements = [random_field_element(rng, desc, integral=True) * desc.rational("1/3")
                    for desc in (gauss7, quad7) for _ in range(30)]
        assert all(x.den % x.field.ell for x in elements)
        calls = []
        certify = LambdaEngine.valuation

        def counted(engine, vec):
            calls.append(vec)
            return certify(engine, vec)

        monkeypatch.setattr(LambdaEngine, "valuation", counted)
        for x in elements:
            x.reduce()
        assert calls == []
        # a valuation is certified only to word the refusal of a non-integral element
        with pytest.raises(NegativeValuation):
            gauss7.rational("1/7").reduce()
        assert len(calls) == 1

    def test_ell_dividing_den_takes_no_valuation(self, gauss5, monkeypatch):
        """(2 +- i)/5 in Q(i) at 5, with the sign whose numerator lies in
        the chosen prime: integral with den 5 in lowest terms, so the digit
        test decides it and the residue is read off the digits, with no
        valuation certified.  Its product with the other factor is 1."""
        i = gauss5.zeta_power(1)
        num, other = sorted((2 + i, 2 - i), key=lambda y: -y.valuation())
        assert (num.valuation(), other.valuation()) == (1, 0)
        x = num / 5
        assert x.den == 5
        calls = []
        certify = LambdaEngine.valuation

        def counted(engine, vec):
            calls.append(vec)
            return certify(engine, vec)

        monkeypatch.setattr(LambdaEngine, "valuation", counted)
        got = x.reduce()
        assert calls == []
        assert got * other.reduce() == gauss5.residue_field.one

    @pytest.mark.parametrize("n,ell,sub", [
        (1, 5, (1,)),          # Q at 5
        (7, 7, (1, 2, 4)),     # Q(sqrt -7) at 7, ramified
        (4, 7, (1,)),          # Q(i) at 7, inert
        (5, 7, (1, 4)),        # Q(sqrt 5) at 7: the residue subfield of F_7^4
    ])
    def test_prime_to_ell_denominator_matches_the_certified_residue(self, n, ell, sub):
        desc = make_descriptor(n, ell, subgroup=sub)
        rng = random.Random(f"reduce-certified-{n}-{ell}")
        for _ in range(60):
            x = random_field_element(rng, desc, integral=True) * desc.rational("2/9")
            assert x.den % ell
            # the reference: valuation certified first, then the residue of
            # the numerator over d
            assert x.valuation() >= 0
            t, d = _split_ell(x.den, ell)
            certified = desc._residue_from_big(desc.kengine.residue(x.num, t))
            certified = certified * pow(d % ell, -1, ell)
            assert FieldElement(desc, x.coeffs).reduce() == certified, x

    @pytest.mark.parametrize("i", range(len(SNF_FIELDS) + 1))
    def test_residue_of_a_pair_matches_reduce(self, i):
        """FieldDescriptor._residue on (w, d) pairs not in lowest terms, over
        the SNF fields and Q(i) at the inert 7 (k = F_49), against reduce
        on the element w / d: common factors prime to ell and powers of ell,
        w = 0, and d divisible by ell^t with w divisible by ell^t at the
        prime or not, which raises NegativeValuation both ways."""
        desc = snf_field(i) if i < len(SNF_FIELDS) else make_descriptor(4, 7)
        ell, k = desc.ell, desc.residue_field
        for d in (1, 2, ell, 3 * ell ** 4):
            assert desc._residue(desc.kring.zero, d) == k.zero
        rng = random.Random(f"residue-pairs-{i}")
        seen = set()
        for _ in range(30):
            x = random_field_element(rng, desc)
            for c in (1, 2, ell, 2 * ell ** 3):
                w, d = tuple(c * v for v in x.num), c * x.den
                integral = x.is_zero or x.valuation() >= 0
                seen.add((integral, d % ell == 0))
                if integral:
                    assert desc._residue(w, d) == FieldElement(desc, x.coeffs).reduce()
                else:
                    with pytest.raises(NegativeValuation):
                        desc._residue(w, d)
                    with pytest.raises(NegativeValuation):
                        FieldElement(desc, x.coeffs).reduce()
        assert seen == {(True, False), (True, True), (False, True)}

    def test_reduce_kernel_is_positive_valuation(self, gauss5):
        rng = random.Random("kernel")
        zero = gauss5.residue_field.zero
        for _ in range(100):
            x = random_field_element(rng, gauss5, integral=True)
            assert (x.reduce() == zero) == (x.valuation() >= 1)


class TestInvolution:
    def test_missing_involution(self, gauss5):
        with pytest.raises(NoInvolution):
            gauss5.one.conjugate()

    def test_gaussian_conjugation(self, gauss7):
        x = gauss7.rational(3) + gauss7.zeta_power(1)
        assert x.conjugate() == gauss7.rational(3) - gauss7.zeta_power(1)

    def test_cyclotomic_conjugation_inverts_zeta(self):
        desc = make_descriptor(5, 5, subgroup=(1,), involution=4)
        assert desc.zeta_power(1).conjugate() == desc.zeta_power(4)

    def test_involution_is_an_involution(self, gauss7, quad7):
        rng = random.Random("invol")
        for desc in (gauss7, quad7):
            for _ in range(50):
                x = random_field_element(rng, desc)
                assert x.conjugate().conjugate() == x

    def test_unramified_involution_preserves_valuation(self, gauss7):
        rng = random.Random("invval")
        for _ in range(50):
            x = random_field_element(rng, gauss7)
            assert x.conjugate().valuation() == x.valuation()

    def test_residue_involution_is_frobenius_unramified(self, gauss7):
        rng = random.Random("frob")
        for _ in range(50):
            x = random_field_element(rng, gauss7, integral=True)
            assert x.conjugate().reduce() == x.reduce().frobenius(1)

    def test_residue_involution_trivial_ramified(self, quad7):
        rng = random.Random("frobram")
        for _ in range(50):
            x = random_field_element(rng, quad7, integral=True)
            assert x.conjugate().reduce() == x.reduce()

    def test_fixed_subfield_elements_are_fixed(self, quad7):
        # rationals lie in the fixed field of any involution
        assert quad7.rational("7/3").conjugate() == quad7.rational("7/3")


class TestStringCoordinates:
    @pytest.mark.parametrize("text", ["1e5", "1e100000", "2.5", " 3", "1_000"])
    def test_only_integers_and_fractions_parse(self, gauss5, text):
        # Fraction alone reads exponent and decimal forms, and builds 10^k
        # for an exponent k of any size
        with pytest.raises(ValueError):
            gauss5.element([text])
        with pytest.raises(ValueError):
            gauss5.rational(text)

    def test_signed_fraction_parses(self, gauss5):
        assert gauss5.element(["-3/2", "+4"]).coeffs == (Fraction(-3, 2), Fraction(4))
        assert gauss5.rational("-3/2") == gauss5.rational(Fraction(-3, 2))


class TestUniformizerChoice:
    def test_unit_multiple_is_accepted(self, gauss5):
        alt = with_uniformizer(gauss5, gauss5.pi * gauss5.rational(2))
        assert alt.pi.valuation() == 1
        rng = random.Random("unifrm")
        for _ in range(30):
            x = random_field_element(rng, gauss5)
            y = alt.element(list(x.coeffs))
            assert x.valuation() == y.valuation()
            if x.valuation() >= 0:
                assert x.reduce() == y.reduce()

    def test_clone_elements_interoperate(self, gauss5):
        alt = with_uniformizer(gauss5, gauss5.pi * gauss5.rational(2))
        x, y = gauss5.rational(3), alt.rational(3)
        assert x == y and y == x
        assert (x + y) == gauss5.rational(6) and (y * x) == alt.rational(9)
        other = make_descriptor(4, 13)
        assert x != other.rational(3)
        with pytest.raises(InvalidDescriptor):
            x + other.rational(3)

    def test_clone_caches_are_its_own(self, gauss5):
        alt = with_uniformizer(gauss5, gauss5.pi * gauss5.rational(2))
        for j in (0, 1, 2, -1):
            assert alt.pi_power(j).field is alt
        assert alt.pi_power(0) == alt.one and alt.pi_power(2) == alt.pi * alt.pi
        assert alt.one.field is alt and alt.zero.field is alt
        assert gauss5.pi_power(0).field is gauss5 and gauss5.pi_power(1) == gauss5.pi

    def test_non_uniformizer_rejected(self, gauss5):
        with pytest.raises(InvalidDescriptor):
            with_uniformizer(gauss5, gauss5.rational(2))
        with pytest.raises(InvalidDescriptor):
            with_uniformizer(gauss5, gauss5.rational(25))

    def test_ramified_involution_needs_antifixed_uniformizer(self, quad7):
        # pi itself qualifies; a fixed element of valuation 1 does not exist,
        # and a wrong-symmetry candidate like pi + 49 is rejected
        bad = quad7.pi + quad7.rational(49)
        with pytest.raises(InvalidDescriptor, match="anti-fixed"):
            with_uniformizer(quad7, bad)

    def test_unramified_involution_needs_fixed_uniformizer(self, gauss7):
        # 7 i has valuation 1 at the inert 7, and conjugation sends it to -7 i
        bad = gauss7.zeta_power(1) * gauss7.rational(7)
        assert bad.valuation() == 1
        with pytest.raises(InvalidDescriptor, match="conjugation-fixed"):
            with_uniformizer(gauss7, bad)


def _subgroups(n):
    """Every subgroup of the units modulo n, as a sorted tuple."""
    units = [t for t in range(1, n) if math.gcd(t, n) == 1]

    def closure(gens):
        out, todo = {1}, [1]
        while todo:
            x = todo.pop()
            for g in gens:
                y = x * g % n
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return frozenset(out)

    found, layer = {closure(())}, {closure(())}
    while layer:
        layer = {closure(set(h) | {u}) for h in layer for u in units if u not in h} - found
        found |= layer
    return sorted(tuple(sorted(h)) for h in found)


class TestTheta:
    """K runs on the power basis of theta, a Gaussian period (_build_theta)."""

    def test_every_field_below_the_conductor_cap_has_a_primitive_period(self):
        # so the search for theta never needs a combination of periods
        count = 0
        for n in range(3, MAX_CONDUCTOR + 1):
            ring = CycloRing(n)
            units = [t for t in range(1, n) if math.gcd(t, n) == 1]
            for h in _subgroups(n):
                cosets = sorted({min(t * x % n for x in h) for t in units})
                assert _primitive_period(ring, h, cosets) is not None, (n, h)
                count += 1
        assert count == 584

    @pytest.mark.parametrize("n, ell, sub, inv, j, modulus", [
        (7, 7, (1, 2, 4), 3, 1, (2, 1, 1)),                 # remark4: x^2 + x + 2
        (5, 7, (1, 4), None, 1, (-1, 1, 1)),                # Q(sqrt 5): x^2 + x - 1
        (20, 5, (1, 9), None, 1, (1, 0, 3, 0, 1)),          # prop6 at 5: x^4 + 3x^2 + 1
        (28, 7, (1, 13), None, 1, (1, 0, 6, 0, 5, 0, 1)),   # prop6 at 7
        (8, 5, (1, 5), None, 2, (4, 0, 1)),                 # eta_1 = 0: theta = eta_2 = 2i
        (5, 7, (1, 2, 3, 4), None, 1, (1, 1)),              # K = Q: theta = -1
    ])
    def test_theta_and_its_minimal_polynomial(self, n, ell, sub, inv, j, modulus):
        desc = make_descriptor(n, ell, subgroup=sub, involution=inv)
        assert desc.kring is not desc.ring
        assert desc.kring.modulus == modulus and desc.kring.degree == desc.degree
        theta = desc.orbit_sum(j)
        assert theta.den == 1
        assert theta.num == ((0, 1) + (0,) * (desc.degree - 2) if desc.degree > 1
                             else (-modulus[0],))
        acc = desc.zero
        for c in reversed(modulus):
            acc = acc * theta + c
        assert acc.is_zero

    def test_trivial_subgroup_runs_on_the_ambient_ring(self):
        desc = make_descriptor(12, 5)
        assert desc.kring is desc.ring and desc.kengine is desc.engine
        x = desc.zeta_power(5) / 3
        assert x.num == desc.ring.zeta_power(5) and x.coeffs == tuple(
            Fraction(c, 3) for c in desc.ring.zeta_power(5))

    def test_vectors_outside_the_field_are_refused(self):
        desc = make_descriptor(8, 5, subgroup=(1, 5))
        assert desc.zeta_power(2) == desc.element((0, 0, 1, 0))
        for coeffs in ((0, 1), (0, 0, 0, 1), (1, 1, 1, 1)):
            with pytest.raises(InvalidDescriptor):
                FieldElement(desc, coeffs)
            with pytest.raises(InvalidDescriptor):
                desc.element(coeffs)
        with pytest.raises(InvalidDescriptor):
            desc.zeta_power(1)


def _units_with_residues(n, ell, residues):
    """The units modulo n whose residue modulo ell lies in `residues`."""
    return tuple(t for t in range(1, n) if math.gcd(t, n) == 1 and t % ell in residues)


# the fields with ell^2 | n where no trace of zeta^j (1 - zeta_(ell^a))^s
# with s <= 3 certifies: the first that does has s = ell (s = 9 at ell = 3).
# H is the units with residue mod ell in `residues`, e_rel = |H & I| is 5
# to 21, with and without an involution
DEEP_RAMIFIED = [
    (n, ell, _units_with_residues(n, ell, residues), inv)
    for n, ell, residues, invs in [
        (25, 5, {1}, (None, 4)), (27, 3, {1}, (None, 2)), (49, 7, {1}, (None, 6)),
        (50, 5, {1}, (None, 9)), (54, 3, {1}, (None, 5)),
        (25, 5, {1, 4}, (None, 2)), (49, 7, {1, 6}, (None,)), (50, 5, {1, 4}, (None, 3)),
        (49, 7, {1, 2, 4}, (None, 3)),
    ]
    for inv in invs
]


class TestDeepRamification:
    @pytest.mark.parametrize("n, ell, sub, inv", DEEP_RAMIFIED)
    def test_uniformizer_is_certified(self, n, ell, sub, inv):
        desc = make_descriptor(n, ell, subgroup=sub, involution=inv)
        assert desc.pi.valuation() == 1
        assert _symmetry_broken(desc, desc.pi) is None


def _cyclic_subgroups(n):
    """Every cyclic subgroup of the units modulo n, as a sorted tuple."""
    out = set()
    for u in (t for t in range(1, n) if math.gcd(t, n) == 1):
        h, x = {1}, u
        while x not in h:
            h.add(x)
            x = x * u % n
        out.add(tuple(sorted(h)))
    return sorted(out) or [(1,)]


def _involution_cosets(n, sub):
    """The least unit of each coset s H with s not in H and s^2 in H."""
    return sorted({min(s * h % n for h in sub) for s in range(1, n)
                   if math.gcd(s, n) == 1 and s not in sub and s * s % n in sub})


def test_descriptor_grid_digest():
    # describe(), or the refusal, of each input with n <= 40, ell in {3, 5, 7},
    # H cyclic, with no involution and with each one, the first prime; the
    # DEEP_RAMIFIED fields, refused while the uniformizer search stopped at
    # s = 3, are left out
    skip = set(DEEP_RAMIFIED)
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 41):
        for ell in (3, 5, 7):
            for sub in _cyclic_subgroups(n):
                for inv in [None] + _involution_cosets(n, sub):
                    if (n, ell, sub, inv) in skip:
                        continue
                    try:
                        desc = make_descriptor(n, ell, subgroup=sub, involution=inv)
                        text = json.dumps(desc.describe(), sort_keys=True)
                    except InvalidDescriptor as exc:
                        text = str(exc)
                    digest.update(text.encode() + b"\n")
                    count += 1
    assert count == 1545
    assert digest.hexdigest() == (
        "7d464963eaba0b9d812bc69cc30bae365324f8bfd883b15ee09b89f76b4ebacd")
