"""The lambda-adic valuation against the digit strip it replaced.

`DigitStripEngine` is the former `LambdaEngine` valuation, copied verbatim:
elements in the u-basis of S_P, a nonzero residue at u -> 1 pins the
valuation, an ell-division consumes e digits, and multiplying by
Q(u) = prod_{c != 1} (1 - u^c) turns one (1 - u)-digit into an ell-division.
It presents W as Z_ell[t]/(G) with G the Hensel lift of the chosen factor of
Phi_m, the former `LambdaEngine.lift`, copied verbatim with `_int_poly_mul`,
where the engine under test sends zeta_m to a Newton root of x^m = 1.  Its
power tables come from `_var_powers` and its Psi from `self._psi`, the
former engine's, copied verbatim.  Of the engine under test it uses only the
constructor's scalars (a, m, e_full, f_full, alpha, beta) and checked factor.

On one-digit completions (e_full = f_full = 1) the engine is also checked
against the plain ell-adic image of an element in Z_ell, with the root of
unity lifted one digit at a time and valuations found by repeated division.
"""

from __future__ import annotations

import random

import pytest

from isodescent.cyclotomic import _split_ell, cyclotomic_poly, euler_phi
from isodescent.errors import InternalInconsistency, NegativeValuation
from isodescent.exactfield import make_descriptor
from isodescent.finitefield import fp_divmod, fp_ext_gcd, fp_mod, fp_mul, fp_sub, fp_trim
from isodescent.localring import PRECISION_START, LambdaEngine

from conftest import power_numerator

_TPoly = list[int]
_Elt = list[list[int]]


def _var_powers(count: int, monic, modulus: int) -> list[list[int]]:
    """x^k reduced modulo a monic polynomial (coefficients low first), for
    k < count, as coefficient vectors of length deg(monic) mod modulus."""
    d = len(monic) - 1
    cur = [1] + [0] * (d - 1) if d > 0 else []
    out = []
    for _ in range(count):
        out.append(cur)
        if d:
            top = cur[-1] % modulus
            cur = [(v - top * g) % modulus for v, g in zip([0] + cur[:-1], monic)]
    return out


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class DigitStripEngine(LambdaEngine):
    def __init__(self, n: int, ell: int, factor: tuple[int, ...]):
        super().__init__(n, ell, factor)
        self._psi = [int(c) for c in cyclotomic_poly(ell**self.a)] if self.a >= 1 else None
        self._phi_m = [int(c) for c in cyclotomic_poly(self.m)]
        self._lift_cache: dict[int, tuple[int, ...]] = {}
        self._img_cache = {}
        self._q_cache = {}

    def lift(self, prec: int) -> tuple[int, ...]:
        """The factor lifted to a monic divisor of Phi_m modulo ell^prec."""
        if prec in self._lift_cache:
            return self._lift_cache[prec]
        ell = self.ell
        modulus = ell**prec
        phi_m = self._phi_m
        if self.f_full == len(phi_m) - 1:
            g_int = tuple(c % modulus for c in phi_m)
            self._lift_cache[prec] = g_int
            return g_int
        g0 = self.factor
        phi_bar = tuple(c % ell for c in phi_m)
        r0, rem = fp_divmod(phi_bar, g0, ell)
        if fp_trim(rem):
            raise InternalInconsistency("chosen factor does not divide the cyclotomic polynomial mod ell")
        gcd, _, t_pol = fp_ext_gcd(g0, r0, ell)
        if gcd != (1,):
            raise InternalInconsistency(
                "factors of the cyclotomic polynomial are not coprime")
        g_cur = [int(c) for c in g0]
        r_cur = [int(c) for c in r0]
        for k in range(1, prec):
            step = ell**k
            prod = _int_poly_mul(g_cur, r_cur)
            err = [0] * max(len(phi_m), len(prod))
            for i, c in enumerate(phi_m):
                err[i] += c
            for i, c in enumerate(prod):
                err[i] -= c
            if any(c % step for c in err):
                raise InternalInconsistency("Hensel lift lost divisibility")
            e_bar = fp_trim(tuple((c // step) % ell for c in err))
            if not e_bar:
                continue
            dg = fp_mod(fp_mul(e_bar, t_pol, ell), g0, ell)
            num = fp_sub(e_bar, fp_mul(dg, r0, ell), ell)
            dr, rem2 = fp_divmod(num, g0, ell)
            if fp_trim(rem2):
                raise InternalInconsistency("Hensel correction is not divisible by the factor")
            for i, c in enumerate(dg):
                if i >= len(g_cur):
                    g_cur.append(0)
                g_cur[i] = g_cur[i] + step * c
            for i, c in enumerate(dr):
                if i >= len(r_cur):
                    r_cur.append(0)
                r_cur[i] = r_cur[i] + step * c
        g_int = tuple(c % modulus for c in g_cur)
        assert len(g_int) == self.f_full + 1 and g_int[-1] == 1
        check = _int_poly_mul(list(g_int), r_cur)
        for i in range(max(len(check), len(phi_m))):
            lhs = check[i] if i < len(check) else 0
            rhs = phi_m[i] if i < len(phi_m) else 0
            if (lhs - rhs) % modulus:
                raise InternalInconsistency("Hensel lift verification failed")
        self._lift_cache[prec] = g_int
        return g_int

    def zero_elt(self) -> _Elt:
        return [[0] * self.f_full for _ in range(self.e_full)]

    def _tmul(self, a: _TPoly, b: _TPoly, g_int, modulus: int) -> _TPoly:
        conv = [0] * (2 * self.f_full - 1) if self.f_full > 0 else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        # monic reduction mod G
        for k in range(len(conv) - 1, self.f_full - 1, -1):
            c = conv[k] % modulus
            if c:
                for j in range(self.f_full):
                    conv[k - self.f_full + j] -= c * g_int[j]
            conv[k] = 0
        return [conv[i] % modulus for i in range(self.f_full)]

    def mul(self, z1: _Elt, z2: _Elt, prec: int) -> _Elt:
        modulus = self.ell**prec
        g_int = self.lift(prec)
        e = self.e_full
        rows: list[_TPoly] = [[0] * self.f_full for _ in range(2 * e - 1)]
        for i in range(e):
            if any(z1[i]):
                for j in range(e):
                    if any(z2[j]):
                        prod = self._tmul(z1[i], z2[j], g_int, modulus)
                        tgt = rows[i + j]
                        for idx in range(self.f_full):
                            tgt[idx] = (tgt[idx] + prod[idx]) % modulus
        if self._psi is not None:
            for k in range(2 * e - 2, e - 1, -1):
                row = rows[k]
                if any(row):
                    for j in range(e):
                        cj = self._psi[j]
                        if cj:
                            tgt = rows[k - e + j]
                            for idx in range(self.f_full):
                                tgt[idx] = (tgt[idx] - cj * row[idx]) % modulus
        return [[v % modulus for v in rows[i]] for i in range(e)]

    def images(self, prec: int) -> list[_Elt]:
        """Images of zeta_n^j, j < phi(n), in S_prec."""
        if prec in self._img_cache:
            return self._img_cache[prec]
        modulus = self.ell**prec
        g_int = self.lift(prec)
        la = self.ell**self.a
        t_pows = _var_powers(max(self.m, 1), g_int, modulus)
        u_pows = _var_powers(la, self._psi, modulus) if self.a >= 1 else []
        phi_n = euler_phi(self.n)
        imgs: list[_Elt] = []
        for j in range(phi_n):
            if self.a == 0:
                row = t_pows[j % self.m]
                elt = [[v % modulus for v in row]]
            else:
                te = t_pows[(self.alpha * j) % self.m]
                ue = u_pows[(self.beta * j) % la]
                elt = [[(uc * tv) % modulus for tv in te] for uc in ue]
            imgs.append(elt)
        self._img_cache[prec] = imgs
        return imgs

    def image_of(self, vec, prec: int) -> _Elt:
        """Image in S_prec of an integer coefficient vector on the power basis."""
        imgs = self.images(prec)
        modulus = self.ell**prec
        acc = self.zero_elt()
        for j, c in enumerate(vec):
            c %= modulus
            if c:
                img = imgs[j]
                for i in range(self.e_full):
                    row = img[i]
                    tgt = acc[i]
                    for idx in range(self.f_full):
                        tgt[idx] = (tgt[idx] + c * row[idx]) % modulus
        return acc

    def _q_elt(self, prec: int) -> _Elt:
        """Q(u) = prod over units c != 1 of (1 - u^c), with (1 - u) Q = ell."""
        if prec in self._q_cache:
            return self._q_cache[prec]
        la = self.ell**self.a
        modulus = self.ell**prec
        u_pows = _var_powers(la, self._psi, modulus)
        q = self.zero_elt()
        q[0][0] = 1
        for c in range(2, la):
            if c % self.ell == 0:
                continue
            term = self.zero_elt()
            term[0][0] = 1
            uc = u_pows[c]
            for i in range(self.e_full):
                term[i][0] = (term[i][0] - uc[i]) % modulus
            q = self.mul(q, term, prec)
        # certify the divisor identity (1 - u) * Q = ell in S_prec
        one_minus_u = self.zero_elt()
        one_minus_u[0][0] = 1
        u1 = u_pows[1]
        for i in range(self.e_full):
            one_minus_u[i][0] = (one_minus_u[i][0] - u1[i]) % modulus
        prod = self.mul(one_minus_u, q, prec)
        expect = self.zero_elt()
        expect[0][0] = self.ell % modulus
        if prod != expect:
            raise InternalInconsistency("uniformizer digit divisor identity failed")
        self._q_cache[prec] = q
        return q

    def residue_of(self, z: _Elt) -> tuple[int, ...]:
        """Image in the residue field F_ell[t]/(factor): set u -> 1, reduce mod ell."""
        total = [0] * self.f_full
        for row in z:
            for i, v in enumerate(row):
                total[i] += v
        return tuple(v % self.ell for v in total)

    def analyze(self, vec, prec: int):
        """Certified (valuation, residue-of-unit-part) of a nonzero integer vector.

        Returns None when prec digits were not enough to certify; the residue
        returned is that of z / pi^v, nonzero by construction.  Must not be
        called on the zero vector (it would burn precision and return None).
        """
        z = self.image_of(vec, prec)
        v = 0
        cur_prec = prec
        while True:
            res = self.residue_of(z)
            if any(res):
                return v, res
            if cur_prec < 2:
                return None
            modulus = self.ell**cur_prec
            if all(val % self.ell == 0 for row in z for val in row):
                z = [[(val // self.ell) % (modulus // self.ell) for val in row] for row in z]
                cur_prec -= 1
                v += self.e_full
                continue
            if self.a == 0:
                raise InternalInconsistency(
                    "zero residue without ell-divisibility in an unramified engine")
            q = self._q_elt(cur_prec)
            z = self.mul(z, q, cur_prec)
            if any(val % self.ell for row in z for val in row):
                raise InternalInconsistency("digit strip product not divisible by ell")
            z = [[(val // self.ell) % (modulus // self.ell) for val in row] for row in z]
            cur_prec -= 1
            v += 1

    def residue_after_ell_divisions(self, vec, k: int, prec: int) -> tuple[int, ...]:
        """Residue of (vector / ell^k); requires the division to be exact lambda-adically."""
        if prec < k + 1:
            raise InternalInconsistency("insufficient precision for the requested divisions")
        z = self.image_of(vec, prec)
        modulus = self.ell**prec
        for _ in range(k):
            if any(val % self.ell for row in z for val in row):
                raise InternalInconsistency(
                    "ell-division requested on a vector that is not divisible")
            modulus //= self.ell
            z = [[(val // self.ell) % modulus for val in row] for row in z]
        return self.residue_of(z)


# (n, ell, subgroup): unramified, split, inert, tamely and wildly ramified,
# with and without a subgroup
GRID = [
    (1, 5, (1,)), (4, 3, (1,)), (4, 5, (1,)), (5, 5, (1,)), (5, 5, (1, 4)),
    (7, 7, (1, 2, 4)), (9, 3, (1,)), (12, 3, (1,)), (15, 5, (1,)),
    (20, 5, (1,)), (21, 7, (1,)), (25, 5, (1,)), (28, 7, (1, 13)),
    (63, 3, (1,)),
]
PRECISIONS = (2, 3, 8, 32)


def _descriptor(n, ell, sub):
    desc = make_descriptor(n, ell, subgroup=sub)
    return desc, DigitStripEngine(n, ell, desc.factor)


def _vectors(rng, desc, count):
    """Nonzero integer vectors of Z[zeta_n], with valuations spread from 0
    past e * 8: small vectors times powers of ell and of lambda = 1 - zeta_{ell^a}
    (of ell itself when ell does not divide n)."""
    ring = desc.ring
    scalar = lambda c: tuple(c * x for x in ring.one)
    lam = ring.sub(ring.one, ring.zeta_power(desc.m))
    if desc.a == 0:
        lam = scalar(desc.ell)
    out = []
    while len(out) < count:
        vec = tuple(rng.randint(-9, 9) for _ in range(desc.degree_full))
        if not any(vec):
            continue
        for _ in range(rng.choice([0, 0, 1, 2, 3, 6, 10])):
            vec = ring.mul(vec, lam)
        vec = ring.mul(vec, scalar(desc.ell ** rng.choice([0, 0, 1, 2, 5])))
        out.append(vec)
    return out


@pytest.mark.parametrize("n, ell, sub", GRID)
def test_valuation_agrees_with_the_digit_strip(n, ell, sub):
    desc, ref = _descriptor(n, ell, sub)
    eng = desc.engine
    rng = random.Random(f"oracle-{n}-{ell}-{sub}")
    compared = 0
    for vec in _vectors(rng, desc, 100):
        for prec in PRECISIONS:
            new = eng.analyze(vec, prec)
            old = ref.analyze(vec, prec)
            if old is not None:
                assert new == old[0], (vec, prec)
                compared += 1
            elif new is not None:
                assert new == ref.analyze(vec, 256)[0], (vec, prec)
                compared += 1
        assert eng.valuation(vec) == ref.analyze(vec, 256)[0]
    assert compared >= 100


@pytest.mark.parametrize("n, ell, sub", GRID)
def test_residue_agrees_with_the_digit_strip(n, ell, sub):
    desc, ref = _descriptor(n, ell, sub)
    rng = random.Random(f"residue-{n}-{ell}-{sub}")
    for _ in range(25):
        x = desc.zero
        for _ in range(rng.randrange(1, 4)):
            x = x + desc.rational(rng.randint(-9, 9)) * desc.orbit_sum(rng.randrange(n))
        # integral with an ell-power denominator: pi^(e k) / ell^k is a unit
        k = rng.choice([0, 0, 1, 2])
        x = x * desc.pi_power(desc.e * k + rng.choice([0, 1])) / desc.rational(
            ell ** k * rng.choice([1, 2, 4]))
        if x.is_zero:
            continue
        t, d = _split_ell(x.den, ell)
        ints = power_numerator(x)
        rc = ref.residue_after_ell_divisions(ints, t, max(PRECISION_START, t + 2))
        expect = desc._residue_from_big(rc) * pow(d % ell, -1, ell)
        assert x.reduce() == expect


@pytest.mark.parametrize("n, ell, sub", [(4, 5, (1,)), (5, 5, (1,)), (7, 7, (1, 2, 4)),
                                         (9, 3, (1,)), (28, 7, (1, 13))])
def test_valuations_above_the_start_precision_certify(n, ell, sub):
    desc = make_descriptor(n, ell, subgroup=sub)
    unit = desc.one + desc.orbit_sum(1) * desc.rational(ell)
    assert unit.valuation() == 0
    big = unit * desc.rational(ell ** 40)
    assert big.valuation() == 40 * desc.e
    deep = desc.pi ** (40 * desc.e + 1)
    assert deep.valuation() == 40 * desc.e + 1
    assert (deep * unit).valuation() == 40 * desc.e + 1
    # both need more than PRECISION_START lambda-adic digits
    ints = power_numerator(deep)
    assert desc.engine.analyze(ints, PRECISION_START) is None
    assert desc.engine.precision_ceiling(ints) > PRECISION_START


def test_precision_ceiling_bounds_every_nonzero_element():
    desc = make_descriptor(5, 5)
    eng = desc.engine
    rng = random.Random("ceiling")
    for vec in _vectors(rng, desc, 60):
        assert eng.analyze(vec, eng.precision_ceiling(vec)) is not None


def test_uncertified_at_the_ceiling_is_an_inconsistency(monkeypatch):
    desc = make_descriptor(4, 5)
    monkeypatch.setattr(LambdaEngine, "analyze", lambda self, vec, prec: None)
    with pytest.raises(InternalInconsistency):
        desc.engine.valuation((1, 1))


def test_residue_needs_divisible_digits():
    desc = make_descriptor(5, 5)
    with pytest.raises(InternalInconsistency):
        desc.engine.residue((1, 0, 0, 0), 1)


# one-digit completions (e_full = f_full = 1): Q at 5, Q(i) at 5 on the power
# basis of zeta_4, and Q(sqrt 5) at 11 on the basis 1, theta of the subfield
ONE_DIGIT = [(1, 5, (1,)), (4, 5, (1,)), (5, 11, (1, 4))]
# the reference's precision: far above every valuation the tests draw
REFERENCE_PRECISION = 120


def _ell_adic_root(eng, prec: int) -> int:
    """omega mod ell^prec: the root of x^n = 1 in Z_ell that lifts the root
    of the engine's linear factor, found one ell-adic digit at a time by
    trying each digit."""
    ell, n = eng.ell, max(eng.n, 1)
    root = -eng.factor[0] % ell
    for k in range(1, prec):
        mod = ell ** (k + 1)
        root = next(r for r in (root + c * ell ** k for c in range(ell))
                    if (pow(r, n, mod) - 1) % mod == 0)
    return root


def _reference_digit(eng, vec, prec: int = REFERENCE_PRECISION) -> int:
    """The image of vec in Z_ell mod ell^prec under zeta_n -> omega: each
    basis element, a polynomial in zeta_n, evaluated at omega."""
    mod, omega = eng.ell ** prec, _ell_adic_root(eng, prec)
    basis = eng.basis or [tuple(int(i == j) for i in range(len(vec))) for j in range(len(vec))]
    return sum(c * sum(b * pow(omega, k, mod) for k, b in enumerate(bj))
               for c, bj in zip(vec, basis)) % mod


def _ell_valuation(z: int, ell: int) -> int:
    """v_ell of a nonzero integer, by repeated division."""
    v = 0
    while z % ell == 0:
        z //= ell
        v += 1
    return v


@pytest.mark.parametrize("n, ell, sub", ONE_DIGIT)
def test_one_digit_completion_reads_the_ell_adic_digit(n, ell, sub):
    """valuation, divisible and residue of the field's engine against the
    image in Z_ell, on vectors with zero coordinates and ell-power factors."""
    desc = make_descriptor(n, ell, subgroup=sub)
    eng = desc.kengine
    assert eng.one_digit and (eng.basis is not None) == (sub != (1,))
    rng = random.Random(f"one-digit-{n}-{ell}")
    checked = set()
    for _ in range(60):
        vec = [rng.choice([0, rng.randint(-99, 99)]) for _ in range(desc.degree)]
        scale = ell ** rng.choice([0, 0, 1, 2, 7])
        vec = tuple(scale * c for c in vec)
        if not any(vec):
            continue
        z = _reference_digit(eng, vec)
        assert z
        v = _ell_valuation(z, ell)
        checked.add(min(v, 2))
        assert eng.valuation(vec) == v
        for t in range(v + 3):
            # divisible takes t >= 1, as FieldDescriptor.integral calls it
            assert t == 0 or eng.divisible(vec, t) == (t <= v), (vec, t)
            if t <= v:
                assert eng.residue(vec, t) == ((z // ell ** t) % ell,), (vec, t)
            else:
                with pytest.raises(InternalInconsistency):
                    eng.residue(vec, t)
    assert checked == {0, 1, 2}


@pytest.mark.parametrize("n, ell, sub", ONE_DIGIT)
def test_one_digit_completion_past_the_start_precision(n, ell, sub):
    """x = ell^40 u for a unit u needs more than PRECISION_START digits: its
    valuation 40 certifies through escalation, ell^40 divides it, and the
    residue of x / ell^40 is that of u; x / ell^41 refuses to reduce,
    naming its valuation."""
    desc = make_descriptor(n, ell, subgroup=sub)
    eng = desc.kengine
    rng = random.Random(f"one-digit-deep-{n}-{ell}")
    u = tuple(rng.randint(-99, 99) for _ in range(desc.degree))
    while _reference_digit(eng, u, 1) == 0:
        u = tuple(rng.randint(-99, 99) for _ in range(desc.degree))
    x = tuple(ell ** 40 * c for c in u)
    assert eng.analyze(x, PRECISION_START) is None
    assert eng.valuation(x) == 40
    assert eng.divisible(x, 40) and not eng.divisible(x, 41)
    assert eng.residue(x, 40) == (_reference_digit(eng, u, 1),)
    assert desc._residue(x, ell ** 40) == desc.from_integer(u, 1).reduce()
    with pytest.raises(NegativeValuation, match="valuation -1;"):
        desc._residue(x, ell ** 41)
