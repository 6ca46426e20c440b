"""Finite-precision model of the completion of Z[zeta_n] at a prime above ell.

Elements are carried in S_P = (Z/ell^P)[t]/(G(t)) [u]/(Psi(u)) where G is a
Hensel lift of one irreducible factor of the prime-to-ell cyclotomic part and
Psi is the cyclotomic polynomial of the ell-power part.  The t-variable images
zeta_m and carries the unramified (residue) direction; the u-variable images
zeta_{ell^a} and carries all the ramification.  Valuations are certified by
stripping uniformizer digits: a nonzero residue at (u -> 1, mod ell) pins the
valuation exactly, a division by ell consumes e_full digits, and the partial
norm Q(u) = prod_{c != 1} (1 - u^c) converts a single (1 - u)-digit into an
ell-division because (1 - u) * Q(u) = ell holds in Z[u]/Psi(u).

All answers are conditional on the working precision P; `analyze` returns
None when P digits were exhausted and the caller is expected to retry with a
larger P (zero elements never certify, so call sites must test exact zero
first).
"""

from __future__ import annotations

from .cyclotomic import cyclotomic_poly, euler_phi
from .errors import InternalInconsistency
from .finitefield import fp_divmod, fp_ext_gcd, fp_mod, fp_mul, fp_sub, fp_trim

# vectors of length f_full holding t-polynomial coefficients
_TPoly = list[int]
# lists of e_full t-polynomials, indexed by power of u
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


class LambdaEngine:
    """Arithmetic and digit-stripping for one chosen prime above ell."""

    def __init__(self, n: int, ell: int, factor: tuple[int, ...]):
        self.n = n
        self.ell = ell
        a = 0
        m = n
        while m % ell == 0:
            m //= ell
            a += 1
        self.a = a
        self.m = m
        self.e_full = euler_phi(ell**a)
        self.f_full = len(factor) - 1
        self.factor = fp_trim(tuple(c % ell for c in factor))
        if not self.factor or self.factor[-1] != 1:
            raise InternalInconsistency("residue factor must be monic")
        self._phi_m = [int(c) for c in cyclotomic_poly(m)]
        self._psi = [int(c) for c in cyclotomic_poly(ell**a)] if a >= 1 else None
        if a >= 1:
            # alpha*ell^a + beta*m = 1 splits zeta_n into the two cyclotomic parts
            la = ell**a
            self.alpha = pow(la, -1, m)
            self.beta = pow(m, -1, la)
        else:
            self.alpha = 1 % max(m, 1)
            self.beta = 0
        self._lift_cache: dict[int, tuple[int, ...]] = {}
        self._img_cache: dict[int, list[_Elt]] = {}
        self._q_cache: dict[int, _Elt] = {}

    # ------------------------------------------------------------------
    # Hensel lifting of the chosen factor

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

    # ------------------------------------------------------------------
    # S_P arithmetic (plain lists, coefficients already reduced mod ell^prec)

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

    def add(self, z1: _Elt, z2: _Elt, prec: int) -> _Elt:
        modulus = self.ell**prec
        return [
            [(x + y) % modulus for x, y in zip(r1, r2)]
            for r1, r2 in zip(z1, z2)
        ]

    # ------------------------------------------------------------------
    # images of powers of zeta_n

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

    # ------------------------------------------------------------------
    # digit stripping

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
