"""Finite-precision model of the completion of Z[zeta_n] at a prime above ell.

The completion is W[lambda]: W = Z_ell[t]/(g(t)) is unramified, with g the
chosen monic irreducible factor of Phi_m mod ell (m the prime-to-ell part
of n), and zeta_m maps to the root omega of x^m = 1 with omega = t mod ell.
lambda = 1 - u, where u images zeta_{ell^a} and Psi(u) is the cyclotomic
polynomial of the ell-power part, so lambda is a root of the Eisenstein
polynomial Psi(1 - lambda) of degree e_full.  Every element is
sum_k d_k lambda^k over k < e_full with digits d_k in W, and its valuation is
min_k (e_full * v_ell(d_k) + k), the terms being distinct mod e_full
(Serre, Local Fields, I section 6).

The engine keeps the digits modulo ell^P, as t-polynomials of degree below
f_full.  The images of the powers of zeta_n are held in the lambda-basis
already: u^i = (1 - lambda)^i expands by binomial coefficients, and i < e_full
means no reduction by Psi is needed.  A digit that is nonzero mod ell^P has
its exact ell-valuation, below P, so the smallest term is certified as soon
as one digit survives; `analyze` returns None when every digit vanishes, and
`valuation` retries at doubled precision up to a ceiling at which a nonzero
element must certify.  Zero elements never certify, so call sites must test
exact zero first.  Divisibility by ell^t needs no certification: it holds iff
every digit vanishes mod ell^t, which precision t decides exactly.
"""

from __future__ import annotations

import math

from .cyclotomic import _split_ell, cyclotomic_poly, euler_phi
from .errors import InternalInconsistency
from .finitefield import fp_mod, fp_mul, fp_powmod, fp_sub, fp_trim

# lists of e_full lambda-digits, each a t-polynomial of length f_full
_Elt = list[list[int]]

# the first working precision; most elements certify at it
PRECISION_START = 32


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


class LambdaEngine:
    """Lambda-digits and valuations for one chosen prime above ell."""

    def __init__(self, n: int, ell: int, factor: tuple[int, ...]):
        self.n = n
        self.ell = ell
        a, m = _split_ell(n, ell)
        self.a = a
        self.m = m
        self.e_full = euler_phi(ell**a)
        self.f_full = len(factor) - 1
        self.factor = fp_trim(tuple(c % ell for c in factor))
        if not self.factor or self.factor[-1] != 1:
            raise InternalInconsistency("residue factor must be monic")
        if fp_mod(tuple(c % ell for c in cyclotomic_poly(m)), self.factor, ell):
            raise InternalInconsistency(
                "chosen factor does not divide the cyclotomic polynomial mod ell")
        self._psi = [int(c) for c in cyclotomic_poly(ell**a)] if a >= 1 else None
        if a >= 1:
            # alpha*ell^a + beta*m = 1 splits zeta_n into the two cyclotomic parts
            la = ell**a
            self.alpha = pow(la, -1, m)
            self.beta = pow(m, -1, la)
        # u^i = sum_k C(i, k) (-lambda)^k, row i, column k
        self._to_lambda = [[(-1) ** k * math.comb(i, k) for k in range(self.e_full)]
                           for i in range(self.e_full)]
        self._image_cache: dict[int, list[_Elt]] = {}

    # ------------------------------------------------------------------
    # images of powers of zeta_n, in the lambda-basis

    def _omega_powers(self, prec: int) -> list[list[int]]:
        """omega^k modulo (g, ell^prec), k < m, as t-polynomials of length
        f_full.  omega is reached from t by Newton's iteration on x^m = 1,
        omega <- omega (1 - (omega^m - 1) / m), each step doubling the exact
        ell-adic digits and run at that precision: ell does not divide m, so
        x^m - 1 is separable mod ell (Hensel's lemma; Serre, Local Fields,
        II section 4)."""
        ell, m, g = self.ell, self.m, self.factor
        omega, exact = fp_mod((0, 1), g, ell), 1
        while exact < prec:
            modulus = ell**min(2 * exact, prec)
            err = fp_sub(fp_powmod(omega, m, g, modulus), (1,), modulus)
            if any(c % ell**exact for c in err):
                raise InternalInconsistency("Newton step lost the root of x^m - 1")
            step = fp_mod(fp_mul(omega, err, modulus), g, modulus)
            omega = fp_sub(omega, fp_mul(step, (pow(m, -1, modulus),), modulus), modulus)
            exact = min(2 * exact, prec)
        modulus = ell**prec
        pows = [(1,)]
        for _ in range(m):
            pows.append(fp_mod(fp_mul(pows[-1], omega, modulus), g, modulus))
        pows = [list(p) + [0] * (self.f_full - len(p)) for p in pows]
        # omega^m = 1 and Phi_m(omega) = 0 at full precision (phi(m) <= m)
        if pows[m] != pows[0] or any(
                sum(c * p[i] for c, p in zip(cyclotomic_poly(m), pows)) % modulus
                for i in range(self.f_full)):
            raise InternalInconsistency("the Newton root is not a root of Phi_m")
        return pows[:m]

    def images(self, prec: int) -> list[_Elt]:
        """Lambda-digits of zeta_n^j, j < phi(n), modulo ell^prec."""
        if prec in self._image_cache:
            return self._image_cache[prec]
        modulus = self.ell**prec
        t_pows = self._omega_powers(prec)
        phi_n = euler_phi(self.n)
        if self.a == 0:
            imgs = [[t_pows[j % self.m]] for j in range(phi_n)]
        else:
            la = self.ell**self.a
            lam_pows = [[sum(c * row[k] for c, row in zip(ue, self._to_lambda)) % modulus
                         for k in range(self.e_full)]
                        for ue in _var_powers(la, self._psi, modulus)]
            imgs = [[[(d * tv) % modulus for tv in t_pows[(self.alpha * j) % self.m]]
                     for d in lam_pows[(self.beta * j) % la]]
                    for j in range(phi_n)]
        self._image_cache[prec] = imgs
        return imgs

    def image_of(self, vec, prec: int) -> _Elt:
        """Lambda-digits d_0 ... d_{e-1}, mod ell^prec, of an integer vector on
        the power basis."""
        imgs = self.images(prec)
        modulus = self.ell**prec
        acc = [[0] * self.f_full for _ in range(self.e_full)]
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
    # valuations and residues

    def analyze(self, vec, prec: int):
        """Certified valuation, in powers of lambda, of a nonzero integer
        vector, or None when every lambda-digit vanishes mod ell^prec."""
        ell, e = self.ell, self.e_full
        best = None
        for k, digit in enumerate(self.image_of(vec, prec)):
            g = math.gcd(*digit)
            if g:
                v = 0
                while g % ell == 0:
                    g //= ell
                    v += 1
                if best is None or e * v + k < best:
                    best = e * v + k
        return best

    def precision_ceiling(self, vec) -> int:
        """Smallest precision at which a nonzero integer vector must certify.

        If every digit vanishes mod ell^p, the element lies in lambda^(e p)
        and the chosen prime has norm ell^f, so ell^(f e p) divides the
        element's norm, which is at most ||vec||_1^phi(n) in absolute value.
        """
        bound = sum(abs(c) for c in vec) ** euler_phi(self.n)
        step = self.ell ** (self.f_full * self.e_full)
        prec, power = 1, step
        while power <= bound:
            prec += 1
            power *= step
        return prec

    def valuation(self, vec) -> int:
        """Valuation, in powers of lambda, of a nonzero integer vector.

        Starts at PRECISION_START and doubles up to `precision_ceiling`."""
        prec = PRECISION_START
        ceiling = None
        while True:
            v = self.analyze(vec, prec)
            if v is not None:
                return v
            if ceiling is None:
                ceiling = self.precision_ceiling(vec)
            if prec >= ceiling:
                raise InternalInconsistency(
                    "valuation did not certify at the precision ceiling")
            prec = min(2 * prec, ceiling)

    def divisible(self, vec, t: int) -> bool:
        """Whether ell^t divides vec at the chosen prime, that is vec / ell^t
        is integral: every lambda-digit vanishes mod ell^t.  The digits mod
        ell^t are exact at precision t, so nothing escalates."""
        return not any(any(digit) for digit in self.image_of(vec, t))

    def residue(self, vec, t: int) -> tuple[int, ...]:
        """Residue of vec / ell^t: (d_0 / ell^t) mod ell.  Every digit must be
        divisible by ell^t, that is the quotient must be integral."""
        den = self.ell**t
        digits = self.image_of(vec, max(PRECISION_START, t + 1))
        if any(c % den for digit in digits for c in digit):
            raise InternalInconsistency(
                "ell-division requested on a vector that is not divisible")
        return tuple((c // den) % self.ell for c in digits[0])
