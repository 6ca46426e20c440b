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

The engine keeps the digits modulo ell^P, flat: digit k, a t-polynomial of
degree below f_full, is the slice [k f_full, (k + 1) f_full) of one list of
e_full f_full integers, and valuations, residues and divisibility are all
read off that list.  With alpha ell^a + beta m = 1, one formula gives the
image of every power of zeta_n, for every a >= 0:

    zeta_n^j -> omega^(alpha j) * u^(beta j).

u^i, i < ell^a, is read once per engine off the power table of
Z[u]/(Psi) (cyclotomic.CycloRing(ell^a)), on 1, u, ..., u^(e_full - 1),
and held in the lambda-basis: u^k = (1 - lambda)^k expands by binomial
coefficients, and k < e_full means no reduction by Psi is needed.  At a = 0,
ell^a = 1, e_full = 1 and the u-factor is the digit 1, so zeta_n^j maps
to omega^j.

An engine reads integer vectors on one basis: the power basis of zeta_n,
or, through `on_basis`, the basis 1, theta, ..., theta^(d-1) of a subfield
K, whose digit table at each precision holds the flat digits of the powers
of theta, read off the power-basis engine (see exactfield).  A digit that
is nonzero mod ell^P has its exact ell-valuation, below P, so the smallest
term is certified as soon as one digit survives; `analyze` returns None
when every digit vanishes, and `valuation` retries at doubled precision up
to a ceiling at which a nonzero element must certify.  Zero elements never
certify, so call sites must test exact zero first.  Divisibility by ell^t
needs no certification: it holds iff every digit vanishes mod ell^t, which
precision t decides exactly.  The ell^P of each precision is computed once,
with its table.

A one-digit completion, e_full = f_full = 1 (Q, and Q(zeta_n) or a subfield
of it when ell = 1 mod n), is Z_ell itself: its table holds one integer per
basis element, the digit of an element is the one integer sum_j c_j omega_j
mod ell^P, its valuation is v_ell of that integer, and the residue of
vec / ell^t is (digit // ell^t) mod ell.  Every other completion runs the
generic loops over the flat digits.
"""

from __future__ import annotations

import copy
import math
import operator

from .cyclotomic import CycloRing, _split_ell, cyclotomic_poly, euler_phi
from .errors import InternalInconsistency
from .finitefield import fp_mod, fp_mul, fp_powmod, fp_sub, fp_trim

# the first working precision; most elements certify at it
PRECISION_START = 32


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
        # alpha*ell^a + beta*m = 1 splits zeta_n into the two cyclotomic parts
        la = ell**a
        self.alpha = pow(la, -1, m)
        self.beta = pow(m, -1, la)
        # the lambda-digits of u^i, i < ell^a: u^i on 1, u, ..., u^(e-1), and
        # u^k = sum_j C(k, j) (-lambda)^j
        e = self.e_full
        to_lambda = [[(-1) ** j * math.comb(k, j) for j in range(e)] for k in range(e)]
        self._u_digits = [[sum(c * row[j] for c, row in zip(ui, to_lambda)) for j in range(e)]
                          for ui in CycloRing(la).powers[:la]]
        # a one-digit completion (Q_ell itself): each element is one digit,
        # one integer mod ell^P
        self.one_digit = e == self.f_full == 1
        # None: vectors are on the power basis of zeta_n; see on_basis
        self.basis = None
        # the l1 norm of each basis element on the power basis
        self._weights = [1] * euler_phi(n)
        self._tables: dict[int, tuple] = {}

    def on_basis(self, basis) -> "LambdaEngine":
        """This engine reading integer vectors on another basis: basis[j] is
        the power-basis vector of the j-th basis element.  Its digit table at
        each precision holds the digits of the basis elements, read off this
        engine's and cached the same way."""
        other = copy.copy(self)
        other.basis = [tuple(b) for b in basis]
        other._weights = [sum(map(abs, b)) for b in other.basis]
        other._power_engine = self
        other._tables = {}
        return other

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

    def _table(self, prec: int):
        """(ell^prec, the lambda-digits of the basis elements mod ell^prec),
        built once per precision: of zeta_n^j, j < phi(n), on the power
        basis.  Each element's digits are flat, digit k at [k f_full,
        (k + 1) f_full), and on a one-digit completion they are its one
        digit, an int."""
        table = self._tables.get(prec)
        if table is not None:
            return table
        modulus = self.ell**prec
        if self.basis is not None:
            flat = self._power_engine._flat_image
            imgs = [flat(b, prec) for b in self.basis]
        else:
            t_pows, u_digits, la = self._omega_powers(prec), self._u_digits, self.ell**self.a
            imgs = [[(d * tv) % modulus for d in u_digits[(self.beta * j) % la]
                     for tv in t_pows[(self.alpha * j) % self.m]]
                    for j in range(euler_phi(self.n))]
        if self.one_digit:
            imgs = [z for z, in imgs]
        table = self._tables[prec] = modulus, imgs
        return table

    def _digit(self, vec, prec: int) -> int:
        """The one lambda-digit, mod ell^prec, of an integer vector on the
        engine's basis, on a one-digit completion: sum_j c_j omega_j."""
        modulus, imgs = self._table(prec)
        return sum(map(operator.mul, vec, imgs)) % modulus

    def _flat_image(self, vec, prec: int) -> list[int]:
        """Lambda-digits d_0 ... d_{e-1}, mod ell^prec, of an integer vector
        on the engine's basis, flat as in _table."""
        if self.one_digit:
            return [self._digit(vec, prec)]
        modulus, imgs = self._table(prec)
        acc = None
        for c, img in zip(vec, imgs):
            c %= modulus
            if c:
                acc = ([c * z for z in img] if acc is None
                       else [a + c * z for a, z in zip(acc, img)])
        if acc is None:
            return [0] * (self.e_full * self.f_full)
        return [a % modulus for a in acc]

    # ------------------------------------------------------------------
    # valuations and residues

    def analyze(self, vec, prec: int):
        """Certified valuation, in powers of lambda, of a nonzero integer
        vector, or None when every lambda-digit vanishes mod ell^prec.  The
        first digit that is a unit decides: every digit before it is
        divisible by ell, so its term e v_ell(d_k) + k is at least e.  On a
        one-digit completion it is v_ell of the digit."""
        ell, e, f = self.ell, self.e_full, self.f_full
        if self.one_digit:
            g = self._digit(vec, prec)
            return _split_ell(g, ell)[0] if g else None
        flat = self._flat_image(vec, prec)
        best = None
        for k in range(e):
            g = math.gcd(*flat[k * f:(k + 1) * f])
            if g:
                v = _split_ell(g, ell)[0]
                if v == 0:
                    return k
                if best is None or e * v + k < best:
                    best = e * v + k
        return best

    def precision_ceiling(self, vec) -> int:
        """Smallest precision at which a nonzero integer vector must certify.

        If every digit vanishes mod ell^p, the element lies in lambda^(e p)
        and the chosen prime has norm ell^f, so ell^(f e p) divides the
        element's norm.  Every conjugate of the element sum_j c_j b_j is at
        most sum_j |c_j| ||b_j||_1 in absolute value, b_j the basis elements
        on the power basis, so the norm is at most that to the phi(n); on
        the power basis itself, ||vec||_1^phi(n).
        """
        bound = sum(abs(c) * w for c, w in zip(vec, self._weights)) ** euler_phi(self.n)
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
        if self.one_digit:
            return not self._digit(vec, t)
        return not any(self._flat_image(vec, t))

    def residue(self, vec, t: int) -> tuple[int, ...]:
        """Residue of vec / ell^t: (d_0 / ell^t) mod ell.  Every digit must be
        divisible by ell^t, that is the quotient must be integral: the one
        set of digits, at precision max(PRECISION_START, t + 1), decides that
        as `divisible` does and gives the residue."""
        den = self.ell**t
        digits = self._flat_image(vec, max(PRECISION_START, t + 1))
        if any(c % den for c in digits):
            raise InternalInconsistency(
                "ell-division requested on a vector that is not divisible")
        return tuple((c // den) % self.ell for c in digits[:self.f_full])

