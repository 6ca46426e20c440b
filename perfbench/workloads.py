"""Seeded workload generation, the timed job bodies and their correctness checks.

A workload is a list of jobs built from (workload name, seed).  Every random
choice comes from a ``random.Random`` seeded by the workload and the job name,
so a subset of the list (the smoke list) gives the same jobs as the full list.
Each job draws from two of them: a shape stream, independent of the seed, fixes
positions, magnitudes, denominators and uniformizer powers; a sign stream,
seeded also by the seed, picks the signs of the basis change's coefficients
and of the start matrices' rows.  So every seed gives other inputs that ask
for about the same work (a balance start on a block group can take a chain
step more or less), and the seed barely moves the timings.

Each job has two steps: ``run`` (the timed call into the library) and
``check`` (untimed; returns a list of problems, empty when the output is
correct).  A job list is run once per process, and every balance job has a
field descriptor of its own, so no job finds a cache warmed by another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

from isodescent import cli
from isodescent import linalg as la
from isodescent.counterexamples import build_prop6_bundle
from isodescent.descent import balance
from isodescent.exactfield import FieldElement, make_descriptor
from isodescent.forms import GramForm, normalize_scale, reduce_bar, reduce_tilde
from isodescent.lattice import (
    Lattice,
    quotient_length,
    scale_lattice,
    stabilize,
)

# (n, ell, subgroup) of the base fields used by the block groups
FIELDS = {
    "Q5": (1, 5, (1,)),
    "Q7": (1, 7, (1,)),
    "Qi5": (4, 5, (1,)),
}

# sample bundle name -> (expected exit code, group order, dimension)
SAMPLES = {
    "q8_split_ell5": (0, 8, 2),
    "z4_hermitian_inert_ell7": (0, 4, 1),
    "remark4_ell7": (0, 16, 4),
    "prop5_ell5": (2, 5, 2),
}

# descend_groups block groups B_a x B_b: (field, a, b, k); the second
# block's form is scaled by ell^k.  Fixed across seeds so that the seed moves
# only the basis change and the job order, not the amount of work.  Orders 64
# and 96 only: an order-384 group (B_3 x B_2, about 4 s) takes half a pass and
# leaves too few passes in a run for steady per-job times.
DESCEND_BLOCKS = (
    ("Q5", 2, 2, 3), ("Q5", 3, 1, 4),
    ("Q7", 2, 2, 6), ("Q7", 1, 3, 5),
    ("Qi5", 2, 2, 4),
)
PROP6_ELLS = (5, 7)

# balance_starts: random starts per sample representation, and block groups
# of order <= 64 with the starts drawn on each.
BALANCE_SAMPLES = (("q8_split_ell5", 8), ("z4_hermitian_inert_ell7", 8),
                   ("remark4_ell7", 8))
BALANCE_BLOCKS = (
    ("Q5", 1, 1, 6), ("Q5", 1, 2, 5), ("Q5", 2, 1, 4), ("Q5", 2, 2, 3),
    ("Q7", 1, 1, 3), ("Q7", 1, 2, 6), ("Q7", 2, 1, 5), ("Q7", 2, 2, 4),
    ("Qi5", 1, 1, 4), ("Qi5", 1, 2, 3), ("Qi5", 2, 1, 6), ("Qi5", 2, 2, 5),
)

# verify_sweep: the ell ladder of each packaged certificate
VERIFY_LADDER = (
    ("lemma", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
    ("prop5", (3, 5, 7, 11, 13)),
    ("prop6", (3, 5, 7, 11, 13)),
)

# the smallest job list of each workload, for the smoke test
SMOKE = {
    "descend_groups": ("sample-q8_split_ell5", "sample-prop5_ell5",
                       "block-Q5-B2xB2-k3"),
    "balance_starts": ("start-q8_split_ell5-0", "start-z4_hermitian_inert_ell7-0",
                       "start-Q5-B1xB1-k6"),
    "verify_sweep": ("verify-lemma-3", "verify-prop5-3", "verify-prop6-3"),
}


def hyperoctahedral_order(a: int) -> int:
    return 2 ** a * math.factorial(a)


def result_sha256(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# input construction


def _signed_permutation_gens(desc, a: int):
    """Generators of B_a: a transposition, an a-cycle and one sign change."""
    z, o = desc.zero, desc.one
    gens = []
    if a >= 2:
        t = la.identity(desc, a)
        t[0][0], t[1][1], t[0][1], t[1][0] = z, z, o, o
        gens.append(t)
    if a >= 3:
        c = la.zeros(desc, a, a)
        for i in range(a):
            c[(i + 1) % a][i] = o
        gens.append(c)
    s = la.identity(desc, a)
    s[0][0] = -o
    gens.append(s)
    return gens


def block_group(desc, a: int, b: int, k: int, rngs):
    """B_a x B_b with the form diag(I_a, ell^k I_b), in a seeded basis.

    The basis change is P = D U: U is a product of elementary matrices with
    entries prime to ell (so U O^n = O^n) and D scales the first coordinate
    by 1/ell.  The standard lattice in the new basis is then D O^n, whose
    stabilization is ell^-1 O^a + O^b, so the balance chain takes exactly
    (k + 2) // 2 steps and the dual quotient has dimension b when k is odd
    and 0 when k is even.
    """
    shape, sign = rngs
    n = a + b
    gens = [la.block_diag(desc, [g, la.identity(desc, b)])
            for g in _signed_permutation_gens(desc, a)]
    gens += [la.block_diag(desc, [la.identity(desc, a), g])
             for g in _signed_permutation_gens(desc, b)]
    gram = la.identity(desc, n)
    for i in range(a, n):
        gram[i][i] = desc.rational(desc.ell ** k)
    u = la.identity(desc, n)
    # half as many operations over Q(i), whose coefficients are twice as long
    for _ in range(2 * n if desc.n == 1 else n):
        i, j = shape.sample(range(n), 2)
        c = desc.rational(Fraction(shape.choice((1, 2, 3)) * sign.choice((-1, 1)),
                                   shape.choice((1, 2, 3))))
        if desc.n == 4 and shape.random() < 0.5:
            c = c * desc.zeta_power(1)
        for r in range(n):
            u[r][j] = u[r][j] + c * u[r][i]
    d = la.identity(desc, n)
    d[0][0] = desc.rational(Fraction(1, desc.ell))
    p = la.mat_mul(d, u)
    p_inv = la.mat_inv(p, desc)
    gens = [la.mat_mul(p_inv, la.mat_mul(g, p)) for g in gens]
    gram = la.mat_mul(la.transpose(p), la.mat_mul(gram, p))
    return gens, GramForm(desc, gram, "symmetric")


def write_bundle(path: str, desc, form: GramForm, gens):
    """Write a schema-1 bundle file for the given field, form and generators."""
    ser = lambda m: [[x.serialize() for x in row] for row in m]
    bundle = {
        "schema": 1,
        "field": {"n": desc.n, "ell": desc.ell, "subgroup": list(desc.subgroup),
                  "involution": desc.involution,
                  "prime_choice": desc.prime_choice},
        "form": {"kind": form.kind, "twist": form.twist, "gram": ser(form.gram)},
        "generators": [ser(g) for g in gens],
    }
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)


def random_field_element(rng: random.Random, desc):
    """Small random element of K in the style of the balance-chain tests: a
    rational combination of orbit sums times a uniformizer power in [-2, 2]."""
    x = desc.zero
    for _ in range(rng.randrange(1, 4)):
        j = rng.randrange(desc.n)
        den = rng.choice((1, 2, 3, 7, 9))
        while den % desc.ell == 0:
            den += 1
        x = x + desc.rational(Fraction(rng.randint(-9, 9), den)) * desc.orbit_sum(j)
    return x * desc.pi_power(rng.randint(-2, 2))


def random_start(rngs, desc, n: int):
    """Random invertible start matrix with its rows' signs drawn from the seed.

    The sample representations are generated by signed permutations, so the
    sign change maps one start's balance chain onto the other's, with
    coefficients of the same size: the start differs, the work does not.
    """
    shape, sign = rngs
    while True:
        m = [[random_field_element(shape, desc) for _ in range(n)] for _ in range(n)]
        if la.det(m, desc) != desc.zero:
            return [row if sign.random() < 0.5 else [-x for x in row] for row in m]


# ---------------------------------------------------------------------------
# jobs


class CliJob:
    """One ``isodescent`` command run in-process through ``cli.main``.

    ``fixed_input`` marks a job whose input does not depend on the seed, so
    its report's result block has one recorded sha256 for every seed.
    """

    def __init__(self, name, argv, out_path, expected_exit, validate, fixed_input):
        self.name = name
        self.argv = argv
        self.out_path = out_path
        self.expected_exit = expected_exit
        self.validate = validate
        self.fixed_input = fixed_input
        self.expected_sha256 = None
        self.result_sha256 = None

    def run(self):
        # the one-line summary goes to stdout when the report goes to --out
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, exit_code):
        if exit_code != self.expected_exit:
            return [f"exit code {exit_code}, expected {self.expected_exit}"]
        with open(self.out_path) as fh:
            result = json.load(fh)["result"]
        problems = self.validate(result)
        self.result_sha256 = result_sha256(result)
        if self.expected_sha256 is not None and self.result_sha256 != self.expected_sha256:
            problems.append("result block sha256 differs from the recorded one")
        return problems


class BalanceJob:
    """stabilize -> balance -> reduce_bar/reduce_tilde from one random start."""

    expected_sha256 = None
    result_sha256 = None

    def __init__(self, name, desc, gens, form, start):
        # a descriptor of the job's own, so its caches start empty
        own = make_descriptor(desc.n, desc.ell, subgroup=desc.subgroup,
                              prime_choice=desc.prime_choice, involution=desc.involution)
        move = lambda m: [[FieldElement(own, x.coeffs) for x in row] for row in m]
        self.name = name
        self.desc = own
        self.gens = [move(g) for g in gens]
        self.form = GramForm(own, move(form.gram), form.kind, form.twist)
        self.start = move(start)

    def run(self):
        start = stabilize(Lattice(self.desc, self.start), self.gens)
        bal = balance(start, self.form, generators=self.gens)
        _, kernel_bar = reduce_bar(bal.lattice, bal.form, dual=bal.dual)
        _, kernel_tilde = reduce_tilde(bal.lattice, bal.form, dual=bal.dual)
        return start, bal, len(kernel_bar), len(kernel_tilde)

    def check(self, out):
        start, bal, nbar, ntilde = out
        n = len(self.start)
        t, tstar = bal.lattice, bal.dual
        _, f_norm = normalize_scale(self.form, start)
        bound = quotient_length(start, f_norm.dual(start))
        problems = []
        if bal.steps > bound:
            problems.append(f"{bal.steps} chain steps exceed the index bound {bound}")
        if not tstar.contains_lattice(t):
            problems.append("T is not inside T*")
        if not t.contains_lattice(scale_lattice(self.desc.pi_power(1), tstar)):
            problems.append("pi T* is not inside T")
        if any(v not in (0, 1) for v in bal.invariants):
            problems.append(f"invariants {bal.invariants} are not binary")
        if nbar + ntilde != n:
            problems.append(f"kernel sizes {nbar} + {ntilde} != {n}")
        return problems


def _expect(result: dict, **want):
    return [f"{key} = {result.get(key)!r}, expected {val!r}"
            for key, val in want.items() if result.get(key) != val]


def _descend_validate(order, dim, steps=None, block_dims=None):
    def validate(result):
        problems = _expect(result, group_order=order)
        if sum(result["block_dims"]) != dim:
            problems.append(f"block dims {result['block_dims']} do not sum to {dim}")
        if steps is not None:
            problems += _expect(result, chain_steps=steps)
        if block_dims is not None:
            problems += _expect(result, block_dims=block_dims)
        return problems
    return validate


def _verify_validate(tag, ell):
    def validate(result):
        problems = _expect(result, tag=tag, ell=ell, verdict=True)
        counts, details = result["counts"], result["details"]
        if tag == "lemma":
            problems += _expect(counts, candidates=ell ** 3, invariant=ell,
                                nondegenerate_invariant=0)
        elif tag == "prop5":
            problems += _expect(counts, nondegenerate_invariant=0)
            problems += _expect(details, existence_half=True)
        else:
            problems += _expect(details, kills_first_copy=True)
            if "enumeration" in details["routes"] and not (
                    0 < counts["enumerated"] == counts["degenerate"]):
                problems.append("prop6 enumerated a nondegenerate alternating form")
        return problems
    return validate


def _rngs(workload: str, seed: int, name: str):
    """(shape stream, sign stream) of one job; see the module docstring."""
    return random.Random(f"{workload}-{name}"), random.Random(f"{workload}-{seed}-{name}")


def _descend_jobs(seed, root, tmpdir, wanted):
    jobs = []

    def add(name, path, expected_exit, validate, fixed_input=True):
        if wanted(name):
            out = os.path.join(tmpdir, f"{name}.report.json")
            jobs.append(CliJob(name, ["descend", path, "--out", out], out,
                               expected_exit, validate, fixed_input))

    for sample, (code, order, dim) in SAMPLES.items():
        add(f"sample-{sample}", os.path.join(root, "bundles", f"{sample}.json"),
            code, _descend_validate(order, dim))
    for ell in PROP6_ELLS:
        name = f"prop6-ell{ell}"
        if wanted(name):
            rep = build_prop6_bundle(ell)
            path = os.path.join(tmpdir, f"{name}.json")
            write_bundle(path, rep.field, rep.form, rep.generators)
            # 2e = ell - 1 for this field, so the hypothesis certificate is false
            add(name, path, 2, _descend_validate(8 * ell, 4))
    descriptors = {}
    for fld, a, b, k in DESCEND_BLOCKS:
        name = f"block-{fld}-B{a}xB{b}-k{k}"
        if not wanted(name):
            continue
        if fld not in descriptors:
            n, ell, sub = FIELDS[fld]
            descriptors[fld] = make_descriptor(n, ell, subgroup=sub)
        desc = descriptors[fld]
        gens, form = block_group(desc, a, b, k, _rngs("descend_groups", seed, name))
        path = os.path.join(tmpdir, f"{name}.json")
        write_bundle(path, desc, form, gens)
        w = b if k % 2 else 0
        add(name, path, 0, _descend_validate(
            hyperoctahedral_order(a) * hyperoctahedral_order(b), a + b,
            steps=(k + 2) // 2, block_dims=[a + b - w, w]), fixed_input=False)
    return jobs


def _balance_jobs(seed, root, wanted):
    jobs = []
    for sample, count in BALANCE_SAMPLES:
        names = [f"start-{sample}-{i}" for i in range(count)]
        if not any(wanted(nm) for nm in names):
            continue
        rep, _ = cli.load_bundle(os.path.join(root, "bundles", f"{sample}.json"))
        for name in filter(wanted, names):
            start = random_start(_rngs("balance_starts", seed, name), rep.field, rep.dim)
            jobs.append(BalanceJob(name, rep.field, rep.generators, rep.form, start))
    for fld, a, b, k in BALANCE_BLOCKS:
        group = f"{fld}-B{a}xB{b}-k{k}"
        name = f"start-{group}"
        if not wanted(name):
            continue
        n, ell, sub = FIELDS[fld]
        desc = make_descriptor(n, ell, subgroup=sub)
        gens, form = block_group(desc, a, b, k, _rngs("balance_starts", seed, group))
        start = random_start(_rngs("balance_starts", seed, name), desc, a + b)
        jobs.append(BalanceJob(name, desc, gens, form, start))
    return jobs


def _verify_jobs(tmpdir, wanted):
    jobs = []
    for tag, ells in VERIFY_LADDER:
        for ell in ells:
            name = f"verify-{tag}-{ell}"
            if wanted(name):
                out = os.path.join(tmpdir, f"{name}.report.json")
                jobs.append(CliJob(name, ["verify", tag, "--ell", str(ell), "--out", out],
                                   out, 0, _verify_validate(tag, ell), True))
    return jobs


def build_jobs(workload: str, seed: int, root: str, tmpdir: str, smoke: bool = False):
    """The workload's job list in its seeded order.

    ``root`` is the checkout holding ``bundles/``; generated bundle files and
    reports go to ``tmpdir``.
    """
    wanted = (lambda name: name in SMOKE[workload]) if smoke else (lambda name: True)
    if workload == "descend_groups":
        jobs = _descend_jobs(seed, root, tmpdir, wanted)
    elif workload == "balance_starts":
        jobs = _balance_jobs(seed, root, wanted)
    elif workload == "verify_sweep":
        jobs = _verify_jobs(tmpdir, wanted)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}-{seed}-order").shuffle(jobs)
    return jobs
