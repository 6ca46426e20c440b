"""The integer closure and the tree-carried reduced action, against the
per-element code they replaced.

GroupRep enumerates its closure on integer matrices and records every
element as parent x generator; descend reduces only the generators and
multiplies the reduced matrices along those links.  The references below
are the former FieldElement-keyed closure and the former reduced_action,
which conjugated and reduced every element on its own.
"""

from collections import deque

import pytest

from isodescent import linalg as la
from isodescent.cli import load_bundle
from isodescent.counterexamples import build_prop6_bundle
from isodescent.descent import DEFAULT_GROUP_CAP, GroupRep, descend
from isodescent.errors import GroupTooLarge, InternalInconsistency, PreconditionViolated
from isodescent.exactfield import make_descriptor
from isodescent.forms import GramForm

from conftest import bundle_path


def _mat_key(m):
    return tuple(tuple(row) for row in m)


def reference_closure(field, generators, dim, cap=DEFAULT_GROUP_CAP):
    ident = la.identity(field, dim)
    out = [ident]
    seen = {_mat_key(ident)}
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in generators:
            p = la.mat_mul(m, g)
            k = _mat_key(p)
            if k not in seen:
                if len(out) >= cap:
                    raise GroupTooLarge(
                        f"group closure exceeded the cap of {cap} elements")
                seen.add(k)
                out.append(p)
                queue.append(p)
    return out


def _reduce_matrix(m):
    return [[x.reduce() for x in row] for row in m]


def reference_reduced_action(res, m):
    """rho_bar(m) from m alone, in the adapted basis of the result."""
    field = res.descriptor
    kfield = field.residue_field
    basis_star = res.dual_basis
    star_inv = la.mat_inv(basis_star, field)
    s, w = res.block_dims
    n = s + w
    p = la.mat_mul(star_inv, la.mat_mul(m, basis_star))
    pbar = _reduce_matrix(p)
    zero = kfield.zero
    for i in range(w):
        for j in range(w, n):
            if pbar[i][j] != zero:
                raise InternalInconsistency(
                    "reduced action is not block lower triangular")
    lower = [[pbar[w + i][w + j] for j in range(s)] for i in range(s)]
    upper = [[pbar[i][j] for j in range(w)] for i in range(w)]
    return la.block_diag(kfield, [lower, upper])


def _signed_permutations_b2(desc):
    z, o = desc.zero, desc.one
    return [[[z, o], [o, z]], [[-o, z], [z, o]]]


def block_b2xb2_gauss5():
    """B_2 x B_2 over Q(i) at ell = 5 with the form diag(1, 1, 5^3, 5^3), in
    a basis P = D U: D scales the first coordinate by 1/5 and U is unipotent
    with Gaussian entries, so generators and gram carry denominators."""
    desc = make_descriptor(4, 5)
    i = desc.zeta_power(1)
    r = desc.rational
    ident = la.identity(desc, 2)
    gens = [la.block_diag(desc, [g, ident]) for g in _signed_permutations_b2(desc)]
    gens += [la.block_diag(desc, [ident, g]) for g in _signed_permutations_b2(desc)]
    gram = la.block_diag(desc, [ident, la.scalar_mul(r(125), ident)])
    u = la.identity(desc, 4)
    for row, col, c in ((0, 1, r("2/3") * i), (0, 2, r(-1)), (1, 3, r("1/2") + i),
                        (2, 3, r(3) * i)):
        u[row][col] = c
    d = la.identity(desc, 4)
    d[0][0] = r("1/5")
    p = la.mat_mul(d, u)
    p_inv = la.mat_inv(p, desc)
    gens = [la.mat_mul(p_inv, la.mat_mul(g, p)) for g in gens]
    gram = la.mat_mul(la.transpose(p), la.mat_mul(gram, p))
    return GroupRep(desc, gens, GramForm(desc, gram, "symmetric"))


CASES = {
    **{name: (lambda name=name: load_bundle(str(bundle_path(name)))[0])
       for name in ("q8_split_ell5", "z4_hermitian_inert_ell7", "remark4_ell7",
                    "prop5_ell5")},
    "prop6_ell5": lambda: build_prop6_bundle(5),
    "prop6_ell7": lambda: build_prop6_bundle(7),
    "block_b2xb2_gauss5": block_b2xb2_gauss5,
}

ORDERS = {"q8_split_ell5": 8, "z4_hermitian_inert_ell7": 4, "remark4_ell7": 16,
          "prop5_ell5": 5, "prop6_ell5": 40, "prop6_ell7": 56,
          "block_b2xb2_gauss5": 64}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    rep = CASES[request.param]()
    return request.param, rep, descend(rep)


def test_closure_matches_the_field_element_closure(case):
    name, rep, _ = case
    ref = reference_closure(rep.field, rep.generators, rep.dim)
    assert rep.order == len(ref) == ORDERS[name]
    for got, want in zip(rep.elements, ref):
        assert la.mat_eq(got, want)
        assert [[x.serialize() for x in row] for row in got] == \
            [[x.serialize() for x in row] for row in want]


def test_links_rebuild_every_element(case):
    _, rep, _ = case
    assert rep.links[0] is None and len(rep.links) == rep.order
    for idx, (parent, gen) in enumerate(rep.links[1:], start=1):
        assert parent < idx
        assert la.mat_eq(la.mat_mul(rep.elements[parent], rep.generators[gen]),
                         rep.elements[idx])


def test_reduced_action_matches_the_per_element_reduction(case):
    _, rep, res = case
    assert len(res.rho_bar) == rep.order
    for m, p in zip(rep.elements, res.rho_bar):
        assert reference_reduced_action(res, m) == p


def test_cap_matches_the_reference():
    desc = make_descriptor(4, 5)
    rep = block_b2xb2_gauss5()
    for cap in (1, 7, 63):
        with pytest.raises(GroupTooLarge, match=f"cap of {cap} elements"):
            GroupRep(desc, rep.generators, rep.form, cap=cap)
        with pytest.raises(GroupTooLarge):
            reference_closure(desc, rep.generators, rep.dim, cap=cap)
    assert GroupRep(desc, rep.generators, rep.form, cap=64).order == 64


def test_non_isometry_generator_is_refused_before_any_longer_product():
    # diag(1, 2, 1, 1) has infinite order; the first generator is an
    # isometry, and with the cap at 2 the bad one is checked before the cap
    rep = block_b2xb2_gauss5()
    desc = rep.field
    bad = la.identity(desc, 4)
    bad[1][1] = desc.rational(2)
    for cap in (2, DEFAULT_GROUP_CAP):
        with pytest.raises(PreconditionViolated, match="a generator does not preserve"):
            GroupRep(desc, [rep.generators[0], bad], rep.form, cap=cap)
