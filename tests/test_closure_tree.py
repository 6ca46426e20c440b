"""The orbit closure, its Cayley table and the tree-carried reduced action,
against the per-element code they replaced.

GroupRep enumerates its closure as permutations of an orbit of rows,
records every element as parent x generator and keeps the right Cayley
table; descend reduces only the generators, carries the reduced action
along those links as the indices of its rows in an orbit in k^N, checks the
group law on the other Cayley edges and takes both charpolys once per
conjugacy class.  The references below are the former
FieldElement-keyed closure, the former reduced_action, which conjugated and
reduced every element on its own, the former per-element loop of descend,
and conjugacy classes by brute-force conjugation.
"""

import hashlib
import importlib.util
import json
import math
import pathlib
import time
from collections import Counter, deque

import pytest

from isodescent import linalg as la
from isodescent.cli import load_bundle
from isodescent.counterexamples import build_prop6_bundle
from isodescent import descent
from isodescent.descent import DEFAULT_GROUP_CAP, GroupRep, descend
from isodescent.errors import (DimensionMismatch, GroupTooLarge, InternalInconsistency,
                               PreconditionViolated)
from isodescent.exactfield import make_descriptor
from isodescent.forms import GramForm

from conftest import bundle_path

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def reference_descend_tables(rep, res):
    """The former per-element loop of descend, verbatim: rho_bar along the
    tree in ResidueElement arithmetic, then an f0 isometry check and both
    charpolys for every element."""
    field = rep.field
    kfield = field.residue_field
    n = rep.dim
    f0 = res.f0
    gen_bar = [reference_reduced_action(res, g) for g in rep.generators]
    rho_bar = [la.identity(kfield, n)]
    for parent, gen in rep.links[1:]:
        rho_bar.append(la.mat_mul(rho_bar[parent], gen_bar[gen]))
    kind_correct = all(f0.is_isometry(p) for p in rho_bar)

    ident_k = la.identity(kfield, n)
    kernel = [i for i, p in enumerate(rho_bar) if la.mat_eq(p, ident_k)]
    faithful = len(kernel) == 1
    image_order = len({_mat_key(p) for p in rho_bar})

    charpoly_ok = True
    classes = Counter()
    charpoly_table_K = []
    charpoly_table_k = []
    for m, p in zip(rep.elements, rho_bar):
        cp_K = la.charpoly(m, field)
        cp_red = [c.reduce() for c in cp_K]
        cp_psi = la.charpoly(p, kfield)
        charpoly_table_K.append(cp_K)
        charpoly_table_k.append(cp_psi)
        if len(cp_red) != len(cp_psi) or any(a != b for a, b in zip(cp_red, cp_psi)):
            charpoly_ok = False
        classes[tuple(tuple(c.coeffs) for c in cp_psi)] += 1

    f0_nondeg = la.det(f0.gram, kfield) != kfield.zero

    if field.two_e_ok and not faithful:
        raise InternalInconsistency(
            f"kernel element {kernel[1]} is not the identity although 2e < ell - 1")
    kernel_explanations = [{"element_index": idx, "explained_by": "hypothesis_failure"}
                           for idx in kernel if idx != 0]

    certificates = {
        "faithful": faithful,
        "charpoly_preserved": charpoly_ok,
        "f0_nondegenerate": f0_nondeg,
        "kind_correct": kind_correct,
        "hypothesis_2e_lt_ell_minus_1": field.two_e_ok,
    }
    return {
        "kernel_size": len(kernel),
        "image_order": image_order,
        "rho_bar": rho_bar,
        "charpoly_table_K": charpoly_table_K,
        "charpoly_table_k": charpoly_table_k,
        "certificates": certificates,
        "charpoly_classes": sorted(classes.items()),
        "kernel_explanations": kernel_explanations,
    }


def brute_force_classes(rep):
    """cls[x], the smallest index among h x h^-1 over every element h.

    Every element and its inverse is put over one denominator once
    (la.integer_matrix), the conjugates are products of integer coordinates
    (the field's int_mat_mul), and a matrix W / d is keyed by the pair
    (d, W) in lowest terms, which the matrix determines."""
    field = rep.field
    mul = field.int_mat_mul

    def key(d, w):
        g = math.gcd(d, *(c for row in w for x in row for c in x))
        return d // g, tuple(tuple(tuple(c // g for c in x) for x in row) for row in w)

    ints = [la.integer_matrix(field, m) for m in rep.elements]
    index = {key(d, w): i for i, (d, w) in enumerate(ints)}
    pairs = [(h, la.integer_matrix(field, la.mat_inv(m, field)))
             for h, m in zip(ints, rep.elements)]
    cls = [None] * rep.order
    for x, (d, w) in enumerate(ints):
        if cls[x] is None:
            for (hd, hw), (id_, iw) in pairs:
                cls[index[key(hd * d * id_, mul(hw, mul(w, iw)))]] = x
    return cls


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
                    "prop5_ell5", "block_b3xb2_q5")},
    "prop6_ell5": lambda: build_prop6_bundle(5),
    "prop6_ell7": lambda: build_prop6_bundle(7),
    "block_b2xb2_gauss5": block_b2xb2_gauss5,
}

ORDERS = {"q8_split_ell5": 8, "z4_hermitian_inert_ell7": 4, "remark4_ell7": 16,
          "prop5_ell5": 5, "prop6_ell5": 40, "prop6_ell7": 56,
          "block_b2xb2_gauss5": 64, "block_b3xb2_q5": 384}


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



def test_right_table_is_the_cayley_table(case):
    _, rep, _ = case
    assert len(rep.right) == rep.order
    for x, targets in enumerate(rep.right):
        assert len(targets) == len(rep.generators)
        for g, y in enumerate(targets):
            assert la.mat_eq(la.mat_mul(rep.elements[x], rep.generators[g]),
                             rep.elements[y])


def test_tables_match_the_per_element_loop(case):
    _, rep, res = case
    ref = reference_descend_tables(rep, res)
    ser = lambda table: [[c.serialize() for c in cp] for cp in table]
    assert ser(res.charpoly_table_K) == ser(ref["charpoly_table_K"])
    assert res.charpoly_table_k == ref["charpoly_table_k"]
    assert res.rho_bar == ref["rho_bar"]
    for key in ("kernel_size", "image_order", "certificates", "charpoly_classes",
                "kernel_explanations"):
        assert getattr(res, key) == ref[key], key


def test_classes_match_brute_force_conjugation(case):
    _, rep, _ = case
    cls = rep.conjugacy_classes()
    assert cls == brute_force_classes(rep)
    sizes = Counter(cls)
    assert all(rep.order % size == 0 for size in sizes.values())
    assert sum(sizes.values()) == rep.order


@pytest.mark.parametrize("name", sorted(CASES))
def test_class_charpolys_hold_for_every_element(name):
    rep = CASES[name]()
    cls, census = rep.class_charpolys()
    assert cls == rep.conjugacy_classes()
    assert list(census) == sorted(set(cls))
    assert sum(size for size, _, _ in census.values()) == rep.order
    assert Counter(cls) == {r: size for r, (size, _, _) in census.items()}
    for x, r in enumerate(cls):
        _, cp, red = census[r]
        assert la.charpoly(rep.elements[x], rep.field) == cp
        assert red == [c.reduce() for c in cp]


@pytest.mark.parametrize("name", ["remark4_ell7", "prop6_ell7", "block_b3xb2_q5"])
def test_class_charpolys_build_no_matrix(name, monkeypatch):
    """The census reads the traces the closure kept: it neither builds an
    element's matrix nor takes a Berkowitz charpoly."""
    rep = CASES[name]()
    calls = []
    monkeypatch.setattr(GroupRep, "element", lambda *a: calls.append("element"))
    monkeypatch.setattr(la, "charpoly", lambda *a: calls.append("charpoly"))
    _, census = rep.class_charpolys()
    assert calls == []
    assert all(len(cp) == rep.dim + 1 and cp[-1] == rep.field.one
               for _, cp, _ in census.values())


def test_edge_check_finds_a_corrupted_element(monkeypatch):
    # replace the key of one element's image by the identity's; the element
    # is the end of a Cayley edge off the tree from another element, whose
    # image times the generator's is the true image, not the identity
    rep = block_b2xb2_gauss5()
    x = next(y for src, targets in enumerate(rep.right) for g, y in enumerate(targets)
             if rep.links[y] != (src, g) and y not in (0, src))
    along_tree = descent._Orbit.along_tree

    def corrupted(*args):
        keys = along_tree(*args)
        keys[x] = keys[0]
        return keys

    monkeypatch.setattr(descent._Orbit, "along_tree", corrupted)
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        descend(rep)


def test_edge_check_finds_images_that_are_no_representation():
    # twice the first generator's image squares to 4 = -1 mod 5, not to
    # one: carried along the tree it agrees with every tree edge, and only
    # an edge off the tree (a relation of the group) shows the fault
    rep = block_b2xb2_gauss5()
    res = descend(rep)
    gens = [res.rho_bar[y] for y in rep.right[0]]
    descent._reduced_keys(rep, gens)  # the true images pass
    two = rep.field.residue_field.element(2)
    gens[0] = [[two * v for v in row] for row in gens[0]]
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        descent._reduced_keys(rep, gens)


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
    # diag(1, 2, 1, 1) has infinite order; only the generators are checked,
    # each before the cap: with the bad one second the cap of 2 admits the
    # first, and with the bad one first the cap of 1 admits nothing
    rep = block_b2xb2_gauss5()
    desc = rep.field
    bad = la.identity(desc, 4)
    bad[1][1] = desc.rational(2)
    for gens, caps in (([rep.generators[0], bad], (2, DEFAULT_GROUP_CAP)),
                       ([bad] + rep.generators, (1, DEFAULT_GROUP_CAP))):
        for cap in caps:
            with pytest.raises(PreconditionViolated, match="a generator does not preserve"):
                GroupRep(desc, gens, rep.form, cap=cap)


def test_dimension_over_the_ceiling_is_refused_at_once():
    desc = make_descriptor(1, 5)
    n = descent.MAX_DIM + 1
    form = GramForm(desc, la.identity(desc, n), "symmetric")
    minus = la.scalar_mul(desc.rational(-1), la.identity(desc, n))
    started = time.perf_counter()
    with pytest.raises(DimensionMismatch, match=f"dimension {n} exceeds the ceiling"):
        GroupRep(desc, [minus], form)
    assert time.perf_counter() - started < 1.0


def _workloads():
    """perfbench/workloads.py, loaded by its path, for block_group and _rngs."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closure_values_are_pinned():
    """links, right, traces and every element(i), byte for byte, over the
    committed bundles and the five block groups descend_groups builds at
    seed 5 (degree 1 over Q at 5 and 7, degree 2 over Q(i) at 5)."""
    wl = _workloads()
    reps = [load_bundle(str(bundle_path(name)))[0]
            for name in ("block_b3xb2_q5", "prop5_ell5", "q8_split_ell5", "remark4_ell7",
                         "z4_hermitian_inert_ell7")]
    for fld, a, b, k in (("Q5", 2, 2, 3), ("Q5", 3, 1, 4), ("Q7", 2, 2, 6),
                         ("Q7", 1, 3, 5), ("Qi5", 2, 2, 4)):
        n, ell, sub = wl.FIELDS[fld]
        desc = make_descriptor(n, ell, subgroup=sub)
        rngs = wl._rngs("descend_groups", 5, f"block-{fld}-B{a}xB{b}-k{k}")
        gens, form = wl.block_group(desc, a, b, k, rngs)
        reps.append(GroupRep(desc, gens, form))
    digest = hashlib.sha256()
    for rep in reps:
        elements = [[[x.serialize() for x in row] for row in rep.element(i)]
                    for i in range(rep.order)]
        record = [rep.links, rep.right, rep.traces, elements]
        digest.update(json.dumps(record, separators=(",", ":")).encode())
    assert digest.hexdigest() == \
        "709f49312327b75253c0e6fe45c807a64a1f9b7ce2053b6086786f2baf8eb607"
