from collections import Counter

import pytest

from isodescent import linalg as la
from isodescent.counterexamples import (
    build_prop5_bundle,
    build_prop6_bundle,
    no_invariant_symmetric_form,
    verify_prop5,
    verify_prop6,
)
from isodescent.errors import CharTwo, InvalidDescriptor


class TestLemma:
    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_exhaustive_counts(self, ell):
        cert = no_invariant_symmetric_form(ell)
        assert cert.verdict
        assert cert.tag == "lemma"
        assert cert.ell == ell
        assert cert.examined == ell ** 3
        assert cert.counts["candidates"] == ell ** 3
        # hand solve: g-invariance forces the two top entries to vanish,
        # leaving exactly ell singular survivors
        assert cert.counts["invariant"] == ell
        assert cert.counts["nondegenerate_invariant"] == 0
        assert cert.details["vanishing_identities_verified"]

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            no_invariant_symmetric_form(2)

    @pytest.mark.parametrize("bad", [1, 9, 15])
    def test_nonprime_rejected(self, bad):
        with pytest.raises(InvalidDescriptor):
            no_invariant_symmetric_form(bad)

    def test_to_dict_is_sorted_and_complete(self):
        d = no_invariant_symmetric_form(3).to_dict()
        assert set(d) == {"tag", "ell", "search_space", "examined",
                          "verdict", "counts", "details"}
        assert list(d["counts"]) == sorted(d["counts"])


class TestProp5:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_full_certificate(self, ell):
        cert = verify_prop5(ell)
        assert cert.verdict
        assert cert.tag == "prop5"
        assert cert.counts["group_order"] == ell
        assert cert.counts["order_ell_elements"] == ell ** 2 - 1
        assert cert.counts["symmetric_grams"] == ell ** 3
        assert cert.counts["nondegenerate_invariant"] == 0
        assert cert.details["existence_half"]
        assert cert.details["irreducible_over_K"]
        assert cert.details["all_order_ell_unipotent"]
        assert cert.details["all_conjugate_to_standard"]
        # the construction sits exactly on the excluded boundary
        assert cert.details["hypothesis_boundary"]

    def test_bundle_shape(self):
        rep = build_prop5_bundle(5)
        desc = rep.field
        assert rep.order == 5
        assert desc.ell == 5
        assert desc.e == 2
        assert not desc.two_e_ok
        assert rep.form.kind == "symmetric"
        assert rep.form.dim == 2
        # GroupRep construction already verified every element is an isometry
        assert len(rep.generators) == 1

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            verify_prop5(2)


class TestProp6:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_solved_dimensions(self, ell):
        cert = verify_prop6(ell)
        assert cert.verdict
        assert cert.tag == "prop6"
        assert cert.counts["invariant_form_dim_W"] == 1
        assert cert.counts["commutant_dim"] == 4
        assert cert.counts["alternating_solution_dim"] == 1
        assert cert.counts["enumerated"] == ell
        assert cert.counts["degenerate"] == ell
        assert cert.details["routes"] == ["identity", "enumeration"]
        assert cert.details["kills_first_copy"]
        assert cert.details["W_invariant_forms_alternating"]

    def test_identity_route_alone_still_certifies(self):
        cert = verify_prop6(5, enum_cap=1)
        assert cert.verdict
        assert cert.details["routes"] == ["identity"]
        assert cert.counts["enumerated"] == 0
        assert cert.counts["degenerate"] == 0

    def test_char_two_rejected(self):
        with pytest.raises(CharTwo):
            verify_prop6(2)


class TestProp6Bundle:
    def test_group_and_form_shape(self):
        rep = build_prop6_bundle(5)
        assert rep.order == 40
        assert rep.form.kind == "alternating"
        assert rep.form.dim == 4
        desc = rep.field
        assert desc.ell == 5
        # the coefficient field ramifies just enough to sit on the boundary
        assert desc.e == 2
        assert not desc.two_e_ok

    def test_charpoly_census_over_K(self):
        rep = build_prop6_bundle(5)
        desc = rep.field

        def poly(ints):
            return tuple(desc.rational(c) for c in ints)

        census = Counter(tuple(la.charpoly(m, desc)) for m in rep.elements)
        assert census[poly([1, 0, 2, 0, 1])] == 6    # (t^2+1)^2
        assert census[poly([1, 4, 6, 4, 1])] == 1    # (t+1)^4
        assert census[poly([1, -4, 6, -4, 1])] == 1  # (t-1)^4
        assert sum(census.values()) == 40

    def test_minus_identity_reduces_consistently(self):
        rep = build_prop6_bundle(5)
        desc = rep.field
        minus = la.scalar_mul(-desc.one, la.identity(desc, 4))
        match = [m for m in rep.elements if la.mat_eq(m, minus)]
        assert len(match) == 1
        cp = la.charpoly(match[0], desc)
        assert cp == [desc.rational(c) for c in (1, 4, 6, 4, 1)]
        k = desc.residue_field
        assert [c.reduce() for c in cp] == [k.element(c) for c in (1, 4, 1, 4, 1)]
