"""Graded 2D open-closed TQFT relations on the loop-space and manifold pairs."""

import pytest

from cofrob import (Element, GradedMap, OpenClosedTQFT, run_full_tqft_suite,
                    check_cardy, derive_cozipper, map_equal, shift_structure)
from cofrob.tqft import run_tqft_entries

from conftest import all_pass, failing

COZIPPER_COALGEBRA = ("cozipper-coproducts", "cozipper-counits")
MODULE_RELATIONS = ("module-rel-a", "module-rel-b")
# relation (5), its pairing form, and the agreement of their verdicts
REL5 = ("rel5-cozipper-duality", "rel5-pairing-form", "rel5-equivalence")


def by_name(reports, name):
    return next(r for r in reports if r.name == name)


def corrupt_map(gmap, src, dst):
    entries = {s: dict(row) for s, row in gmap.entries.items()}
    entries[src][dst] = -entries[src][dst]
    return GradedMap(gmap.source, gmap.target, gmap.degree, entries)


def test_degree_normalization_enforced(sphere2, sphere3):
    shifted = shift_structure(sphere3)
    z = GradedMap.zero(shifted.space, shifted.space, 0)
    with pytest.raises(ValueError, match="degree normalization"):
        OpenClosedTQFT(shifted, shifted, z, z)


@pytest.mark.parametrize("sector,missing,message", [
    ("closed", "eta", "closed sector has no unit"),
    ("closed", "eps", "closed sector has no counit"),
    ("open", "eta", "open sector has no unit"),
    ("open", "eps", "open sector has no counit")])
def test_sectors_without_unit_or_counit_are_refused(equator, sector, missing, message):
    closed, open_ = equator.closed, equator.open
    if sector == "closed":
        closed = closed.replace(**{missing: None})
    else:
        open_ = open_.replace(**{missing: None})
    with pytest.raises(ValueError, match=message):
        OpenClosedTQFT(closed, open_, equator.zipper, equator.cozipper)
    with pytest.raises(ValueError, match=message):
        derive_cozipper(closed, open_, equator.zipper)


def test_cozipper_degree_enforced(tqft3):
    bad = GradedMap.zero(tqft3.open.space, tqft3.closed.space, 0)
    with pytest.raises(ValueError, match=r"\|zeta\*\|"):
        OpenClosedTQFT(tqft3.closed, tqft3.open, tqft3.zipper, bad)


def test_loop_tqft_full_suite(tqft3):
    reports = run_full_tqft_suite(tqft3)
    assert not failing(reports)
    # the window leaves the central relations conclusive
    assert by_name(reports, "rel3-zipper-products").checked > 0
    assert by_name(reports, "rel5-cozipper-duality").verdict == "pass"


def test_loop_tqft_zipper_values(tqft3):
    # zeta(U^k) = U^k, zeta(AU^k) = 0, zeta eta_C = eta_A
    c, a = tqft3.closed, tqft3.open
    for k in range(-2, 3):
        out = tqft3.zipper((c.module.index[f"U^{k}"],))
        assert out == Element.basis(a.space, (a.module.index[f"U^{k}"],))
        assert tqft3.zipper((c.module.index[f"AU^{k}"],)).is_zero
    assert tqft3.zipper(c.eta) == a.eta


def test_loop_tqft_cozipper_degree(tqft3):
    # |zeta*| = -n = |lam_C| - |lam_A|
    assert tqft3.cozipper.degree == -3
    assert tqft3.cozipper.degree == tqft3.closed.lam.degree - tqft3.open.lam.degree


def test_loop_tqft_cardy_gate(tqft3):
    # |lam_C| = -5 != -4 = 2|lam_A|: the gate fails, so Cardy demands
    # zeta zeta* = 0, which holds since zeta kills AU^k
    rep = check_cardy(tqft3)
    assert rep.verdict == "pass"
    assert "|lam_C| = -5" in rep.note and "2|lam_A| = -4" in rep.note
    assert "gate fails" in rep.note


def test_loop_tqft_cozipper_coalgebra_sign(tqft3):
    # |zeta*| = -3, |lam_A| = -2: the sign is +1 and the relation reads
    # (zeta* (x) zeta*) lam_A = lam_C zeta*
    from cofrob.structures import sgn
    assert sgn(tqft3.cozipper.degree * tqft3.open.lam.degree) == 1
    reports = run_tqft_entries(tqft3, COZIPPER_COALGEBRA)
    assert not failing(reports)


def test_loop_tqft_module_relations(tqft3):
    assert not failing(run_tqft_entries(tqft3, MODULE_RELATIONS))


def test_circle_tqft(tqft1):
    reports = run_full_tqft_suite(tqft1)
    assert not failing(reports)
    # zeta* U^k_{pm,A} = A_pm U^k_{pm,C}
    c, a = tqft1.closed, tqft1.open
    for comp in "+-":
        for k in (-1, 0, 1):
            got = tqft1.cozipper((a.module.index[f"U{comp}^{k}"],))
            assert got == Element.basis(c.space, (c.module.index[f"AU{comp}^{k}"],))


def test_equator_pair_all_relations(equator):
    assert all_pass(run_full_tqft_suite(equator))


def test_equator_cozipper_values(equator):
    # zeta*(1) = 0 forced by degree; zeta*(t) = +-w (the realized sign is +)
    assert equator.cozipper((equator.open.module.index["1"],)).is_zero
    out = equator.cozipper((equator.open.module.index["t"],))
    w = equator.closed.module.index["w"]
    assert out.coeffs in ({(w,): 1}, {(w,): -1})
    assert out.coeffs == {(w,): 1}


def test_diagonal_pair_cardy_passes(diagonal):
    reports = run_full_tqft_suite(diagonal)
    assert all_pass(reports)
    # both Cardy sides equal the Euler class of TS^2 on the unit
    lhs = diagonal.zipper(diagonal.cozipper((diagonal.open.module.index["1"],)))
    w = diagonal.open.module.index["w"]
    assert lhs.coeffs == {(w,): 2}


def test_factor_pair_cardy_fails_with_witness(factor):
    reports = run_full_tqft_suite(factor)
    cardy = by_name(reports, "rel6-cardy")
    assert cardy.verdict == "fail"
    assert cardy.witness.input_labels == ("1",)
    assert cardy.witness.lhs == "0"
    assert cardy.witness.rhs == "2*w"
    # everything else passes
    assert all(r.verdict == "pass" for r in reports if r.name != "rel6-cardy")


def test_rel5_pairing_form_agreement(tqft3, equator, factor):
    for t in (tqft3, equator, factor):
        reports = run_tqft_entries(t, REL5)
        assert by_name(reports, "rel5-equivalence").verdict == "pass"
        assert by_name(reports, "rel5-pairing-form").verdict in ("pass",)


def test_rel5_forms_fail_together_on_corrupted_cozipper(equator):
    t_idx = equator.open.module.index["t"]
    w_idx = equator.closed.module.index["w"]
    bad = OpenClosedTQFT(equator.closed, equator.open, equator.zipper,
                         corrupt_map(equator.cozipper, (t_idx,), (w_idx,)))
    [rel5] = run_tqft_entries(bad, ("rel5-cozipper-duality",))
    reports = run_tqft_entries(bad, REL5)
    assert rel5.verdict == "fail"
    assert by_name(reports, "rel5-pairing-form").verdict == "fail"
    assert by_name(reports, "rel5-equivalence").verdict == "pass"  # verdicts agree


def test_derive_cozipper_reproduces_loop_formula(tqft3):
    derived = derive_cozipper(tqft3.closed, tqft3.open, tqft3.zipper)
    a, c = tqft3.open, tqft3.closed
    for k in range(-2, 3):
        got = derived((a.module.index[f"U^{k}"],))
        assert got == Element.basis(c.space, (c.module.index[f"AU^{k}"],))
    # relation (5) holds by construction
    t2 = OpenClosedTQFT(tqft3.closed, tqft3.open, tqft3.zipper, derived)
    assert run_tqft_entries(t2, ("rel5-cozipper-duality",))[0].verdict == "pass"


def test_derive_cozipper_matches_equator(equator):
    derived = derive_cozipper(equator.closed, equator.open, equator.zipper)
    assert map_equal(derived, equator.cozipper)


def test_zipper_relations_individually(equator):
    assert all_pass(run_tqft_entries(equator, ("rel3-zipper-products", "rel3-zipper-unit")))
    assert run_tqft_entries(equator, ("rel4-zipper-central",))[0].verdict == "pass"


def test_module_relations_on_factor_pair(factor):
    # the module relations need only (1)-(5), so they hold even though
    # Cardy fails
    assert all_pass(run_tqft_entries(factor, MODULE_RELATIONS))


def test_cozipper_coalgebra_on_sphere_pairs(equator, diagonal):
    for t in (equator, diagonal):
        assert all_pass(run_tqft_entries(t, COZIPPER_COALGEBRA))
