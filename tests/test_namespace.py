"""The public names of the `cofrob` package, pinned.

Adding or removing a public name must be a deliberate edit of `PUBLIC`;
a removal is also stated in README.md and CHANGES.md.  Submodules and
underscore names are not part of the pin.
"""

import types

import cofrob

PUBLIC = {
    # fields, core
    "QQ", "RationalField", "PrimeField", "field_from_name",
    "GradedModule", "TensorSpace", "Element", "GradedMap", "make_module", "apply",
    "compose", "map_equal", "element_as_map", "scalar_space",
    # tensor
    "tensor_maps", "twist", "permute", "Permutation", "dual_module", "dual_map",
    "ShiftMaps", "shift_map", "shift_module",
    # windows, reports
    "WindowSpec", "CheckReport", "Witness", "Relation", "check_relations",
    "suite_passes",
    # structures
    "BialgebraData", "check_cofrobenius", "check_derived_identities",
    "check_involutive", "direct_sum", "counit_solve",
    # duality
    "PairingHandle", "CopairingHandle", "pairing_handle", "copairing_handle",
    "check_perfect", "dualize", "shift_structure", "rescale_signs",
    "transpose_structure", "check_intertwines_product", "check_intertwines_coproduct",
    "poincare_dual_structure", "check_poincare_duality", "complete_from_pairing",
    "cyclic_triple_checks",
    # tqft
    "OpenClosedTQFT", "run_full_tqft_suite", "check_cardy", "derive_cozipper",
    # models
    "CupData", "sphere_cohomology", "manifold_from_cup", "sphere_cup_data",
    "torus_cup_data", "s2xs2_cup_data", "submanifold_tqft", "equator_pair",
    "diagonal_pair", "factor_pair", "rabinowitz_loop_sphere", "loop_sphere",
    "based_loop_sphere", "based_rabinowitz_loop_sphere", "circle_models",
    "loop_tqft_sphere",
    # docio, suites
    "StructureDocument", "ParseError", "parse", "render", "to_bialgebra", "to_tqft",
    "from_bialgebra", "from_tqft", "run_suite", "SUITE_NAMES",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(cofrob).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names - PUBLIC == set(), "new public names: add them to PUBLIC"
    assert PUBLIC - names == set(), "removed public names: state them in README and CHANGES"


def test_the_second_dual_route_is_not_public():
    """The composite dual route lives in `tests/dual_reference.py` only."""
    from cofrob import tensor
    for name in ("tensor_modules", "flatten_space", "raw_dual", "iota", "iota_inverse",
                 "flattener", "unflattener", "double_dual"):
        assert not hasattr(cofrob, name)
        assert not hasattr(tensor, name)


def test_the_one_call_checker_wrappers_are_gone():
    """A relation group is a tuple of entry names, run by
    `structures.run_entries` or `tqft.run_tqft_entries`; one relation is
    `check_relations` of a list of one.  No module keeps a function that
    only forwards such a call, and the runners stay out of `cofrob`."""
    from cofrob import reports, structures, tqft
    gone = {
        structures: ("check_product_laws", "check_coproduct_laws",
                     "check_unital_infinitesimal", "check_unital_antisymmetry",
                     "check_counital_infinitesimal", "check_counital_antisymmetry",
                     "check_biunital_infinitesimal", "check_copairing_symmetry",
                     "check_pairing_symmetry", "copairing", "pairing"),
        tqft: ("check_zipper_algebra_map", "check_zipper_central", "check_rel5",
               "check_rel5_pairing_form", "check_cozipper_coalgebra",
               "check_module_relations"),
        reports: ("check_relation",),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(cofrob, name), name
            assert not hasattr(module, name), name
    assert callable(structures.run_entries) and callable(tqft.run_tqft_entries)
    assert not hasattr(cofrob, "run_entries") and not hasattr(cofrob, "run_tqft_entries")


def test_window_validity_is_decided_by_index_only():
    """The label-based window tests live in `tests/window_reference.py`
    only, and a stage runs through `tensor.term_kernel`, with no
    `apply_stage` beside it."""
    from cofrob import WindowSpec, tensor
    for name in ("input_valid", "coordinate_reliable", "weight", "_max_subset_abs"):
        assert not hasattr(WindowSpec, name), name
    assert callable(WindowSpec.valid_inputs) and callable(WindowSpec.input_limit)
    assert not hasattr(tensor, "apply_stage") and not hasattr(cofrob, "apply_stage")
