"""Named check suites, as exposed by the command line."""

from .structures import (BialgebraData, _Ops, _associativity, _unit, _coassociativity,
                         _counit, _checked, _unital_infinitesimal, _unital_antisymmetry,
                         _counital_infinitesimal, _counital_antisymmetry,
                         _biunital_infinitesimal, check_product_laws,
                         check_coproduct_laws, check_cofrobenius,
                         check_derived_identities, check_involutive)
from .duality import check_poincare_duality, cyclic_triple_checks
from .tqft import OpenClosedTQFT, run_full_tqft_suite, check_cardy


def _unital_infinitesimal_suite(data):
    o = _Ops(data)
    return _checked([_associativity(data, o), *_unit(data, o), _coassociativity(data, o),
                     _unital_infinitesimal(data, o), *_unital_antisymmetry(data, o)],
                    data.window)


def _counital_infinitesimal_suite(data):
    o = _Ops(data)
    return _checked([_associativity(data, o), _coassociativity(data, o), *_counit(data, o),
                     _counital_infinitesimal(data, o), *_counital_antisymmetry(data, o)],
                    data.window)


def _biunital_infinitesimal_suite(data):
    o = _Ops(data)
    return _checked([_associativity(data, o), *_unit(data, o), _coassociativity(data, o),
                     *_counit(data, o), *_biunital_infinitesimal(data, o)], data.window)


def _derived_suite(data):
    flavor = ("biunital" if data.eta is not None and data.eps is not None
              else "unital" if data.eta is not None else "counital")
    return check_derived_identities(data, flavor)


DATA_SUITES = {
    "product-laws": check_product_laws,
    "coproduct-laws": check_coproduct_laws,
    "unital-infinitesimal": _unital_infinitesimal_suite,
    "counital-infinitesimal": _counital_infinitesimal_suite,
    "biunital-infinitesimal": _biunital_infinitesimal_suite,
    "unital-cofrobenius": lambda d: check_cofrobenius(d, "unital"),
    "counital-cofrobenius": lambda d: check_cofrobenius(d, "counital"),
    "biunital-cofrobenius": lambda d: check_cofrobenius(d, "biunital"),
    "derived-identities": _derived_suite,
    "involutivity": check_involutive,
    "poincare-duality": check_poincare_duality,
    "cyclic": cyclic_triple_checks,
}

TQFT_SUITES = {
    "tqft-full": run_full_tqft_suite,
    "cardy": lambda t: [check_cardy(t)],
}

SUITE_NAMES = tuple(DATA_SUITES) + tuple(TQFT_SUITES)


def run_suite(name, obj):
    """Run a named suite on a BialgebraData or OpenClosedTQFT."""
    if name in DATA_SUITES:
        if not isinstance(obj, BialgebraData):
            raise ValueError(f"suite {name!r} needs a single-structure document")
        return DATA_SUITES[name](obj)
    if name in TQFT_SUITES:
        if not isinstance(obj, OpenClosedTQFT):
            raise ValueError(f"suite {name!r} needs a TQFT pair document")
        return TQFT_SUITES[name](obj)
    raise ValueError(f"unknown suite {name!r} (known: {', '.join(SUITE_NAMES)})")
