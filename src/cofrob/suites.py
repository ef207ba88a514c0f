"""Named check suites, as exposed by the command line.

A data suite other than poincare-duality is a tuple of entry names of
the relation table (`structures.RELATIONS`), run by `structures._run`;
derived-identities picks its tuple by the maps the structure has, and
involutivity and cyclic leave out the entries whose unit or counit the
structure lacks."""

from functools import partial

from .structures import (BialgebraData, _run, PRODUCT_LAWS, COPRODUCT_LAWS,
                         UNITAL_ANTISYMMETRY, COUNITAL_ANTISYMMETRY,
                         BIUNITAL_INFINITESIMAL, COFROBENIUS, check_derived_identities,
                         check_involutive)
from .duality import check_poincare_duality, cyclic_triple_checks
from .tqft import OpenClosedTQFT, run_full_tqft_suite, check_cardy

SUITE_RELATIONS = {
    "product-laws": PRODUCT_LAWS,
    "coproduct-laws": COPRODUCT_LAWS,
    "unital-infinitesimal": ("associativity", "unit", "coassociativity",
                             "unital-infinitesimal", *UNITAL_ANTISYMMETRY),
    "counital-infinitesimal": ("associativity", "coassociativity", "counit",
                               "counital-infinitesimal", *COUNITAL_ANTISYMMETRY),
    "biunital-infinitesimal": ("associativity", "unit", "coassociativity", "counit",
                               *BIUNITAL_INFINITESIMAL),
    **{f"{flavor}-cofrobenius": names for flavor, names in COFROBENIUS.items()},
}


def _derived_suite(data):
    flavor = ("biunital" if data.eta is not None and data.eps is not None
              else "unital" if data.eta is not None else "counital")
    return check_derived_identities(data, flavor)


DATA_SUITES = {
    **{name: partial(_run, names=names) for name, names in SUITE_RELATIONS.items()},
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
