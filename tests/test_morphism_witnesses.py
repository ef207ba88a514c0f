"""The failing witness of every algebra-map and coalgebra-map relation,
pinned byte for byte.

No golden holds a FAIL of these relations, so these pins are what guard
their orientation: which composite is reported as the left side and which
as the right.  Relation (3) reads the zipper C -> A with mu_A(zeta (x) zeta)
on the left; the cozipper A -> C and the intertwiners of Poincare duality
read phi mu_A and lam_B phi on the left.  The cases are the equator pair
with its zipper scaled by 2, the same pair with its cozipper scaled by 2,
and phi = 2 id on H*(S^3).
"""

import pytest

from cofrob import (GradedMap, OpenClosedTQFT, check_intertwines_coproduct,
                    check_intertwines_product, run_full_tqft_suite, sphere_cohomology)
from cofrob.reports import render_json
from cofrob.tqft import run_tqft_entries

ZIPPER = """\
{
  "suite": "zipper",
  "relations": [
    {
      "name": "rel3-zipper-products",
      "verdict": "fail",
      "checked": 1,
      "inconclusive": 0,
      "witness": {
        "input": [
          "1",
          "1"
        ],
        "lhs": "4*1",
        "rhs": "2*1"
      }
    },
    {
      "name": "rel3-zipper-unit",
      "verdict": "fail",
      "checked": 1,
      "inconclusive": 0,
      "witness": {
        "input": [],
        "lhs": "2*1",
        "rhs": "1*1"
      }
    }
  ],
  "pass": false
}"""

COZIPPER = """\
{
  "suite": "cozipper",
  "relations": [
    {
      "name": "cozipper-coproducts",
      "verdict": "fail",
      "checked": 2,
      "inconclusive": 0,
      "witness": {
        "input": [
          "t"
        ],
        "lhs": "-4*w(x)w",
        "rhs": "-2*w(x)w"
      }
    },
    {
      "name": "cozipper-counits",
      "verdict": "fail",
      "checked": 2,
      "inconclusive": 0,
      "witness": {
        "input": [
          "t"
        ],
        "lhs": "1*R",
        "rhs": "2*R"
      }
    }
  ],
  "pass": false
}"""

PRODUCT = """\
{
  "suite": "product",
  "relations": [
    {
      "name": "intertwines-product",
      "verdict": "fail",
      "checked": 1,
      "inconclusive": 0,
      "witness": {
        "input": [
          "1",
          "1"
        ],
        "lhs": "2*1",
        "rhs": "4*1"
      }
    },
    {
      "name": "unit-transport",
      "verdict": "fail",
      "checked": 1,
      "inconclusive": 0,
      "witness": {
        "input": [],
        "lhs": "1*1",
        "rhs": "2*1"
      }
    }
  ],
  "pass": false
}"""

COPRODUCT = """\
{
  "suite": "coproduct",
  "relations": [
    {
      "name": "intertwines-coproduct",
      "verdict": "fail",
      "checked": 1,
      "inconclusive": 0,
      "witness": {
        "input": [
          "1"
        ],
        "lhs": "-4*1(x)w + 4*w(x)1",
        "rhs": "-2*1(x)w + 2*w(x)1"
      }
    },
    {
      "name": "counit-transport",
      "verdict": "fail",
      "checked": 2,
      "inconclusive": 0,
      "witness": {
        "input": [
          "w"
        ],
        "lhs": "1*R",
        "rhs": "2*R"
      }
    }
  ],
  "pass": false
}"""


@pytest.fixture(scope="module")
def doubled_zipper(equator):
    return OpenClosedTQFT(equator.closed, equator.open, equator.zipper.scale(2),
                          equator.cozipper)


@pytest.fixture(scope="module")
def doubled_cozipper(equator):
    return OpenClosedTQFT(equator.closed, equator.open, equator.zipper,
                          equator.cozipper.scale(2))


def _from_full_suite(t, names):
    by_name = {r.name: r for r in run_full_tqft_suite(t)}
    return [by_name[name] for name in names]


def test_zipper_witnesses(doubled_zipper):
    names = ("rel3-zipper-products", "rel3-zipper-unit")
    assert render_json("zipper", run_tqft_entries(doubled_zipper, names)) == ZIPPER
    assert render_json("zipper", _from_full_suite(doubled_zipper, names)) == ZIPPER


def test_cozipper_witnesses(doubled_cozipper):
    names = ("cozipper-coproducts", "cozipper-counits")
    assert render_json("cozipper", run_tqft_entries(doubled_cozipper, names)) == COZIPPER
    assert render_json("cozipper", _from_full_suite(doubled_cozipper, names)) == COZIPPER


def test_intertwiner_witnesses():
    s3 = sphere_cohomology(3)
    twice = GradedMap.identity(s3.space).scale(2)
    assert render_json("product", check_intertwines_product(twice, s3, s3)) == PRODUCT
    assert render_json("coproduct", check_intertwines_coproduct(twice, s3, s3)) == COPRODUCT
