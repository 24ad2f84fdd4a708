"""The two exactness certificates' reports pinned on fixed instances: the
six-term sequence of an ideal and the Hochschild comparison sequence, each
report's check names in order, its dims in order and its failed checks,
over Q, GF(1000003), GF(3) and GF(5).  A refactor of either certificate
keeps every pin."""

from __future__ import annotations

import pytest

from homleib.extensions import six_term_check, universal_central_extension
from homleib.fields import Field
from homleib.generators import sl2
from homleib.homassoc import HomAssociativeAlgebra, hochschild_module, sequence_check
from homleib.linalg import Subspace, unit_vec
from homleib_testkit import sl2_on_two_planes, zero_twist
from test_homassoc import SEQUENCE_CHECKS, exterior_algebra

FIELDS = {"Q": Field(), "GF(1000003)": Field(1000003), "GF(3)": Field(3), "GF(5)": Field(5)}

SIX_TERM_CHECKS = (
    "row: projection map surjective", "row: composite vanishes", "row: exact at the tensor square",
    "projection commutes over the tensor row", "first map lands in the middle kernel",
    "second map lands in the quotient kernel", "exact at the second homology of the algebra",
    "column image equals the two-sided commutator", "connecting map lifts exist",
    "exact at the second homology of the quotient", "connecting map onto the ideal cokernel")
SIX_TERM_DIMS = ("kernel over ideal tensor", "second homology of the algebra", "second homology of the quotient",
                 "ideal modulo commutator")
SEQUENCE_DIMS = ("quotient algebra", "commutator subspace", "first homology", "tensor with quotient",
                 "tensor with commutator", "tensor with first homology", "commutator modulo inner",
                 "kernel over quotient tensor", "kernel over commutator tensor")
FIRST_TERM = ("exact at the second homology of the algebra",)


def _six_term_instance(algebra, ideal, f):
    """The algebra and its ideal: the zero ideal, the whole algebra, V =
    <v1, v2, w1, w2> of sl2 x (V2 + V2), or the central kernel of the
    universal central extension K of sl2 x (V2 + V2)."""
    if algebra == "K":
        ext = universal_central_extension(sl2_on_two_planes(f)).extension
        return ext.total, ext.kernel
    L = {"sl2": sl2, "sl2, zero twist": lambda f: zero_twist(sl2(f)), "sl2 x (V2 + V2)": sl2_on_two_planes,
         "sl2 x (V2 + V2), zero twist": lambda f: zero_twist(sl2_on_two_planes(f))}[algebra](f)
    first = {"zero": L.dim, "full": 0, "V": 3}[ideal]
    return L, Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(first, L.dim)])


def _products(f, n, table, labels):
    return lambda: HomAssociativeAlgebra.from_products(f, n, table, labels=labels)


def _sequence_algebra(f, name):
    return {
        "ut": _products(f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
                        ("e11", "e12", "e22")),
        "gl2": _products(f, 4, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
                                (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}},
                         ("e11", "e12", "e21", "e22")),
        "dual numbers": _products(f, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, ("1", "x")),
        "exterior": lambda: exterior_algebra(f)}[name]()


# (algebra, ideal, field): (dims in SIX_TERM_DIMS' order, failed checks).
# The zero-twist FIRST_TERM pins hold the known first-term verdict: six-term
# hands the snake lemma the kernel over the L*M block only, which the zero
# twist sends to zero (ROADMAP item 24); these pins change with its mend.
SIX_TERM_PINS = {
    ("sl2", "zero", "Q"): ((0, 0, 0, 0), ()),
    ("sl2", "zero", "GF(1000003)"): ((0, 0, 0, 0), ()),
    ("sl2", "zero", "GF(3)"): ((0, 0, 0, 0), ()),
    ("sl2", "zero", "GF(5)"): ((0, 0, 0, 0), ()),
    ("sl2", "full", "Q"): ((0, 0, 0, 0), ()),
    ("sl2", "full", "GF(1000003)"): ((0, 0, 0, 0), ()),
    ("sl2", "full", "GF(3)"): ((0, 0, 0, 0), ()),
    ("sl2", "full", "GF(5)"): ((0, 0, 0, 0), ()),
    ("sl2, zero twist", "zero", "Q"): ((0, 6, 6, 0), ()),
    ("sl2, zero twist", "zero", "GF(1000003)"): ((0, 6, 6, 0), ()),
    ("sl2, zero twist", "zero", "GF(3)"): ((0, 6, 6, 0), ()),
    ("sl2, zero twist", "zero", "GF(5)"): ((0, 6, 6, 0), ()),
    ("sl2, zero twist", "full", "Q"): ((6, 6, 0, 0), FIRST_TERM),
    ("sl2, zero twist", "full", "GF(1000003)"): ((6, 6, 0, 0), FIRST_TERM),
    ("sl2, zero twist", "full", "GF(3)"): ((6, 6, 0, 0), FIRST_TERM),
    ("sl2, zero twist", "full", "GF(5)"): ((6, 6, 0, 0), FIRST_TERM),
    ("sl2 x (V2 + V2)", "zero", "Q"): ((0, 3, 3, 0), ()),
    ("sl2 x (V2 + V2)", "zero", "GF(1000003)"): ((0, 3, 3, 0), ()),
    ("sl2 x (V2 + V2)", "zero", "GF(3)"): ((0, 7, 7, 0), ()),
    ("sl2 x (V2 + V2)", "zero", "GF(5)"): ((0, 3, 3, 0), ()),
    ("sl2 x (V2 + V2)", "full", "Q"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2)", "full", "GF(1000003)"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2)", "full", "GF(3)"): ((7, 7, 0, 0), ()),
    ("sl2 x (V2 + V2)", "full", "GF(5)"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2)", "V", "Q"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2)", "V", "GF(1000003)"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2)", "V", "GF(3)"): ((7, 7, 0, 0), ()),
    ("sl2 x (V2 + V2)", "V", "GF(5)"): ((3, 3, 0, 0), ()),
    ("sl2 x (V2 + V2), zero twist", "zero", "Q"): ((0, 42, 42, 0), ()),
    ("sl2 x (V2 + V2), zero twist", "zero", "GF(1000003)"): ((0, 42, 42, 0), ()),
    ("sl2 x (V2 + V2), zero twist", "zero", "GF(3)"): ((0, 42, 42, 0), ()),
    ("sl2 x (V2 + V2), zero twist", "zero", "GF(5)"): ((0, 42, 42, 0), ()),
    ("sl2 x (V2 + V2), zero twist", "full", "Q"): ((42, 42, 0, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "full", "GF(1000003)"): ((42, 42, 0, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "full", "GF(3)"): ((42, 42, 0, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "full", "GF(5)"): ((42, 42, 0, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "V", "Q"): ((36, 42, 6, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "V", "GF(1000003)"): ((36, 42, 6, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "V", "GF(3)"): ((36, 42, 6, 0), FIRST_TERM),
    ("sl2 x (V2 + V2), zero twist", "V", "GF(5)"): ((36, 42, 6, 0), FIRST_TERM),
    ("K", "kernel", "Q"): ((0, 0, 3, 3), ()),
    ("K", "kernel", "GF(1000003)"): ((0, 0, 3, 3), ()),
    ("K", "kernel", "GF(3)"): ((0, 0, 7, 7), ()),
    ("K", "kernel", "GF(5)"): ((0, 0, 3, 3), ()),
}

# (algebra, field): dims in SEQUENCE_DIMS' order; every check passes.
SEQUENCE_PINS = {
    ("ut", "Q"): (1, 1, 0, 1, 1, 0, 0, 0, 0),
    ("ut", "GF(1000003)"): (1, 1, 0, 1, 1, 0, 0, 0, 0),
    ("ut", "GF(3)"): (1, 1, 0, 1, 1, 0, 0, 0, 0),
    ("ut", "GF(5)"): (1, 1, 0, 1, 1, 0, 0, 0, 0),
    ("gl2", "Q"): (3, 3, 0, 3, 3, 0, 0, 0, 0),
    ("gl2", "GF(1000003)"): (3, 3, 0, 3, 3, 0, 0, 0, 0),
    ("gl2", "GF(3)"): (3, 3, 0, 3, 3, 0, 0, 0, 0),
    ("gl2", "GF(5)"): (3, 3, 0, 3, 3, 0, 0, 0, 0),
    ("dual numbers", "Q"): (1, 0, 1, 4, 0, 4, 0, 4, 0),
    ("dual numbers", "GF(1000003)"): (1, 0, 1, 4, 0, 4, 0, 4, 0),
    ("dual numbers", "GF(3)"): (1, 0, 1, 4, 0, 4, 0, 4, 0),
    ("dual numbers", "GF(5)"): (1, 0, 1, 4, 0, 4, 0, 4, 0),
    ("exterior", "Q"): (5, 1, 4, 23, 6, 24, 1, 21, 6),
    ("exterior", "GF(1000003)"): (5, 1, 4, 23, 6, 24, 1, 21, 6),
    ("exterior", "GF(3)"): (5, 1, 4, 23, 6, 24, 1, 21, 6),
    ("exterior", "GF(5)"): (5, 1, 4, 23, 6, 24, 1, 21, 6),
}


@pytest.mark.parametrize("algebra, ideal, field", list(SIX_TERM_PINS))
def test_six_term_report(algebra, ideal, field):
    rep = six_term_check(*_six_term_instance(algebra, ideal, FIELDS[field]))
    dims, failed = SIX_TERM_PINS[algebra, ideal, field]
    assert tuple(i.name for i in rep.items) == SIX_TERM_CHECKS
    assert list(rep.dims.items()) == list(zip(SIX_TERM_DIMS, dims))
    assert tuple(i.name for i in rep.failures()) == failed


@pytest.mark.parametrize("algebra, field", list(SEQUENCE_PINS))
def test_sequence_report(algebra, field):
    rep = sequence_check(hochschild_module(_sequence_algebra(FIELDS[field], algebra)))
    assert tuple(i.name for i in rep.items) == SEQUENCE_CHECKS
    assert list(rep.dims.items()) == list(zip(SEQUENCE_DIMS, SEQUENCE_PINS[algebra, field]))
    assert rep.ok
