"""The library's value classes are plain classes: a command line call
imports neither ``dataclasses`` nor ``inspect``; where a class compares,
equal values compare and hash equal and a value that differs in any one
field does not; an immutable class refuses to assign or delete a field;
the report classes stay mutable; a cached property is computed once."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from homleib import cli
from homleib.actions import HomAction, MutualActions, SemidirectProduct, self_action, semidirect
from homleib.algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle, Predicates, predicates
from homleib.documents import (
    ActionDocument,
    AlgebraDocument,
    parse_action_document,
    parse_algebra_document,
    serialize_algebra,
)
from homleib.extensions import (
    AlphaUniversalCentralExtension,
    Extension,
    UniversalCentralExtension,
    universal_alpha_central_extension,
    universal_central_extension,
)
from homleib.fields import Field
from homleib.generators import sl2
from homleib.homassoc import (
    FirstHomologies,
    HochschildModule,
    HomAssociativeAlgebra,
    first_homologies,
    hochschild_module,
)
from homleib.homology import ChainComplex, CoRepresentation, adjoint_corep
from homleib.linalg import Matrix, QuotientSpace, Subspace
from homleib.report import CheckItem, ExactnessReport, ValidationReport, Violation
from homleib.tensorprod import IdealSequenceData, TensorProduct, build_tensor, ideal_sequence_certificate

from homleib_testkit import FIELDS

QQ = Field()
GFP = Field(1000003)


def _dual_numbers(f: Field) -> HomAssociativeAlgebra:
    return HomAssociativeAlgebra.from_products(f, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})


def _zero_ideal_sequence():
    L = sl2(QQ)
    return ideal_sequence_certificate(L, IdealHandle(L, Subspace.zero(QQ, L.dim)))


def _chain_complex():
    L = sl2(QQ)
    return ChainComplex(L, adjoint_corep(L))


def _identity_extension():
    L = sl2(QQ)
    return Extension.from_projection(AlgebraHom(L, L, Matrix.identity(QQ, L.dim)))


def _action_document():
    doc = serialize_algebra(sl2(QQ))
    return parse_action_document({"actor": doc, "target": doc, "left": [], "right": []}, Path("."))


# each class with a function that builds a new instance of it, equal in value
# to every other instance the function builds
EXAMPLES = {
    Field: lambda: Field(1000003),
    Matrix: lambda: Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 3]]),
    Subspace: lambda: Subspace.span(QQ, 3, [(1, 2, 0), (0, 1, 3)]),
    QuotientSpace: lambda: QuotientSpace(Subspace.span(QQ, 3, [(1, 2, 0)])),
    Violation: lambda: Violation("law", ("e", "f"), "detail"),
    ValidationReport: lambda: ValidationReport("subject"),
    CheckItem: lambda: CheckItem("check", True),
    ExactnessReport: lambda: ExactnessReport("subject"),
    HomLeibnizAlgebra: lambda: sl2(QQ),
    AlgebraHom: lambda: AlgebraHom(sl2(QQ), sl2(QQ), Matrix.identity(QQ, 3)),
    IdealHandle: lambda: IdealHandle(sl2(QQ), Subspace.zero(QQ, 3)),
    HomAction: lambda: self_action(sl2(QQ)),
    MutualActions: lambda: MutualActions.adjoint(sl2(QQ)),
    Predicates: lambda: predicates(sl2(QQ)),
    SemidirectProduct: lambda: semidirect(self_action(sl2(QQ))),
    TensorProduct: lambda: build_tensor(MutualActions.adjoint(sl2(QQ))),
    IdealSequenceData: _zero_ideal_sequence,
    CoRepresentation: lambda: adjoint_corep(sl2(QQ)),
    ChainComplex: _chain_complex,
    Extension: _identity_extension,
    UniversalCentralExtension: lambda: universal_central_extension(sl2(QQ)),
    AlphaUniversalCentralExtension: lambda: universal_alpha_central_extension(sl2(QQ)),
    HomAssociativeAlgebra: lambda: _dual_numbers(QQ),
    HochschildModule: lambda: hochschild_module(_dual_numbers(QQ)),
    FirstHomologies: lambda: first_homologies(hochschild_module(_dual_numbers(QQ))),
    AlgebraDocument: lambda: parse_algebra_document(serialize_algebra(sl2(QQ))),
    ActionDocument: _action_document,
}

# for each class that compares, a value that differs from its example in every field
OTHERS = {
    Field: lambda: QQ,
    Matrix: lambda: Matrix.from_rows(GFP, [[1, 1], [0, 2], [5, 0]]),
    Subspace: lambda: Subspace.span(GFP, 4, [(0, 0, 1, 1)]),
    HomLeibnizAlgebra: lambda: HomLeibnizAlgebra.abelian(GFP, 2),
    HomAction: lambda: self_action(HomLeibnizAlgebra.abelian(GFP, 2)),
    MutualActions: lambda: MutualActions.adjoint(HomLeibnizAlgebra.abelian(GFP, 2)),
    HomAssociativeAlgebra: lambda: HomAssociativeAlgebra.from_products(GFP, 1, {(0, 0): {0: 1}}, labels=("u",)),
    Violation: lambda: Violation("other law", ("h",)),
}
MUTABLE = (Violation, ValidationReport, CheckItem, ExactnessReport)
CACHED = [(cls, name) for cls in EXAMPLES for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def _ids(cls):
    return cls.__name__


def test_every_value_class_has_an_example():
    assert set(EXAMPLES) == set(FIELDS) and len(FIELDS) == 27
    assert all(type(build()) is cls for cls, build in EXAMPLES.items())


def test_a_command_line_call_imports_neither_dataclasses_nor_inspect():
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys, homleib.cli; print(sorted(sys.modules))"],
                          capture_output=True, text=True, env=env, check=True)
    loaded = ast.literal_eval(done.stdout)
    assert "homleib.cli" in loaded
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []


@pytest.mark.parametrize("cls", list(OTHERS), ids=_ids)
def test_equal_values_compare_and_hash_equal(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a is not b and a == b and not a != b
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", list(OTHERS), ids=_ids)
def test_a_value_that_differs_in_one_field_compares_unequal(cls):
    a, other = EXAMPLES[cls](), OTHERS[cls]()
    for name in FIELDS[cls]:
        assert getattr(a, name) != getattr(other, name), name
        b = object.__new__(cls)
        for field in FIELDS[cls]:
            object.__setattr__(b, field, getattr(other if field == name else a, field))
        assert a != b and not a == b, name


@pytest.mark.parametrize("cls", [cls for cls in EXAMPLES if cls not in OTHERS], ids=_ids)
def test_other_classes_compare_by_identity(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a == a and a != b


@pytest.mark.parametrize("cls", [cls for cls in EXAMPLES if cls not in MUTABLE], ids=_ids)
def test_immutable_classes_refuse_assignment_and_deletion(cls):
    a = EXAMPLES[cls]()
    for name in FIELDS[cls]:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.unknown = 1


@pytest.mark.parametrize("cls", MUTABLE, ids=_ids)
def test_report_classes_stay_mutable(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    for name in FIELDS[cls]:
        setattr(a, name, getattr(b, name))
        assert getattr(a, name) is getattr(b, name)


@pytest.mark.parametrize("cls", [ValidationReport, ExactnessReport], ids=_ids)
def test_each_report_starts_with_its_own_empty_containers(cls):
    a, b = cls("subject"), cls("subject")
    for name in FIELDS[cls][1:]:
        assert getattr(a, name) in ([], {}) and getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("cls, name", CACHED, ids=[f"{cls.__name__}.{name}" for cls, name in CACHED])
def test_cached_properties_cache(cls, name):
    a = EXAMPLES[cls]()
    first = getattr(a, name)
    assert vars(a)[name] is first and getattr(a, name) is first
