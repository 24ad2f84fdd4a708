"""The library's value classes are plain classes: a command line call
imports neither ``dataclasses`` nor ``inspect``; each class's annotations
name its slot fields, in order; the generic constructor sets them from
positional or keyword values alike and refuses a missing, extra or unknown
one as a written-out ``__init__`` would; where a class compares, equal
values compare and hash equal and a value that differs in any one field
does not; an immutable class refuses to assign or delete a field; the
report classes stay mutable; a cached property is computed once."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import homleib
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
from homleib.values import Frozen, Value

from homleib_testkit import fields, replace

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
IMMUTABLE = [cls for cls in EXAMPLES if cls not in MUTABLE]
# the classes ``replace`` serves: each constructor takes exactly the fields
REPLACEABLE = [cls for cls in EXAMPLES
               if cls not in (Matrix, HomLeibnizAlgebra, HomAssociativeAlgebra, QuotientSpace, ChainComplex)]
CACHED = [(cls, name) for cls in EXAMPLES for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def _ids(cls):
    return cls.__name__


def _library_classes() -> set:
    """Every ``Frozen`` class of the library, each module imported, and the
    four report classes."""
    for module in pkgutil.iter_modules(homleib.__path__):
        importlib.import_module(f"homleib.{module.name}")
    found, todo = set(MUTABLE), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("homleib.") and cls is not Value:
                found.add(cls)
    return found


def test_every_value_class_has_an_example():
    assert set(EXAMPLES) == _library_classes()
    assert all(type(build()) is cls for cls, build in EXAMPLES.items())


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=_ids)
def test_annotations_name_the_slot_fields(cls):
    # the annotations state each class's fields a second time, apart from
    # the ``__slots__`` the constructor and the comparison read
    assert tuple(vars(cls)["__annotations__"]) == fields(EXAMPLES[cls]())


def _built(cls, *values, **named):
    # a new instance of ``cls`` with its fields set by the generic constructor
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values, **named)
    return obj


def _written_out(cls):
    # the ``__init__`` that ``cls`` would write out to take its fields, its
    # body empty: Python's own refusals of a bad call, to compare with
    scope = {}
    exec(f"def __init__(self, {', '.join(cls._fields)}): pass", scope)
    scope["__init__"].__qualname__ = f"{cls.__name__}.__init__"
    return scope["__init__"]


@pytest.mark.parametrize("cls", IMMUTABLE, ids=_ids)
def test_positional_and_keyword_builds_agree(cls):
    a = EXAMPLES[cls]()
    names = fields(a)
    values = [getattr(a, name) for name in names]
    assert cls._fields == names
    for b in (_built(cls, *values), _built(cls, **dict(zip(names, values))),
              _built(cls, *values[:1], **dict(reversed(list(zip(names[1:], values[1:])))))):
        assert all(getattr(b, name) is value for name, value in zip(names, values))


@pytest.mark.parametrize("cls", IMMUTABLE, ids=_ids)
def test_a_bad_call_is_refused_as_a_written_out_init_refuses_it(cls):
    names, init = cls._fields, _written_out(cls)
    values = list(range(len(names)))
    calls = [(values[:-1], {}), ([], {}), ([], dict(zip(names[2:], values[2:]))), (values + [0], {}),
             (values, {"unknown": 0}), (values, {names[-1]: 0}), (values[:-1], {"unknown": 0, names[0]: 0})]
    for args, named in calls:
        with pytest.raises(TypeError) as expected:
            init(None, *args, **named)
        with pytest.raises(TypeError) as refused:
            _built(cls, *args, **named)
        assert str(refused.value) == str(expected.value)
        assert str(refused.value).startswith(f"{cls.__name__}.__init__() ")


@pytest.mark.parametrize("cls", REPLACEABLE, ids=_ids)
def test_replace_round_trips(cls):
    a = EXAMPLES[cls]()
    b = replace(a)
    assert type(b) is cls and b is not a
    assert all(getattr(b, name) is getattr(a, name) for name in fields(a))


def test_the_library_generates_no_code():
    # a class's methods are written in its module, none compiled at import:
    # generated code is what made dataclasses cost every call its set-up
    src = Path(homleib.__file__).parent
    found = [f"{path.stem}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval", "compile")]
    assert found == [], found


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
    for name in fields(a):
        assert getattr(a, name) != getattr(other, name), name
        b = object.__new__(cls)
        for field in fields(a):
            object.__setattr__(b, field, getattr(other if field == name else a, field))
        assert a != b and not a == b, name


@pytest.mark.parametrize("cls", [cls for cls in EXAMPLES if cls not in OTHERS], ids=_ids)
def test_other_classes_compare_by_identity(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a == a and a != b


@pytest.mark.parametrize("cls", IMMUTABLE, ids=_ids)
def test_immutable_classes_refuse_assignment_and_deletion(cls):
    a = EXAMPLES[cls]()
    for name in fields(a):
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
    for name in fields(a):
        setattr(a, name, getattr(b, name))
        assert getattr(a, name) is getattr(b, name)


@pytest.mark.parametrize("cls", [ValidationReport, ExactnessReport], ids=_ids)
def test_each_report_starts_with_its_own_empty_containers(cls):
    a, b = cls("subject"), cls("subject")
    for name in fields(a)[1:]:
        assert getattr(a, name) in ([], {}) and getattr(a, name) is not getattr(b, name), name


def _is_cached_property(node) -> bool:
    # ``cached_property`` named alone or as an attribute, as a decorator or called
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "cached_property"


def _cached_in_source() -> set:
    """(class, attribute) of every cached attribute written in the library's
    class bodies, read from the source: a method decorated with
    ``cached_property`` or a name assigned a ``cached_property(...)`` call."""
    found = set()
    for path in sorted(Path(homleib.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, ast.FunctionDef) and any(map(_is_cached_property, stmt.decorator_list)):
                    found.add((cls.name, stmt.name))
                elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call) and \
                        _is_cached_property(stmt.value.func):
                    found.update((cls.name, t.id) for t in stmt.targets)
    return found


def test_every_cached_attribute_is_tested():
    # CACHED finds the cached attributes by type: one of another type would
    # drop out of the test below unseen, so the source counts them again
    assert {(cls.__name__, name) for cls, name in CACHED} == _cached_in_source()
    assert CACHED


class _Refusing:
    # a lock that fails the test when it is taken
    def __enter__(self):
        raise AssertionError("a first read took the lock")

    def __exit__(self, *exc):
        return False


def test_a_first_read_takes_no_lock(monkeypatch):
    # Python 3.11's ``functools.cached_property`` takes its lock on every
    # first read; the library's cached attributes compute and store at once
    for cls, name in CACHED:
        monkeypatch.setattr(vars(cls)[name], "lock", _Refusing(), raising=False)
    for cls, name in CACHED:
        a = EXAMPLES[cls]()
        assert getattr(a, name) is vars(a)[name]


@pytest.mark.parametrize("cls, name", CACHED, ids=[f"{cls.__name__}.{name}" for cls, name in CACHED])
def test_cached_properties_cache(cls, name):
    a = EXAMPLES[cls]()
    first = getattr(a, name)
    assert vars(a)[name] is first and getattr(a, name) is first
