from __future__ import annotations

import ast
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from homleib.cli import main
from homleib.errors import SemanticError
from homleib.documents import parse_field
from homleib.fields import PRIME_BOUND, Field, _is_prime

QQ = Field()


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(5000) if _is_prime(n)] == \
            [n for n in range(5000) if trial_division(n)]

    def test_mersenne_61_accepted_fast(self):
        start = time.perf_counter()
        field = parse_field({"Fp": 2 ** 61 - 1}, "field")
        assert time.perf_counter() - start < 1
        assert field.p == 2 ** 61 - 1

    @pytest.mark.parametrize("n", [561, 3215031751, 318665857834031151167461])
    def test_pseudoprimes_rejected(self, n):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # the bases 2, 3, 5 and 7; the last one to every prime base up to 37
        assert not _is_prime(n)
        with pytest.raises(SemanticError):
            parse_field({"Fp": n}, "field")

    def test_bound_is_where_the_witnesses_fail(self):
        # the bound is composite yet passes every base up to 41: below it
        # the test is exact, so it is refused by size rather than judged
        assert 1287836182261 * 2575672364521 == PRIME_BOUND
        assert _is_prime(PRIME_BOUND)
        with pytest.raises(ValueError):
            Field(PRIME_BOUND)

    def test_over_bound_prime_exits_two(self, tmp_path, capsys):
        p = 2 ** 89 - 1  # a Mersenne prime above the bound
        assert p > PRIME_BOUND
        with pytest.raises(ValueError):
            Field(p)
        doc = {"field": {"Fp": p}, "kind": "hom-leibniz", "dim": 1,
               "basis": ["e1"], "bracket": [], "alpha": [["1"]]}
        path = tmp_path / "big.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "below" in capsys.readouterr().err


def q_operands():
    """Rationals as a caller may hand them over: an int, an integral
    ``Fraction`` or a proper one."""
    small = st.integers(-50, 50)
    return st.one_of(small, small.map(Fraction),
                     st.builds(Fraction, small, st.integers(1, 12)))


def assert_canonical(x, expected):
    assert type(x) in (int, Fraction)  # never a float or a bool
    assert x == expected
    assert isinstance(x, int) == (Fraction(expected).denominator == 1)


class TestRationalScalars:
    @given(q_operands(), q_operands())
    def test_ops_match_fraction_reference(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        assert_canonical(QQ.add(a, b), fa + fb)
        assert_canonical(QQ.sub(a, b), fa - fb)
        assert_canonical(QQ.mul(a, b), fa * fb)
        assert_canonical(QQ.neg(a), -fa)
        if fb:
            assert_canonical(QQ.div(a, b), fa / fb)
            assert_canonical(QQ.inv(b), 1 / fb)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.div(a, b)

    @given(st.integers(-50, 50), st.integers(-12, 12))
    def test_parse_matches_fraction_reference(self, num, den):
        assert_canonical(QQ.parse(str(num)), Fraction(num))
        assert_canonical(QQ.parse(num), Fraction(num))
        if den:
            assert_canonical(QQ.parse(f"{num}/{den}"), Fraction(num, den))
            assert QQ.to_str(QQ.parse(f"{num}/{den}")) == str(Fraction(num, den))

    def test_canonical_forms(self):
        assert_canonical(QQ.parse("6/3"), 2)
        assert_canonical(QQ.div(1, 2), Fraction(1, 2))
        assert_canonical(QQ.div(4, 2), 2)
        assert_canonical(QQ.mul(Fraction(1, 2), 2), 1)
        assert_canonical(QQ.from_int(True), 1)
        assert_canonical(QQ.add(True, True), 2)
        for x in (QQ.zero(), QQ.one(), QQ.from_int(-7)):
            assert type(x) is int


def _sites(tree, hit):
    """(enclosing function, line) of every node of a module matching ``hit``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if hit(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def _library_sites(hit):
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    return [f"{path.stem}:{scope}:{line}"
            for path in sorted(src.glob("*.py"))
            for scope, line in _sites(ast.parse(path.read_text(encoding="utf-8")), hit)]


def _is_division(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)


def _calls_boundary_column(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "boundary_column"


def test_true_division_only_in_field_div_and_path_join():
    # over Q an integral scalar is an int, so a stray int / int would turn
    # it into a float; the only scalar division is Field.div
    found = _library_sites(_is_division)
    assert [site.rsplit(":", 1)[0] for site in found] == \
        ["documents:_resolve", "fields:Field.div"], found


def test_boundary_columns_built_only_by_the_chain_complex():
    # every consumer of the boundary reads ChainComplex's cached columns, so
    # no other code loops over the chain basis building them again
    found = _library_sites(_calls_boundary_column)
    assert [site.rsplit(":", 1)[0] for site in found] == ["homology:ChainComplex.columns"], found


def _reads_relation_basis(node):
    # ``<...>.relations.basis`` or ``relations.basis``
    if not (isinstance(node, ast.Attribute) and node.attr == "basis"):
        return False
    value = node.value
    name = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
    return name == "relations"


def test_relation_rows_read_only_by_the_descent_certificates():
    # every map out of a presentation is ``induced_map``, the one place that
    # certifies a map carries the relations into the target's relations;
    # ``certified_quotient`` keeps its bracket sweep over the relation rows
    found = _library_sites(_reads_relation_basis)
    assert [site.rsplit(":", 1)[0] for site in found] == \
        ["algebras:certified_quotient", "linalg:induced_map"], found


def _calls_record(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "record"


DENSE_KERNELS = ("vec_sub", "contract", "bracket", "act_left", "act_right", "product", "apply_twist")


def _names_dense_kernel(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return isinstance(node, (ast.Name, ast.Attribute)) and name in DENSE_KERNELS


def test_violations_recorded_only_by_the_identity_checker():
    # every validator states its laws for linalg.check_laws, the one place
    # that decides a law instance fails and records it
    found = _library_sites(_calls_record)
    assert [site.rsplit(":", 1)[0] for site in found] == ["linalg:check_laws"], found


def test_validators_hold_no_dense_loops():
    # a validator reads the cached sparse tables; a dense difference or a
    # dense bracket, action, product or twist in its body is a hand-rolled
    # loop beside the checker (``_report`` is the cached body of a validate)
    found = [site for site in _library_sites(_names_dense_kernel)
             if {"validate", "_report", "check_compatible"} & set(site.split(":")[1].split("."))]
    assert found == []


LAW_BODIES = ("validate", "_report", "check_compatible", "_compatibility_laws")


def test_laws_are_data():
    # a validator states its laws as data for linalg.check_laws, which
    # derives each law's support and evaluates its terms from the same data:
    # no law body defines a function or evaluates a term itself, and no
    # module names an index set of its own
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for body in ast.walk(tree):
            if not (isinstance(body, ast.FunctionDef) and body.name in LAW_BODIES):
                continue
            for node in ast.walk(body):
                if node is not body and isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    found.append(f"{path.stem}:{body.name}:defines:{node.lineno}")
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and (getattr(func, "id", None) or getattr(func, "attr", None)) in \
                        ("bilinear", "linear"):
                    found.append(f"{path.stem}:{body.name}:evaluates:{node.lineno}")
        if path.stem != "linalg":
            found += [f"{path.stem}:names:{node.lineno}" for node in ast.walk(tree)
                      if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
                      & {"grid", "support"}]
    assert found == [], found


WRAPPER_NAMES = ("LinearMap", "twist_map", "domain_dim", "codomain_dim")


def _names_wrapper(node):
    names = (getattr(node, attr, None) for attr in ("id", "attr", "name", "arg"))
    return any(name in WRAPPER_NAMES for name in names)


def test_one_linear_map_type():
    # a Matrix is the one linear-map type and its shape the only record of a
    # map's domain and codomain: no module wraps it or states the shape again
    found = _library_sites(_names_wrapper)
    assert found == [], found


RELATION_FAMILIES = ("relation_vectors", "milnor_relations", "_presented_alpha_uce")


def test_relation_families_are_law_data():
    # the tensor, Milnor and alpha-presentation relations are stated as data
    # for linalg.law_rows, which decides by check_laws' own support rule
    # which instances can be nonzero: no family loops over basis tuples
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    seen, found = set(), []
    for path in sorted(src.glob("*.py")):
        for body in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(body, ast.FunctionDef) and body.name in RELATION_FAMILIES:
                seen.add(body.name)
                found += [f"{path.stem}:{body.name}:{node.lineno}" for node in ast.walk(body)
                          if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert seen == set(RELATION_FAMILIES)
    assert found == [], found
