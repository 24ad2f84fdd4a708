from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
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

    @given(q_operands(), q_operands(), q_operands())
    def test_canon_of_a_native_sum_of_products(self, a, b, c):
        # Python's own a * b + c, canonical once at the end, is the field's
        assert_canonical(QQ.canon(a * b + c), QQ.add(QQ.mul(a, b), c))
        gf = Field(1000003)
        x, y, z = (gf.from_int(int(Fraction(v).numerator)) for v in (a, b, c))
        assert gf.canon(x * y - z) == gf.sub(gf.mul(x, y), z)


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


def _builds_boundary_terms(node):
    # a call of the outer-product sum that forms columns and fronts, or of
    # the steps that form the fronts
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in ("_outer_sum", "_fronts", "_longer_fronts")


def test_true_division_only_in_field_div_and_path_join():
    # over Q an integral scalar is an int, so a stray int / int would turn
    # it into a float; the only scalar division is Field.div
    found = _library_sites(_is_division)
    assert [site.rsplit(":", 1)[0] for site in found] == \
        ["documents:_resolve", "fields:Field.div"], found


def test_boundary_columns_built_only_by_the_chain_complex():
    # every consumer of the boundary reads ChainComplex's cached columns, so
    # no other code loops over the chain basis building them again; the
    # fronts' T and B are formed only for those columns
    found = _library_sites(_builds_boundary_terms)
    assert sorted(site.rsplit(":", 1)[0] for site in found) == \
        ["homology:ChainComplex._integral", "homology:ChainComplex._integral", "homology:_fronts",
         "homology:_longer_fronts", "homology:_longer_fronts"], found


FRACTION_NAMES = ("Fraction", "fractions", "numerator", "denominator")


def _names_fractions(node):
    # a name, an attribute or an import of the rationals' own type
    if isinstance(node, ast.Name):
        return node.id in FRACTION_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FRACTION_NAMES
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in FRACTION_NAMES for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in FRACTION_NAMES or any(alias.name in FRACTION_NAMES for alias in node.names)
    return False


def test_fractions_only_in_fields():
    # a rational is handled only through its Field: the elimination over Q
    # clears denominators with Field.clearing and divides with Field.div,
    # so no other module names Fraction or reads a denominator (docstrings,
    # being strings, are left aside)
    probe = ast.parse("import fractions\nfrom fractions import Fraction\nx.denominator\ny = numerator\n'Fraction'")
    assert len(_sites(probe, _names_fractions)) == 4
    found = [site for site in _library_sites(_names_fractions) if not site.startswith("fields:")]
    assert found == [], found


def _reads_relation_rows(node):
    # ``<...>.relations.sparse_rows`` or ``relations.basis``, in either form
    if not (isinstance(node, ast.Attribute) and node.attr in ("sparse_rows", "basis")):
        return False
    value = node.value
    name = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
    return name == "relations"


def test_relation_rows_read_only_by_the_descent_certificates():
    # every map out of a presentation is ``induced_map``, the one place that
    # certifies a map carries the relations into the target's relations;
    # ``certified_quotient`` keeps its bracket sweep over the relation rows
    found = _library_sites(_reads_relation_rows)
    assert [site.rsplit(":", 1)[0] for site in found] == \
        ["algebras:certified_quotient", "linalg:induced_map"], found


ROW_STORES = ("rows", "_stored")


def _assigns_rows(node):
    # ``x.rows`` or ``x._stored`` as an assignment target, alone or in a
    # tuple, or set by name through ``setattr`` or an instance ``__dict__``
    if isinstance(node, ast.Call):
        args = node.args[1:2] if getattr(node.func, "id", getattr(node.func, "attr", None)) in \
            ("setattr", "__setattr__") else []
        return any(isinstance(a, ast.Constant) and a.value in ROW_STORES for a in args)
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "attr", None) == "__dict__" and \
            isinstance(node.slice, ast.Constant) and node.slice.value in ROW_STORES
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return False
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    flat = [t for target in targets for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
    return any(isinstance(t, ast.Attribute) and t.attr in ROW_STORES for t in flat)


def test_accumulator_rows_assigned_only_inside_the_accumulator():
    # the accumulator's stored rows are assigned only by its own methods: a
    # subspace hands its stored rows over through ``_holding``, and no
    # ``rows`` setter loads an RREF from outside
    probe = ast.parse("a._stored = {}\na.x, a.rows = 1, {}\nsetattr(a, '_stored', {})\n"
                      "a.__dict__['_stored'] = {}\nobject.__setattr__(a, 'rows', {})\na.rows[0] = {}")
    assert len(_sites(probe, _assigns_rows)) == 5
    found = [site.rsplit(":", 1)[0] for site in _library_sites(_assigns_rows)]
    assert found == ["linalg:RrefAccumulator.__init__", "linalg:RrefAccumulator._holding"], found


def _uses(name):
    # ``name`` read as a name or an attribute: a call and an alias alike
    return lambda node: isinstance(node, ast.Name) and node.id == name or \
        isinstance(node, ast.Attribute) and node.attr == name


def test_one_reduction_for_the_accumulator_and_the_subspace():
    # ``_reduce`` is the one reduction of a vector by stored rows: the
    # accumulator's ``add`` and the subspace's ``residue`` run it, it is the
    # one user of ``_axpy`` besides the back-substitution, and a subspace
    # subtracts no scalars of its own
    def users(name):
        return sorted(site.rsplit(":", 1)[0] for site in _library_sites(_uses(name)))

    assert users("_axpy") == ["linalg:_back", "linalg:_reduce"]
    assert users("_reduce") == ["linalg:RrefAccumulator.add", "linalg:Subspace.residue"]
    found = [site for site in _library_sites(_uses("sub")) if site.split(":")[1].split(".")[0] == "Subspace"]
    assert found == [], found


def test_matrix_eliminates_once():
    # a Matrix eliminates once, in _factor, the RREF of its columns beside
    # the identity: its rank, image, kernel and preimages all read that
    # factor, so no other method of Matrix starts an accumulator or spans
    found = [site.rsplit(":", 1)[0] for site in _library_sites(_names(("RrefAccumulator", "span_sparse", "span")))
             if site.split(":")[1].split(".")[0] == "Matrix"]
    assert found == ["linalg:Matrix._factor"], found


def _compares_image_with_kernel(node):
    # ``<...>.image() == <...>.kernel()``, in either order, or with !=
    def called(side, name):
        return isinstance(side, ast.Call) and getattr(side.func, "attr", None) == name

    return isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.NotEq)) \
        and {called(side, "image") + 2 * called(side, "kernel") for side in (node.left, *node.comparators)} == {1, 2}


def test_row_exactness_only_by_exact():
    # im f = ker g is decided by linalg.exact, a composite and a rank
    # count, which forms no kernel basis: no module compares an image with
    # a kernel as subspaces
    found = _library_sites(_compares_image_with_kernel)
    assert found == [], found

SPARSE_PRESENTATION = ("certified_quotient", "induced_map", "build_tensor", "relation_span", "present_tensor",
                       "permuted", "_ambient_map", "outer_action",
                       "action_on_quotient", "induced_action", "degree_one_trivial_closed_form")


def _dense_presentation_step(node):
    # a dense pure tensor, or a dense projection or membership test
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("project", "contains"):
        return True
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "outer"


def test_presentation_builders_stay_sparse():
    # the descent certificate, the certified quotient and the tensor
    # ambient maps reduce, project and tensor sparse vectors only, through
    # Subspace.residue; a dense vector is formed only as a failure's witness
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    defined = {node.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert set(SPARSE_PRESENTATION) <= defined
    found = [site for site in _library_sites(_dense_presentation_step)
             if set(site.split(":")[1].split(".")) & set(SPARSE_PRESENTATION)]
    assert found == [], found


DENSE_TWINS = ("sparse_columns", "sparse_twist", "basis_matrix", "lift", "sparse_of", "commutator_vec",
               "from_sparse_columns", "outer")


def _fields(scopes, name):
    cls = next(node for node in scopes if getattr(node, "name", None) == name)
    return {node.target.id: ast.unparse(node.annotation) for node in cls.body if isinstance(node, ast.AnnAssign)}


def test_dense_twins_are_gone():
    # a subspace holds only its sparse RREF rows, built by the accumulator's
    # ``subspace()``; a map holds only its sparse columns, built by
    # ``Matrix.from_columns``; an algebra, action or co-representation holds only its
    # sparse tables: no alias, cached twin, dense basis builder, dense lift,
    # dense-to-sparse table conversion, dense commutator, second sparse
    # constructor or dense pure tensor is defined
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    found, fields = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # every function and class, and every module or class attribute
        scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        defined = [(node.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined += [(t.id, node.lineno) for scope in scopes for node in scope.body
                    for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
        found += [f"{path.stem}:{name}:{line}" for name, line in defined if name in DENSE_TWINS]
        for stem, name in (("linalg", "Matrix"), ("linalg", "Subspace"), ("actions", "HomAction"),
                           ("homology", "CoRepresentation"), ("algebras", "HomLeibnizAlgebra"),
                           ("homassoc", "HomAssociativeAlgebra")):
            if path.stem == stem:
                fields[name] = _fields(scopes, name)
    assert found == [], found
    assert fields == {
        "Matrix": {"field": "Field", "rows": "int", "cols": "int", "sparse_cols": "tuple"},
        "Subspace": {"field": "Field", "ambient_dim": "int", "sparse_rows": "tuple"},
        "HomAction": {"actor": "HomLeibnizAlgebra", "target": "HomLeibnizAlgebra",
                      "sparse_left": "tuple", "sparse_right": "tuple"},
        "CoRepresentation": {"algebra": "HomLeibnizAlgebra", "space_dim": "int", "twist": "Matrix",
                             "sparse_left": "tuple", "sparse_right": "tuple"},
        "HomLeibnizAlgebra": {"field": "Field", "dim": "int", "sparse_c": "tuple", "twist": "Matrix",
                              "labels": "tuple"},
        "HomAssociativeAlgebra": {"field": "Field", "dim": "int", "sparse_p": "tuple", "twist": "Matrix",
                                  "labels": "tuple"},
    }, fields


# where the library reads a field's prime, as (module:enclosing function or
# class, receiver): the field's own methods, and the places the elimination
# engine branches on the field, so that no second per-field step comes back
# unseen
FIELD_PRIME_READS = {("fields:Field", "self"), ("linalg:_reduce", "field"),
                     ("linalg:RrefAccumulator.add", "self.field")}


def test_library_reads_no_dense_algebra_table():
    # an algebra holds only its sparse table; its dense table ``c`` or ``p``
    # is a view for tests and benchmarks, so no module reads it, and the only
    # ``.p`` the library reads is a field's prime, where FIELD_PRIME_READS says
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    found = []
    for path in sorted(src.glob("*.py")):
        reads = []  # (receiver, attribute) of each hit, in the order _sites meets them

        def hit(node):
            if isinstance(node, ast.Attribute) and node.attr in ("c", "p"):
                reads.append((ast.unparse(node.value), node.attr))
                return True
            return False

        sites = _sites(ast.parse(path.read_text(encoding="utf-8")), hit)
        for (scope, line), (receiver, attr) in zip(sites, reads):
            where = f"{path.stem}:{scope}"
            if attr == "c" or not any(receiver == r and (where == w or where.startswith(w + "."))
                                      for w, r in FIELD_PRIME_READS):
                found.append(f"{where}:{receiver}.{attr}:{line}")
    assert found == [], found



DENSE_GRID_READERS = ("cli:cmd_info", "documents:serialize_algebra")


def _reads_entries(node):
    return isinstance(node, ast.Attribute) and node.attr == "entries"


def _reads_transposed_entries(node):
    return _reads_entries(node) and isinstance(node.value, ast.Call) and \
        getattr(node.value.func, "attr", None) == "transpose"


def test_dense_grid_read_only_at_the_edges():
    # a map is its sparse columns, so no module transposes a map to read its
    # columns densely; the dense grid of a map or a basis is read only to
    # print it (``info``, a document)
    assert _library_sites(_reads_transposed_entries) == []
    found = _library_sites(_reads_entries)
    assert sorted({site.rsplit(":", 1)[0] for site in found}) == sorted(DENSE_GRID_READERS), found

def _calls_record(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "record"


DENSE_KERNELS = ("vec_sub", "contract", "bracket", "act_left", "act_right", "product", "apply_twist")
DENSE_EDGES = ("actions:HomAction.act_left", "actions:HomAction.act_right", "algebras:HomLeibnizAlgebra.bracket",
               "homassoc:HomAssociativeAlgebra.product", "homology:CoRepresentation.act_left",
               "homology:CoRepresentation.act_right")


def _names_dense_kernel(node):
    # ``contract`` by name, the others as methods (``itertools.product`` is no kernel)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return isinstance(node, ast.Attribute) and name in DENSE_KERNELS or name == "contract"


def test_violations_recorded_only_by_the_identity_checker():
    # every validator states its laws for linalg.check_laws, the one place
    # that decides a law instance fails and records it
    found = _library_sites(_calls_record)
    assert [site.rsplit(":", 1)[0] for site in found] == ["linalg:check_laws"], found


def test_dense_kernels_only_at_the_edges():
    # a dense difference, bracket, action, product or twist is named only by
    # the dense edge methods themselves, each a ``contract``, the one dense
    # kernel, which is ``linear`` at a pure tensor: every library reader,
    # validators and certificates alike, reads the sparse tables
    found = _library_sites(_names_dense_kernel)
    assert sorted({site.rsplit(":", 1)[0] for site in found}) == sorted(DENSE_EDGES), found
    path = Path(__file__).resolve().parents[1] / "src" / "homleib" / "linalg.py"
    contract = next(node for node in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(node, ast.FunctionDef) and node.name == "contract")
    assert not [node for node in ast.walk(contract) if isinstance(node, (ast.For, ast.While, ast.comprehension))]


LAW_BODIES = ("validate", "_report", "check_compatible", "_compatibility_laws", "equivariance_witness",
              "tensor_identity_battery")


def test_laws_are_data():
    # a validator states its laws as data for linalg.check_laws, which
    # derives each law's support and evaluates its terms from the same data:
    # no law body defines a function or evaluates a term itself (by a
    # linear or bilinear map, or a map's ``apply``), and no module names an
    # index set of its own
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
                        ("bilinear", "linear", "apply"):
                    found.append(f"{path.stem}:{body.name}:evaluates:{node.lineno}")
        if path.stem != "linalg":
            found += [f"{path.stem}:names:{node.lineno}" for node in ast.walk(tree)
                      if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
                      & {"grid", "support"}]
    assert found == [], found


WRAPPER_NAMES = ("LinearMap", "twist_map", "domain_dim", "codomain_dim")
DENSE_BOUNDARY_NAMES = ("hochschild_boundary", "_boundary_shapes")


def _names(names):
    return lambda node: any(getattr(node, attr, None) in names for attr in ("id", "attr", "name", "arg"))


def test_one_linear_map_type():
    # a Matrix is the one linear-map type and its shape the only record of a
    # map's domain and codomain: no module wraps it or states the shape again
    found = _library_sites(_names(WRAPPER_NAMES))
    assert found == [], found


def test_no_dense_hochschild_boundary():
    # every reader of the degree-three boundary spans or tests the rows of
    # homassoc.boundary_rows: no module builds it as a dense map
    found = _library_sites(_names(DENSE_BOUNDARY_NAMES))
    assert found == [], found


CERTIFICATES = ("six_term_check", "sequence_check")


def test_certificates_take_their_cokernels_from_snake():
    # every cokernel the two exactness certificates certify is the one
    # linalg.snake forms from its column, the codomain modulo the column's
    # image: neither certificate builds a quotient space of its own
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    defined = {node.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert set(CERTIFICATES) <= defined
    found = [site for site in _library_sites(_names(("QuotientSpace",)))
             if site.split(":")[1].split(".")[0] in CERTIFICATES]
    assert found == [], found


BITMASK_ENGINE = ("_support", "_instances", "_evaluator", "_MASK_BITS")


def test_bitmask_law_engine_is_gone():
    # check_laws and law_rows share one engine that scatters each term from
    # its legs' nonzero vectors: no bitmask support, instance enumerator,
    # per-instance evaluator or bitmask size is defined or named
    found = _library_sites(_names(BITMASK_ENGINE))
    assert found == [], found


RELATION_FAMILIES = ("relation_vectors", "milnor_relations", "_presented_alpha_uce", "boundary_rows",
                     "outer_action", "action_on_quotient")


def test_relation_families_are_law_data():
    # the tensor, Milnor, alpha-presentation and Hochschild boundary
    # relations are stated as data for linalg.law_rows, and the ambient
    # columns of the outer actions and of the action on the Hochschild
    # quotient as data for linalg.law_columns; both decide by check_laws'
    # own support rule which instances can be nonzero: no family loops
    # over basis tuples
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    seen, found = set(), []
    for path in sorted(src.glob("*.py")):
        for body in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(body, ast.FunctionDef) and body.name in RELATION_FAMILIES:
                seen.add(body.name)
                # a comprehension has no line of its own; its iterable has
                found += [f"{path.stem}:{body.name}:{getattr(node, 'lineno', None) or node.iter.lineno}"
                          for node in ast.walk(body) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert seen == set(RELATION_FAMILIES)
    assert found == [], found


TENSOR_FAMILIES = tuple(f"r{k}" for k in range(1, 11))


def test_each_tensor_family_stated_once():
    # a tensor square states r1, r3 and r7 as the same law tuples as any
    # other pair: each family name is one constant in tensorprod, the name
    # of one law, so no path keeps a copy of a family
    path = Path(__file__).resolve().parents[1] / "src" / "homleib" / "tensorprod.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in TENSOR_FAMILIES]
    laws = [node.elts[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and node.elts and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value in TENSOR_FAMILIES]
    assert sorted(laws) == sorted(names) == sorted(TENSOR_FAMILIES)


def _resolves(dotted: str, modules: dict, classes: dict) -> bool:
    # an attribute chain from a homleib module or public class; a dataclass
    # field with no default is no class attribute, so it is looked up there
    root, *attrs = dotted.split(".")
    if root == "homleib" and attrs:
        root, *attrs = attrs
    obj = modules.get(root) or classes.get(root)
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return True  # a field's value is per instance; nothing to follow
        else:
            return False
    return True


def test_readme_names_resolve():
    # every dotted name the README puts in backticks, rooted at a homleib
    # module or public class, names something that exists
    import homleib
    src = Path(__file__).resolve().parents[1] / "src" / "homleib"
    modules = {path.stem: importlib.import_module(f"homleib.{path.stem}")
               for path in src.glob("*.py") if path.stem != "__init__"}
    modules["homleib"] = homleib
    classes = {name: obj for mod in modules.values() for name, obj in vars(mod).items()
               if isinstance(obj, type) and not name.startswith("_") and obj.__module__.startswith("homleib")}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # fenced blocks hold example code
    names = [name for span in re.findall(r"`([^`]+)`", text)
             for name in re.findall(r"(?<![\w./-])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span)
             if name.split(".")[0] in modules or name.split(".")[0] in classes]
    assert len(names) > 10
    assert [name for name in names if not _resolves(name, modules, classes)] == []
