"""On-disk JSON documents for algebras and actions.

An algebra document:

    {
      "field": "Q" | {"Fp": 5},
      "kind": "hom-leibniz" | "hom-associative" | "leibniz",
      "dim": 2,
      "basis": ["e1", "e2"],
      "bracket": [{"left": "e2", "right": "e2", "value": {"e1": "1"}}],
      "alpha": [["1", "1"], ["0", "1"]]
    }

Structure constants are sparse: only nonzero products are listed, values
map basis labels to scalar strings "a" or "a/b".  The twist is a dense
matrix whose column j holds the coordinates of the image of basis vector j
(row i, column j = coefficient of basis i).  Hom-associative documents use
"product" instead of "bracket"; plain "leibniz" documents may omit "alpha"
(identity assumed) and serve as twisting input.  Each (left, right) pair is
listed at most once.

An action document:

    {
      "actor": "path/to/algebra.alg" | {inline document},
      "target": {...},
      "left":  [{"actor": "x", "target": "m", "value": {"m": "1"}}],
      "right": [{"target": "m", "actor": "x", "value": {"m": "-1"}}]
    }

Each (actor, target) pair is listed at most once per side.  Relative paths
resolve against the directory of the containing file.
Parsing failures raise ParseError (bad JSON, nesting past the parser's
depth, wrong shapes) or SemanticError (unknown labels, bad scalars,
unsupported field) with a location string; a message repeats at most
``errors.ECHO_LIMIT`` characters of any input value.  Each integer of a
scalar (a numerator, a denominator or a JSON integer literal) has at most
``sys.get_int_max_str_digits()`` digits, Python's limit on converting a
string to an int (4300 by default); a longer one is refused with exit 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, SemanticError, echo
from .actions import HomAction
from .algebras import HomLeibnizAlgebra
from .fields import Field
from .homassoc import HomAssociativeAlgebra
from .linalg import Matrix, vec_zero

ALGEBRA_KINDS = ("hom-leibniz", "hom-associative", "leibniz")


@dataclass(frozen=True)
class AlgebraDocument:
    field: Field
    kind: str
    dim: int
    basis: tuple
    table: tuple  # table[i][j] = coordinate vector of the (i, j) product
    alpha: Matrix

    def build(self):
        if self.kind == "hom-associative":
            return HomAssociativeAlgebra(self.field, self.dim, self.table, self.alpha, self.basis)
        return HomLeibnizAlgebra(self.field, self.dim, self.table, self.alpha, self.basis)


@dataclass(frozen=True)
class ActionDocument:
    actor: AlgebraDocument
    target: AlgebraDocument
    left: tuple
    right: tuple

    def build(self) -> HomAction:
        return HomAction(self.actor.build(), self.target.build(), self.left, self.right)


def parse_field(node, where: str) -> Field:
    if node == "Q":
        return Field()
    if isinstance(node, dict) and set(node) == {"Fp"}:
        p = node["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise SemanticError(f"{where}: prime must be an integer")
        try:
            return Field(p)
        except ValueError as exc:
            raise SemanticError(f"{where}: {exc}") from None
    raise SemanticError(f'{where}: field must be "Q" or {{"Fp": p}}')


def _label_index(basis, label, where: str) -> int:
    try:
        return basis.index(label)
    except ValueError:
        raise SemanticError(f"{where}: unknown label {echo(label)}") from None


def _parse_value(field: Field, basis, node, where: str) -> tuple:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: value must be an object mapping labels to scalars")
    v = list(vec_zero(field, len(basis)))
    for label, scalar in node.items():
        k = _label_index(basis, label, where)
        try:
            v[k] = field.parse(scalar)
        except SemanticError as exc:
            raise SemanticError(f"{where}: {exc}") from None
    return tuple(v)


def parse_algebra_document(node, where: str = "algebra") -> AlgebraDocument:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("field", "kind", "dim", "basis"):
        if key not in node:
            raise ParseError(f"{where}: missing field {key!r}")
    field = parse_field(node["field"], f"{where}.field")
    kind = node["kind"]
    if kind not in ALGEBRA_KINDS:
        raise SemanticError(f"{where}.kind: must be one of {', '.join(ALGEBRA_KINDS)}")
    dim = node["dim"]
    basis = node["basis"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{where}.dim: must be a nonnegative integer")
    if not isinstance(basis, list) or len(basis) != dim or \
            any(not isinstance(b, str) for b in basis):
        raise ParseError(f"{where}.basis: must list {dim} labels")
    if len(set(basis)) != dim:
        raise SemanticError(f"{where}.basis: labels must be unique")

    table_key = "product" if kind == "hom-associative" else "bracket"
    entries = node.get(table_key, [])
    if table_key not in node and ("bracket" in node or "product" in node):
        raise SemanticError(f"{where}: a {kind} document uses {table_key!r}")
    if not isinstance(entries, list):
        raise ParseError(f"{where}.{table_key}: must be a list")
    table = [[vec_zero(field, dim) for _ in range(dim)] for _ in range(dim)]
    seen = {}
    for pos, entry in enumerate(entries):
        loc = f"{where}.{table_key}[{pos}]"
        if not isinstance(entry, dict) or not {"left", "right", "value"} <= set(entry):
            raise ParseError(f"{loc}: needs left, right and value")
        i = _label_index(basis, entry["left"], f"{loc}.left")
        j = _label_index(basis, entry["right"], f"{loc}.right")
        first = seen.setdefault((i, j), pos)
        if first != pos:
            raise SemanticError(f"{loc}: duplicates the (left, right) pair of "
                                f"{where}.{table_key}[{first}]")
        table[i][j] = _parse_value(field, basis, entry["value"], f"{loc}.value")

    if "alpha" in node:
        rows = node["alpha"]
        if not isinstance(rows, list) or len(rows) != dim or \
                any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise ParseError(f"{where}.alpha: must be a dense {dim} x {dim} matrix")
        try:
            alpha = Matrix(field, dim, dim,
                           tuple(tuple(field.parse(x) for x in r) for r in rows))
        except SemanticError as exc:
            raise SemanticError(f"{where}.alpha: {exc}") from None
    else:
        if kind != "leibniz":
            raise ParseError(f"{where}: missing field 'alpha'")
        alpha = Matrix.identity(field, dim)
    return AlgebraDocument(field, kind, dim, tuple(basis),
                           tuple(tuple(r) for r in table), alpha)


def _resolve(node, base_dir: Path, where: str):
    if isinstance(node, str):
        path = Path(node)
        if not path.is_absolute():
            path = base_dir / path
        return load_json(path), f"{where}({path})"
    return node, where


def parse_action_document(node, base_dir: Path, where: str = "action") -> ActionDocument:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("actor", "target"):
        if key not in node:
            raise ParseError(f"{where}: missing field {key!r}")
    actor_node, actor_where = _resolve(node["actor"], base_dir, f"{where}.actor")
    target_node, target_where = _resolve(node["target"], base_dir, f"{where}.target")
    actor = parse_algebra_document(actor_node, actor_where)
    target = parse_algebra_document(target_node, target_where)
    if actor.kind == "hom-associative" or target.kind == "hom-associative":
        raise SemanticError(f"{where}: actions connect hom-leibniz algebras")
    if actor.field != target.field:
        raise SemanticError(f"{where}: actor and target fields differ")
    field = actor.field
    left = [[vec_zero(field, target.dim) for _ in range(target.dim)] for _ in range(actor.dim)]
    right = [[vec_zero(field, target.dim) for _ in range(actor.dim)] for _ in range(target.dim)]
    for side, table in (("left", left), ("right", right)):
        entries = node.get(side, [])
        if not isinstance(entries, list):
            raise ParseError(f"{where}.{side}: must be a list")
        seen = {}
        for pos, entry in enumerate(entries):
            loc = f"{where}.{side}[{pos}]"
            if not isinstance(entry, dict) or not {"actor", "target", "value"} <= set(entry):
                raise ParseError(f"{loc}: needs actor, target and value")
            x = _label_index(actor.basis, entry["actor"], f"{loc}.actor")
            m = _label_index(target.basis, entry["target"], f"{loc}.target")
            first = seen.setdefault((x, m), pos)
            if first != pos:
                raise SemanticError(f"{loc}: duplicates the (actor, target) pair of "
                                    f"{where}.{side}[{first}]")
            val = _parse_value(field, target.basis, entry["value"], f"{loc}.value")
            if side == "left":
                table[x][m] = val
            else:
                table[m][x] = val
    return ActionDocument(actor, target,
                          tuple(tuple(r) for r in left), tuple(tuple(r) for r in right))


def load_json(path: Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def parse_document(path: Path):
    """Load and parse a document file; actions are detected by their keys."""
    node = load_json(path)
    if isinstance(node, dict) and "actor" in node and "target" in node:
        return parse_action_document(node, Path(path).parent, where=str(path))
    return parse_algebra_document(node, where=str(path))


def serialize_algebra(alg, kind: str | None = None) -> dict:
    """Document form of an in-memory algebra; parsing it back reproduces the
    same tensors over the same field."""
    is_assoc = isinstance(alg, HomAssociativeAlgebra)
    if kind is None:
        kind = "hom-associative" if is_assoc else "hom-leibniz"
    field = alg.field
    table = alg.p if is_assoc else alg.c
    entries = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = table[i][j]
            nz = {alg.labels[k]: field.to_str(v[k]) for k in range(alg.dim) if v[k]}
            if nz:
                entries.append({"left": alg.labels[i], "right": alg.labels[j], "value": nz})
    return {
        "field": field.describe(),
        "kind": kind,
        "dim": alg.dim,
        "basis": list(alg.labels),
        ("product" if kind == "hom-associative" else "bracket"): entries,
        "alpha": [[field.to_str(x) for x in row] for row in alg.twist.entries],
    }
