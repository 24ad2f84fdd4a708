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
from pathlib import Path

from .errors import ParseError, SemanticError, echo
from .actions import HomAction
from .algebras import HomLeibnizAlgebra
from .fields import Field
from .homassoc import HomAssociativeAlgebra
from .linalg import Matrix
from .values import Frozen

ALGEBRA_KINDS = ("hom-leibniz", "hom-associative", "leibniz")


class AlgebraDocument(Frozen):
    """A parsed algebra document: field, kind, dimension, basis labels, sparse table and twist."""

    field: Field
    kind: str
    dim: int
    basis: tuple
    table: tuple  # table[i][j] = the (i, j) product as sorted sparse (index, value) pairs
    alpha: Matrix
    __slots__ = ("field", "kind", "dim", "basis", "table", "alpha")

    def build(self):
        cls = HomAssociativeAlgebra if self.kind == "hom-associative" else HomLeibnizAlgebra
        return cls.from_sparse(self.field, self.dim, self.table, self.alpha, self.basis)


class ActionDocument(Frozen):
    """A parsed action document: the two algebra documents and the sparse action tables."""

    actor: AlgebraDocument
    target: AlgebraDocument
    sparse_left: tuple  # the sparse tables of ``HomAction``
    sparse_right: tuple
    __slots__ = ("actor", "target", "sparse_left", "sparse_right")

    def build(self) -> HomAction:
        return HomAction(self.actor.build(), self.target.build(), self.sparse_left, self.sparse_right)


def parse_field(node, where: str) -> Field:
    """The field of the document at ``where``, whose ``field`` key ``node`` is."""
    if node == "Q":
        return Field()
    if isinstance(node, dict) and set(node) == {"Fp"}:
        p = node["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise SemanticError(f"{where}.field: prime must be an integer")
        try:
            return Field(p)
        except ValueError as exc:
            raise SemanticError(f"{where}.field: {exc}") from None
    raise SemanticError(f'{where}.field: field must be "Q" or {{"Fp": p}}')


def _at(where, key: str, pos: int, part: str = "") -> str:
    """The location of entry ``pos`` of the list ``key`` of the document at
    ``where``, or of its key ``part``: formed only for a message."""
    return f"{where}.{key}[{pos}].{part}" if part else f"{where}.{key}[{pos}]"


def _label_index(basis, label, at: tuple) -> int:
    """The position of ``label`` in ``basis``; an unknown label is refused
    at the location ``_at(*at)``."""
    try:
        return basis.index(label)
    except ValueError:
        raise SemanticError(f"{_at(*at)}: unknown label {echo(label)}") from None


def _parse_value(field: Field, basis, node, at: tuple) -> tuple:
    """The value at the location ``_at(*at)`` as the sorted (index, scalar)
    pairs of its nonzero coordinates."""
    if not isinstance(node, dict):
        raise ParseError(f"{_at(*at)}: value must be an object mapping labels to scalars")
    v = {}
    for label, scalar in node.items():
        k = _label_index(basis, label, at)
        try:
            v[k] = field.parse(scalar)
        except SemanticError as exc:
            raise SemanticError(f"{_at(*at)}: {exc}") from None
    return tuple(sorted((k, x) for k, x in v.items() if x))


def _entries(field: Field, node, where, key: str, first, second):
    """Yield (i, j, value) for each entry of the list ``node[key]`` (empty
    when absent): ``first`` and ``second`` are (entry key, basis) for the
    entry's two labels, i and j their positions, and the value is parsed
    over the second basis.  Each pair of labels is listed at most once."""
    entries = node.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}.{key}: must be a list")
    (a, a_basis), (b, b_basis) = first, second
    seen = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {a, b, "value"} <= set(entry):
            raise ParseError(f"{_at(where, key, pos)}: needs {a}, {b} and value")
        i = _label_index(a_basis, entry[a], (where, key, pos, a))
        j = _label_index(b_basis, entry[b], (where, key, pos, b))
        earlier = seen.setdefault((i, j), pos)
        if earlier != pos:
            raise SemanticError(f"{_at(where, key, pos)}: duplicates the ({a}, {b}) pair of "
                                f"{_at(where, key, earlier)}")
        yield i, j, _parse_value(field, b_basis, entry["value"], (where, key, pos, "value"))


def parse_algebra_document(node, where="algebra") -> AlgebraDocument:
    """The algebra document ``node``; ``where``, a string or a ``_Named``
    file, names it in a message and is formatted only for one."""
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("field", "kind", "dim", "basis"):
        if key not in node:
            raise ParseError(f"{where}: missing field {key!r}")
    field = parse_field(node["field"], where)
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
    if table_key not in node and ("bracket" in node or "product" in node):
        raise SemanticError(f"{where}: a {kind} document uses {table_key!r}")
    table = [[()] * dim for _ in range(dim)]
    for i, j, value in _entries(field, node, where, table_key, ("left", basis), ("right", basis)):
        table[i][j] = value

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


def _resolve(node, key: str, base_dir: Path, where: str):
    """The document at ``node[key]``, inline or read from its path, and its location."""
    node, where = node[key], f"{where}.{key}"
    if isinstance(node, str):
        path = base_dir / node if node else node  # an absolute path replaces base_dir; '' is read as given
        return load_json(path, key), f"{where}({path})"
    return node, where


def parse_action_document(node, base_dir: Path, where: str = "action") -> ActionDocument:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("actor", "target"):
        if key not in node:
            raise ParseError(f"{where}: missing field {key!r}")
    actor_node, actor_where = _resolve(node, "actor", base_dir, where)
    target_node, target_where = _resolve(node, "target", base_dir, where)
    actor = parse_algebra_document(actor_node, actor_where)
    target = parse_algebra_document(target_node, target_where)
    if actor.kind == "hom-associative" or target.kind == "hom-associative":
        raise SemanticError(f"{where}: actions connect hom-leibniz algebras")
    if actor.field != target.field:
        raise SemanticError(f"{where}: actor and target fields differ")
    field = actor.field
    left = [[()] * target.dim for _ in range(actor.dim)]
    right = [[()] * actor.dim for _ in range(target.dim)]
    labels = ("actor", actor.basis), ("target", target.basis)
    for x, m, value in _entries(field, node, where, "left", *labels):
        left[x][m] = value
    for x, m, value in _entries(field, node, where, "right", *labels):
        right[m][x] = value
    return ActionDocument(actor, target,
                          tuple(tuple(r) for r in left), tuple(tuple(r) for r in right))


class _Named:
    """A document file as messages name it, ``str(Path(path))``, an empty
    path as given (``Path('')`` is '.'): the ``Path`` is built only when a
    message formats it, so a document read and parsed without error builds
    none."""

    __slots__ = ("path",)

    def __init__(self, path):
        self.path = path

    def __str__(self):
        return str(Path(self.path)) if self.path else self.path


def load_json(path: str | Path, key: str | None = None):
    """The JSON value of a document file, read as bytes and decoded once,
    with universal newlines as text mode reads them.  An error echoes the
    path and names ``key``, the action's ``actor`` or ``target``, when the
    file is one of them."""
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except (OSError, ValueError) as exc:  # unreadable, a NUL in the path, or not UTF-8
        named = echo(str(_Named(path)))
        named = named if key is None else f"{named} ({key})"
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ParseError(f"cannot read {named}: {reason}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_json(text, _Named(path))


def parse_json(text: str, where):
    """The value of a JSON text, or ParseError naming ``where``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:  # malformed, or an integer literal past Python's digit limit
        raise ParseError(f"{where}: invalid JSON ({exc})") from None


def parse_document(path: str | Path):
    """Load and parse a document file; actions are detected by their keys.
    The file read is the one ``Path(path)`` names, and a message names it
    as ``_Named`` does; the ``Path`` is built only for a path ending in "/"
    or "/.", whose end it drops, and for an action document, which resolves
    its parts against the file's directory."""
    node = load_json(Path(path) if isinstance(path, str) and path.endswith(("/", "/.")) else path)
    if isinstance(node, dict) and "actor" in node and "target" in node:
        path = Path(path)
        return parse_action_document(node, path.parent, where=str(path))
    return parse_algebra_document(node, where=_Named(path))


def serialize_algebra(alg) -> dict:
    """Document form of an in-memory algebra; parsing it back reproduces the
    same tensors over the same field."""
    is_assoc = isinstance(alg, HomAssociativeAlgebra)
    field = alg.field
    labels = alg.labels
    entries = [{"left": labels[i], "right": labels[j], "value": {labels[k]: field.to_str(x) for k, x in v}}
               for i, row in enumerate(alg.sparse_p if is_assoc else alg.sparse_c) for j, v in enumerate(row) if v]
    alpha = [["0"] * alg.dim for _ in range(alg.dim)]  # the twist's dense rows, set from its columns
    for j, col in enumerate(alg.twist.sparse_cols):
        for i, x in col:
            alpha[i][j] = field.to_str(x)
    return {
        "field": field.describe(),
        "kind": "hom-associative" if is_assoc else "hom-leibniz",
        "dim": alg.dim,
        "basis": list(alg.labels),
        ("product" if is_assoc else "bracket"): entries,
        "alpha": alpha,
    }
