"""Basis-change oracle: an algebra and its conjugate by a fixed invertible
matrix P are isomorphic, so every dimension, flag and certificate verdict
the command line reports on them must be the same.

The upper conjugator P has 1 on the diagonal and (i + 2j) mod 3 - 1 above
it (0-based i < j); the lower one is its transpose.  The inverse of each is
integral too.  The upper one keeps the standard flag (span e_0 .. e_i goes
to itself), so a result that happens to follow the order of the basis
vectors survives it; the lower one moves every such span but the whole
space.  The diagonal one, diag(1, 1/2, 4/3, 2/5, 7/3) cut to the
dimension, scales each basis vector by its own rational, so over Q each
conjugate has a table or a twist with denominators, and the structures
built from it (tensor factors, ideals, quotients) clear theirs with
different D's.  The conjugate's basis vectors are the columns of P: its
structure constants are P^-1 [P e_a, P e_b] and its twist is P^-1 t P.  Only the
basis-dependent parts of an output are left out of the comparison: the
presented algebra's table and the center's basis.  Homology runs at
``--max-n 2`` over both fields.
"""

from __future__ import annotations

import json

import pytest

from homleib import generators
from homleib.algebras import HomLeibnizAlgebra, direct_sum, yau_twist
from homleib.cli import main
from homleib.documents import serialize_algebra
from homleib.fields import Field
from homleib.homassoc import HomAssociativeAlgebra, yau_twist_assoc
from homleib.linalg import Matrix, unwrapped

QQ, GFP = Field(), Field(1000003)


def unitriangular(f, n) -> Matrix:
    return Matrix.from_rows(f, [[(i + 2 * j) % 3 - 1 if i < j else int(i == j) for j in range(n)]
                                for i in range(n)])


def diagonal(f, n) -> Matrix:
    scale = [f.div(f.from_int(a), f.from_int(b)) for a, b in ((1, 1), (1, 2), (4, 3), (2, 5), (7, 3))]
    return Matrix.from_rows(f, [[scale[i] if i == j else 0 for j in range(n)] for i in range(n)])


CONJUGATORS = {
    "upper": unitriangular,
    "lower": lambda f, n: unitriangular(f, n).transpose(),
    "diagonal": diagonal,
}


def conjugate(alg, conjugator):
    """The same algebra in the basis of the columns of ``conjugator(f, n)``."""
    f, n = alg.field, alg.dim
    P = conjugator(f, n)
    inverse = P.section()  # P is bijective, so its section is its inverse
    op = alg.bracket if isinstance(alg, HomLeibnizAlgebra) else alg.product
    cols = P.transpose().entries
    table = tuple(tuple(inverse.apply(op(cols[a], cols[b])) for b in range(n)) for a in range(n))
    return type(alg)(f, n, table, inverse.compose(alg.twist).compose(P), alg.labels)


def _upper_triangular(f):
    return HomAssociativeAlgebra.from_products(
        f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}, labels=("e11", "e12", "e22"))


LEIBNIZ = {
    "square-twisted": lambda f: yau_twist(generators.square_bracket_algebra(f), Matrix.from_rows(f, [[4, 1], [0, 2]])),
    "abelian-twisted": lambda f: HomLeibnizAlgebra.abelian(f, 3, Matrix.from_rows(f, [[2, 0, 0], [0, -2, 1],
                                                                                       [0, 0, 3]])),
    "heisenberg-twisted": lambda f: yau_twist(generators.heisenberg(f),
                                              Matrix.from_rows(f, [[2, 0, 0], [0, 3, 0], [0, 0, 6]])),
    "sl2-twisted": lambda f: yau_twist(generators.sl2(f),
                                       Matrix.from_rows(f, [[2, 0, 0], [0, f.div(1, 2), 0], [0, 0, 1]])),
    "sl2+square": lambda f: direct_sum(generators.sl2(f), generators.square_bracket_algebra(f)),
}
ASSOCIATIVE = {
    "upper-triangular-twisted": lambda f: yau_twist_assoc(
        _upper_triangular(f), Matrix.from_rows(f, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])),
}
COMMANDS = [("validate",), ("info",)]
LEIBNIZ_COMMANDS = [("tensor", "--square"), ("uce",), ("six-term", "--ideal", "zero"),
                    ("six-term", "--ideal", "full")]


def _invariants(data):
    """The output less its basis-dependent parts."""
    if isinstance(data, dict):
        return {k: _invariants(v) for k, v in data.items() if k not in ("algebra", "center_basis")}
    if isinstance(data, list):
        return [_invariants(x) for x in data]
    return data


def _run(alg, commands, path, capsys):
    path.write_text(json.dumps(serialize_algebra(alg)), encoding="utf-8")
    out = []
    for cmd in commands:
        code = main([cmd[0], *cmd[1:], str(path), "--json"])
        out.append((cmd, code, _invariants(json.loads(capsys.readouterr().out))))
    return out


def test_the_conjugating_matrix():
    upper = ((1, 1, 0, -1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))
    for side, entries, flags in (("upper", upper, [0, 1, 2]), ("lower", tuple(zip(*upper)), [])):
        P = CONJUGATORS[side](QQ, 4)
        assert P.entries == entries
        inverse = P.section()
        assert inverse.compose(P) == Matrix.identity(QQ, 4)
        assert all(isinstance(x, int) for row in inverse.entries for x in row)
        # the spans of e_0 .. e_i, i < 3, that P carries into themselves
        assert [i for i in range(3) if not any(P.entries[r][c] for c in range(i + 1) for r in range(i + 1, 4))] == flags


@pytest.mark.parametrize("name", sorted(LEIBNIZ) + sorted(ASSOCIATIVE))
def test_the_diagonal_conjugates_clear_denominators(name):
    # over Q the diagonal conjugate's table or twist clears with some D > 1;
    # over GF(p) both are their own
    for f in (QQ, GFP):
        twisted = conjugate((LEIBNIZ.get(name) or ASSOCIATIVE[name])(f), diagonal)
        table, own = (twisted.cleared_c, twisted.sparse_c) if name in LEIBNIZ else \
            (twisted.cleared_p, twisted.sparse_p)
        tw = twisted.twist
        assert unwrapped(table)[1] * unwrapped(tw.cleared_cols)[1] > 1 if f is QQ else \
            table is own and tw.cleared_cols is tw.sparse_cols


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
@pytest.mark.parametrize("name", sorted(LEIBNIZ) + sorted(ASSOCIATIVE))
def test_reports_do_not_depend_on_the_basis(name, f, tmp_path, capsys):
    alg = (LEIBNIZ.get(name) or ASSOCIATIVE[name])(f)
    assert alg.dim <= 5
    commands = list(COMMANDS)
    if name in LEIBNIZ:
        commands += LEIBNIZ_COMMANDS + [("homology", "--coeffs", coeffs, "--max-n", "2")
                                        for coeffs in ("trivial", "adjoint")]
    stock = _run(alg, commands, tmp_path / "stock.alg", capsys)
    assert [code for _, code, _ in stock][:2] == [0, 0]
    for side, conjugator in CONJUGATORS.items():
        twisted = conjugate(alg, conjugator)
        assert twisted != alg
        assert _run(twisted, commands, tmp_path / f"{side}.alg", capsys) == stock, side


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
@pytest.mark.parametrize("name", sorted(LEIBNIZ) + sorted(ASSOCIATIVE))
def test_alpha_of_the_conjugates_is_written_as_its_dense_entries_read(name, f):
    alg = (LEIBNIZ.get(name) or ASSOCIATIVE[name])(f)
    for twisted in (alg, *(conjugate(alg, conjugator) for conjugator in CONJUGATORS.values())):
        want = [[f.to_str(x) for x in row] for row in twisted.twist.entries]
        assert serialize_algebra(twisted)["alpha"] == want
