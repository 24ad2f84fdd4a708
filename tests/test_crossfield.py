"""Cross-field oracle: one integer-coefficient instance over Q and over GF(p).

Reducing an integer matrix mod p can only lose rank, so every rank over
GF(p) is at most the rank over Q, with equality for all but finitely many
p.  The primes below divide no structure constant or twist entry of the
instances, and for them the whole output of ``tensor``, ``uce`` and
``homology --max-n 2`` must agree with Q.
"""

from __future__ import annotations

import json

import pytest

from homleib import generators
from homleib.algebras import direct_sum, yau_twist
from homleib.cli import main
from homleib.documents import serialize_algebra
from homleib.fields import Field
from homleib.homology import ChainComplex, adjoint_corep, trivial_corep
from homleib.linalg import Matrix

QQ = Field()
PRIMES = (5, 7, 11, 1000003)


def _twisted_heisenberg(f):
    return yau_twist(generators.heisenberg(f), Matrix.from_rows(f, [[2, 0, 0], [0, 3, 0], [0, 0, 6]]))


def _twisted_square(f):
    return yau_twist(generators.square_bracket_algebra(f), Matrix.from_rows(f, [[4, 1], [0, 2]]))


STOCK = {
    "square": generators.square_bracket_algebra,
    "square-twisted": _twisted_square,
    "heisenberg": generators.heisenberg,
    "heisenberg-twisted": _twisted_heisenberg,
    "sl2": generators.sl2,
    "sl2+square": lambda f: direct_sum(generators.sl2(f), generators.square_bracket_algebra(f)),
}
COMMANDS = (("tensor", "--square"), ("uce",), ("homology", "--max-n", "2"),
            ("homology", "--max-n", "2", "--coeffs", "adjoint"))
# the ranks each field reports: tensor relation and evaluation ranks, and
# the homology boundary ranks
RANKS = ("relation_rank", "into_first_rank", "into_second_rank")


def _outputs(path, capsys):
    out = {}
    for cmd in COMMANDS:
        code = main([*cmd, str(path), "--json"])
        data = json.loads(capsys.readouterr().out)
        data.pop("algebra", None)  # the presented table is written in field scalars
        out[" ".join(cmd)] = (code, data)
    return out


def _ranks(alg, tensor_out):
    ranks = {key: tensor_out[1][key] for key in RANKS}
    for name, corep in (("trivial", trivial_corep(alg)), ("adjoint", adjoint_corep(alg))):
        cx = ChainComplex(alg, corep)
        for n in range(4):
            ranks[f"d{n} {name}"] = cx.rank(n)
    return ranks


@pytest.mark.parametrize("name", sorted(STOCK))
def test_dims_agree_over_q_and_prime_fields(name, tmp_path, capsys):
    doc = serialize_algebra(STOCK[name](QQ))
    path = tmp_path / f"{name}.alg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    q_out = _outputs(path, capsys)
    q_ranks = _ranks(STOCK[name](QQ), q_out["tensor --square"])
    assert q_out["tensor --square"][0] == 0
    for p in PRIMES:
        path.write_text(json.dumps(dict(doc, field={"Fp": p})), encoding="utf-8")
        p_out = _outputs(path, capsys)
        p_ranks = _ranks(STOCK[name](Field(p)), p_out["tensor --square"])
        for key, rank in q_ranks.items():
            assert p_ranks[key] <= rank, (p, key)
        assert p_ranks == q_ranks, p
        assert p_out == q_out, p
