from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from homleib.errors import BracketNotWellDefined, IncompatibleActions, MathFailure, NotEquivariant
from homleib.fields import Field
from homleib.linalg import Matrix, QuotientSpace, Subspace, dense_vec, sparse_table, sparse_vec, unit_vec, unwrapped
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    center,
    derived_subspace,
    direct_sum,
    predicates,
    quotient_algebra,
    IdealHandle,
    certified_quotient,
    subalgebra,
    yau_twist,
)
from homleib.actions import HomAction, MutualActions, ideal_pair_actions, self_action
from homleib.generators import heisenberg, random_ideal_pair, sl2 as make_sl2
from homleib import tensorprod
from homleib.cli import main
from homleib.homassoc import hochschild_module, to_leibniz
from homleib.report import ExactnessReport
from homleib.tensorprod import (
    build_tensor,
    ideal_sequence_certificate,
    induced_tensor_map,
    outer_action,
    relation_vectors,
    right_exactness_certificate,
    tensor_identity_battery,
)
from test_checker import ALGEBRAS, _single_entry_perturbations, _sparse_bumps, dense_table, sl2_twisted
from test_linalg import dense_outer
from homleib_testkit import abelian_witnesses, edge_pairs, embed_nm, random_trivial_pair, replace

QQ = Field()


def naive_square_dimension(brackets, twist):
    """Independent oracle for the tensor square of a two-dimensional algebra:
    assembles every relation instance directly from the family definitions
    with plain rationals and row-reduces with sympy."""
    dim = 2

    def bracket(u, v):
        out = [Fraction(0)] * dim
        for i in range(dim):
            for j in range(dim):
                if u[i] and v[j]:
                    for k, c in brackets.get((i, j), {}).items():
                        out[k] += u[i] * v[j] * Fraction(c)
        return out

    def tw(u):
        return [sum(Fraction(twist[i][j]) * u[j] for j in range(dim)) for i in range(dim)]

    def unit(i):
        return [Fraction(int(i == k)) for k in range(dim)]

    # adjoint actions: left is the bracket, right is the reversed bracket
    def act_left(x, m):
        return bracket(x, m)

    def act_right(m, x):
        return bracket(m, x)

    def emb1(u, v):
        out = [Fraction(0)] * 8
        for i in range(dim):
            for j in range(dim):
                out[i * dim + j] += u[i] * v[j]
        return out

    def emb2(v, u):
        out = [Fraction(0)] * 8
        for j in range(dim):
            for i in range(dim):
                out[4 + j * dim + i] += v[j] * u[i]
        return out

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    rows = []
    basis = [unit(i) for i in range(dim)]
    for m in basis:
        for n in basis:
            for n2 in basis:
                rows.append(sub(emb1(tw(m), bracket(n, n2)),
                                sub(emb1(act_right(m, n), tw(n2)),
                                    emb1(act_right(m, n2), tw(n)))))
                rows.append(sub(emb2(bracket(n, n2), tw(m)),
                                sub(emb1(act_left(n, m), tw(n2)),
                                    emb2(tw(n), act_right(m, n2)))))
    for n in basis:
        for m in basis:
            for m2 in basis:
                rows.append(sub(emb2(tw(n), bracket(m, m2)),
                                sub(emb2(act_right(n, m), tw(m2)),
                                    emb2(act_right(n, m2), tw(m)))))
                rows.append(sub(emb1(bracket(m, m2), tw(n)),
                                sub(emb2(act_left(m, n), tw(m2)),
                                    emb1(tw(m), act_right(n, m2)))))
    for m in basis:
        for m2 in basis:
            for n in basis:
                rows.append(add(emb1(tw(m), act_left(m2, n)),
                                emb1(tw(m), act_right(n, m2))))
    for n in basis:
        for n2 in basis:
            for m in basis:
                rows.append(add(emb2(tw(n), act_left(n2, m)),
                                emb2(tw(n), act_right(m, n2))))
    for m in basis:
        for n in basis:
            for m2 in basis:
                for n2 in basis:
                    mdown, mup = act_right(m, n), act_left(m, n)
                    ndown, nup = act_right(n, m), act_left(n, m)
                    m2down, m2up = act_right(m2, n2), act_left(m2, n2)
                    n2down, n2up = act_right(n2, m2), act_left(n2, m2)
                    rows.append(sub(emb1(mdown, m2up), emb2(mup, m2down)))
                    rows.append(sub(emb1(mdown, n2down), emb2(mup, n2up)))
                    rows.append(sub(emb1(nup, m2up), emb2(ndown, m2down)))
                    rows.append(sub(emb1(nup, n2down), emb2(ndown, n2up)))
    rank = sympy.Matrix(rows).rank()
    return 8 - rank


class TestBuild:
    def test_trivial_one_dimensional(self):
        a = HomLeibnizAlgebra.abelian(QQ, 1)
        t = build_tensor(MutualActions.trivial(a, a))
        assert t.algebra.dim == 2
        assert t.algebra.is_abelian()

    def test_square_of_nonlie2_matches_naive_oracle(self, nonlie2):
        t = build_tensor(MutualActions.adjoint(nonlie2))
        oracle = naive_square_dimension({(1, 1): {0: 1}}, [[1, 1], [0, 1]])
        assert oracle == 3
        assert t.algebra.dim == oracle
        assert t.algebra.is_abelian()

    def test_square_of_sl2(self, sl2):
        t = build_tensor(MutualActions.adjoint(sl2))
        assert t.algebra.dim == 3
        assert predicates(t.algebra).perfect

    def test_trivial_pairs_decompose(self):
        rng = random.Random(17)
        for _ in range(6):
            ma = random_trivial_pair(QQ, rng)
            t = build_tensor(ma)
            m_ab = ma.m_side.dim - derived_subspace(ma.m_side).dim
            n_ab = ma.n_side.dim - derived_subspace(ma.n_side).dim
            assert t.algebra.dim == 2 * m_ab * n_ab
            assert t.algebra.is_abelian()

    def test_incompatible_actions_refused(self, sl2):
        ma = MutualActions(self_action(sl2), HomAction.trivial(sl2, sl2))
        with pytest.raises(IncompatibleActions):
            build_tensor(ma)


# Relation RREF bases of two adjoint tensor squares as computed by the dense
# relation generator the sparse one replaced: one {column: value} dict per
# basis row, identical over Q and GF(1000003) with -1 read in the field.
HEIS_RELATIONS = [
    {2: 1, 15: 1}, {5: 1, 16: 1}, {6: 1, 15: -1}, {7: 1, 16: -1}, {8: 1},
    {11: 1, 15: 1}, {14: 1, 16: 1}, {17: 1}]
SL2_AB1_RELATIONS = [
    {0: 1}, {1: 1, 20: 1}, {2: 1, 24: 1}, {3: 1}, {4: 1, 20: -1}, {5: 1},
    {6: 1, 25: 1}, {7: 1}, {8: 1, 24: -1}, {9: 1, 25: -1}, {10: 1}, {11: 1},
    {12: 1}, {13: 1}, {14: 1}, {16: 1}, {17: 1, 20: 1}, {18: 1, 24: 1},
    {19: 1}, {21: 1}, {22: 1, 25: 1}, {23: 1}, {26: 1}, {27: 1}, {28: 1},
    {29: 1}, {30: 1}]


def _sl2_plus_abelian(f):
    return direct_sum(make_sl2(f), HomLeibnizAlgebra.abelian(f, 1))


def full_relation_rows(ma):
    """Every instance of the ten relation families, in the order of
    ``relation_vectors`` off the square path, as the dense reference: each
    term is a dense pure tensor ``dense_outer`` of dense brackets, twist columns
    and action values, summed coordinate by coordinate and read off as a
    sparse row, empty for an instance that vanishes.  Yields (family, row)."""
    M, N = ma.m_side, ma.n_side
    f = M.field
    dm, dn = M.dim, N.dim
    size = 2 * dm * dn
    tm = [M.twist.col(i) for i in range(dm)]
    tn = [N.twist.col(j) for j in range(dn)]
    mn_left, mn_right, nm_left, nm_right = (dense_table(f, t, a.target.dim)
                                            for a in (ma.mn, ma.nm) for t in (a.sparse_left, a.sparse_right))

    def mn(u, v):
        return dense_outer(f, u, v, size)

    def nm(v, u):
        return dense_outer(f, v, u, size, dm * dn)

    def row(family, plus, minus=()):
        total = [f.zero()] * size
        for op, vecs in ((f.add, plus), (f.sub, minus)):
            for vec in vecs:
                total = [op(a, b) for a, b in zip(total, vec)]
        return family, tuple((c, x) for c, x in enumerate(total) if x)

    for i in range(dm):
        for j in range(dn):
            for j2 in range(dn):
                yield row("r1", [mn(tm[i], N.c[j][j2]), mn(nm_right[i][j2], tn[j])], [mn(nm_right[i][j], tn[j2])])
                yield row("r4", [nm(N.c[j][j2], tm[i]), nm(tn[j], nm_right[i][j2])], [mn(nm_left[j][i], tn[j2])])
    for j in range(dn):
        for i in range(dm):
            for i2 in range(dm):
                yield row("r2", [nm(tn[j], M.c[i][i2]), nm(mn_right[j][i2], tm[i])], [nm(mn_right[j][i], tm[i2])])
                yield row("r3", [mn(M.c[i][i2], tn[j]), mn(tm[i], mn_right[j][i2])], [nm(mn_left[i][j], tm[i2])])
    for i in range(dm):
        for i2 in range(dm):
            for j in range(dn):
                yield row("r5", [mn(tm[i], mn_left[i2][j]), mn(tm[i], mn_right[j][i2])])
    for j in range(dn):
        for j2 in range(dn):
            for i in range(dm):
                yield row("r6", [nm(tn[j], nm_left[j2][i]), nm(tn[j], nm_right[i][j2])])
    for i in range(dm):
        for j in range(dn):
            for i2 in range(dm):
                for j2 in range(dn):
                    mdown, mup = nm_right[i][j], mn_left[i][j]
                    ndown, nup = mn_right[j][i], nm_left[j][i]
                    m2down, m2up = nm_right[i2][j2], mn_left[i2][j2]
                    n2down, n2up = mn_right[j2][i2], nm_left[j2][i2]
                    yield row("r7", [mn(mdown, m2up)], [nm(mup, m2down)])
                    yield row("r8", [mn(mdown, n2down)], [nm(mup, n2up)])
                    yield row("r9", [mn(nup, m2up)], [nm(ndown, m2down)])
                    yield row("r10", [mn(nup, n2down)], [nm(ndown, n2up)])


def _abelian_diag(f):
    return HomLeibnizAlgebra.abelian(f, 3, Matrix.from_rows(f, [[2, 0, 0], [0, -2, 0], [0, 0, 3]]))


def _sl2_diag(f):
    return yau_twist(make_sl2(f), Matrix.from_rows(f, [[4, 0, 0], [0, f.div(1, 4), 0], [0, 0, 1]]))


def _relation_cases(f):
    H = heisenberg(f)
    return [
        MutualActions.adjoint(heisenberg(f)),
        MutualActions.adjoint(_sl2_plus_abelian(f)),
        MutualActions.adjoint(_sl2_diag(f)),
        # one-sided: at (m, n) = (e1, e2) m acted by n is e3, n acted by m is 0
        MutualActions.adjoint(HomLeibnizAlgebra.from_brackets(f, 3, {(0, 1): {2: 1}})),
        MutualActions.trivial(_abelian_diag(f), H),
        MutualActions.trivial(_sl2_diag(f), H),
        ideal_pair_actions(H, derived_subspace(H), Subspace.full(f, H.dim)),
        ideal_pair_actions(_sl2_diag(f), Subspace.full(f, 3), Subspace.full(f, 3)),
    ]


SQUARE_FAMILIES = ("r1", "r3", "r7")


def family_scales(ma):
    """K of each family as ``relation_vectors`` states it: the lcm over its
    terms of the product of the D's of the two cleared tables each term
    reads (its ``tensor_table`` block is integral), so each of its rows is
    K times the instance's."""
    M, N = ma.m_side, ma.n_side
    tm, tn, cm, cn = (unwrapped(x)[1] for x in (M.twist.cleared_cols, N.twist.cleared_cols, M.cleared_c, N.cleared_c))
    mon, nbm, nom, mbn = (unwrapped(x)[1] for x in (ma.mn.cleared_left, ma.mn.cleared_right,
                                            ma.nm.cleared_left, ma.nm.cleared_right))
    return {"r1": math.lcm(tm * cn, mbn * tn), "r2": math.lcm(tn * cm, nbm * tm),
            "r3": math.lcm(cm * tn, tm * nbm, mon * tm), "r4": math.lcm(cn * tm, tn * mbn, nom * tn),
            "r5": math.lcm(tm * mon, tm * nbm), "r6": math.lcm(tn * nom, tn * mbn), "r7": mbn * mon,
            "r8": math.lcm(mbn * nbm, mon * nom), "r9": nom * mon, "r10": nom * nbm}


def _full_span(ma):
    """The span of the dense rows of all ten families."""
    f, size = ma.m_side.field, 2 * ma.m_side.dim * ma.n_side.dim
    return Subspace.span(f, size, [dense_vec(f, size, r) for _, r in full_relation_rows(ma)])


class TestRelations:
    @pytest.mark.parametrize("p", [None, 1000003])
    @pytest.mark.parametrize("make, generated, nonzero, basis", [
        (heisenberg, 28, 26, HEIS_RELATIONS),
        (_sl2_plus_abelian, 120, 114, SL2_AB1_RELATIONS),
    ])
    def test_relation_span_pinned(self, p, make, generated, nonzero, basis):
        # the square path yields r1, r3 and r7 only (76/60 and 360/300 rows
        # for all ten families; 34/26 and 144/114 with r5, whose rows all
        # cancel on these brackets); the RREF basis is the ten families'
        f = Field(p)
        ma = MutualActions.adjoint(make(f))
        rows = list(relation_vectors(ma))
        assert len(rows) == generated
        assert sum(1 for r in rows if r) == nonzero
        t = build_tensor(ma)
        expected = tuple(tuple(f.from_int(d.get(c, 0)) for c in range(t.ambient_dim))
                         for d in basis)
        assert t.presentation.relations.basis.entries == expected

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_rows_are_the_nonzero_rows_of_the_full_enumeration(self, f):
        # only instances that are zero by sparsity are skipped: the nonzero
        # rows, and so the RREF basis built from them, come in the same order,
        # each its family's K times the instance (K = 1 over GF(p) and on
        # integral tables); on a square the families are r1, r3 and r7, off
        # it all ten
        cases = _relation_cases(f)
        assert [tensorprod._is_square(ma) for ma in cases] == [True] * 4 + [False] * 3 + [True]
        assert f.p is not None or {k for ma in cases for k in family_scales(ma).values()} > {1}
        for ma in cases:
            rows, scales = list(relation_vectors(ma)), family_scales(ma)
            full = list(full_relation_rows(ma))
            kept = [(family, r) for family, r in full if family in SQUARE_FAMILIES or not tensorprod._is_square(ma)]
            assert [r for r in rows if r] == [tuple((c, f.mul(scales[family], x)) for c, x in r)
                                              for family, r in kept if r]
            assert len(rows) < len(kept)

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_presentation_is_the_span_of_all_ten_families(self, f):
        # on a square the swap closure of the four families' span gives back
        # exactly the span of all ten
        for ma in _relation_cases(f):
            assert build_tensor(ma).presentation.relations == _full_span(ma)

    def test_abelian_square_under_trivial_actions_skips_every_instance(self, evaluated):
        A = _abelian_diag(QQ)
        ma = MutualActions.trivial(A, A)
        assert list(relation_vectors(ma)) == []
        t = build_tensor(ma)
        assert t.algebra.dim == 18 and t.algebra.is_abelian()
        # the presented bracket is zero, so no Hom-Leibniz instance can be
        # nonzero and none is evaluated, multiplicativity included
        names = [name for name, _ in evaluated]
        assert names.count("multiplicativity") == 0
        assert "hom-leibniz identity" not in names

    def test_rows_are_sorted_and_nonzero(self, sl2_twisted):
        for row in relation_vectors(MutualActions.adjoint(sl2_twisted)):
            cols = [c for c, _ in row]
            assert cols == sorted(set(cols))
            assert all(x for _, x in row)


# for each family a pair of ``edge_pairs`` on which it follows from no other
NEEDED_ON = (
    ("r1", "sl2 + heisenberg, 0 + id: ideal on L"),
    ("r2", "sl2 + heisenberg, 0 + id: L on ideal"),
    ("r3", "square, own twist, right only"),
    ("r4", "square, own twist, right only"),
    ("r5", "r5: m>n1 = n2"),
    ("r5", "square: n1.n1 = n2"),
    ("r6", "r5: m>n1 = n2, exchanged"),
    ("r7", "r7: m1<n1 = m2, m1>n1 = n2"),
    ("r8", "heisenberg, zero twist, left only"),
    ("r9", "heisenberg, zero twist, left only"),
    ("r10", "r7: m1<n1 = m2, m1>n1 = n2, exchanged"),
)


class TestEdgePairs:
    """Singular twists, one-sided actions and the pairs on which r5 and r7
    are needed, against the ten-family dense reference."""

    @pytest.mark.parametrize("f", [QQ, Field(1000003), Field(3), Field(5)],
                             ids=["Q", "GF(1000003)", "GF(3)", "GF(5)"])
    def test_relations_are_the_span_of_all_ten_families(self, f):
        for name, ma in edge_pairs(f):
            assert build_tensor(ma).presentation.relations == _full_span(ma), name

    def test_every_pair_passes_every_identity(self):
        for name, ma in edge_pairs(QQ):
            assert ma.check_compatible().valid and ma.mn.validate().valid and ma.nm.validate().valid, name
            assert ma.m_side.validate().valid and ma.n_side.validate().valid, name

    def test_each_family_is_needed(self):
        # dropping any one family from the reference shrinks the span on
        # its pair; r8 and r9 need a one-sided action at the zero twist
        pairs = dict(edge_pairs(QQ))
        for family, name in NEEDED_ON:
            ma = pairs[name]
            size = 2 * ma.m_side.dim * ma.n_side.dim
            rows = [dense_vec(QQ, size, r) for fam, r in full_relation_rows(ma) if fam != family]
            assert Subspace.span(QQ, size, rows).dim < _full_span(ma).dim, (family, name)
        assert sorted({family for family, _ in NEEDED_ON}) == sorted(f"r{k}" for k in range(1, 11))

    def test_a_square_needs_its_actions_to_be_the_bracket(self):
        # equal data on both sides and one action table that is not the
        # bracket: that pair needs r5, so it takes the ten-family path
        ma = dict(abelian_witnesses(QQ))["square: n1.n1 = n2"]
        data = tensorprod._relation_data(ma)
        assert data == data[::-1] and ma.mn.sparse_left == ma.mn.sparse_right != ma.m_side.sparse_c
        assert not tensorprod._is_square(ma)

    def test_r5_witness_through_the_command_line(self, tmp_path, capsys):
        # <m> acting on <n1, n2> by m>n1 = n2: two relations, m*n2 (r5) and
        # n2*m (r3); without r5 the product would have dimension 3
        def write(name, doc):
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
            return str(tmp_path / name)

        write("m.alg", {"field": "Q", "kind": "hom-leibniz", "dim": 1, "basis": ["m"], "bracket": [],
                        "alpha": [["1"]]})
        write("n.alg", {"field": "Q", "kind": "hom-leibniz", "dim": 2, "basis": ["n1", "n2"], "bracket": [],
                        "alpha": [["1", "0"], ["0", "1"]]})
        first = write("mn.act", {"actor": "m.alg", "target": "n.alg", "right": [],
                                 "left": [{"actor": "m", "target": "n1", "value": {"n2": "1"}}]})
        second = write("nm.act", {"actor": "n.alg", "target": "m.alg", "left": [], "right": []})
        assert main(["tensor", first, second, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["ambient_dim"], out["relation_rank"], out["dim"]) == (4, 2, 2)


def _bump(f, table, i, j, k):
    """The table with one added at coordinate k of the value table[i][j]."""
    rows = [list(r) for r in table]
    rows[i][j] = tuple(f.add(x, f.one()) if c == k else x for c, x in enumerate(rows[i][j]))
    return tuple(tuple(r) for r in rows)


def _sides(M, L):
    """M and L acting on each other by L's bracket table."""
    return MutualActions(HomAction(M, L, L.sparse_c, L.sparse_c), HomAction(L, M, L.sparse_c, L.sparse_c))


def _mutant(L, kind):
    """The adjoint pair of L with one entry bumped: of one of the four
    action tables, of the first side's twist or of its bracket."""
    f, a = L.field, self_action(L)
    rows = [list(r) for r in L.twist.entries]
    rows[0][0] = f.add(rows[0][0], f.one())
    c, bumped = L.sparse_c, sparse_table(_bump(f, L.c, 0, 1, 2))
    return {
        "m acting on n": MutualActions(HomAction(L, L, bumped, c), a),
        "n acted by m": MutualActions(HomAction(L, L, c, bumped), a),
        "n acting on m": MutualActions(a, HomAction(L, L, bumped, c)),
        "m acted by n": MutualActions(a, HomAction(L, L, c, bumped)),
        "twist": _sides(HomLeibnizAlgebra.from_sparse(f, L.dim, c, Matrix.from_rows(f, rows), L.labels), L),
        "bracket": _sides(HomLeibnizAlgebra(f, L.dim, _bump(f, L.c, 0, 1, 2), L.twist, L.labels), L),
        "bracket at (h, h)": _sides(HomLeibnizAlgebra(f, L.dim, _bump(f, L.c, 2, 2, 2), L.twist, L.labels), L),
    }[kind]


def _outcome(ma):
    """The relations of the tensor product, or the failure building it."""
    try:
        return build_tensor(ma).presentation.relations
    except MathFailure as e:
        return type(e), str(e), e.witness


BUMPS = ("m acting on n", "n acted by m", "n acting on m", "m acted by n", "twist", "bracket", "bracket at (h, h)")


class TestSquarePath:
    """A pair one entry away from a square must leave the square path."""

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("make", [_sl2_diag, heisenberg], ids=["twisted sl2", "heisenberg"])
    @pytest.mark.parametrize("kind", BUMPS)
    def test_one_entry_off_a_square(self, f, make, kind, monkeypatch):
        ma = _mutant(make(f), kind)
        assert tensorprod._is_square(MutualActions.adjoint(make(f)))
        assert not tensorprod._is_square(ma)
        generated = []
        real = tensorprod.relation_vectors
        monkeypatch.setattr(tensorprod, "relation_vectors", lambda m: generated.append(m) or real(m))
        got = _outcome(ma)
        # the ten-family build: the same checks in the same order, on the
        # relations of the dense enumeration of all ten families
        monkeypatch.setattr(tensorprod, "relation_vectors", lambda m: (r for _, r in full_relation_rows(m)))
        assert got == _outcome(ma)
        if isinstance(got, Subspace):
            assert got == _full_span(ma)
        elif got[0] is IncompatibleActions:
            assert generated == []  # refused before any row is generated

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("ideal", ["zero", "first", "full"])
    def test_ideal_sequence_generates_each_distinct_span_once(self, f, ideal, monkeypatch):
        # the full ideal is a subalgebra object distinct from L with L's
        # data, so all four tensor products of its sequence are squares, and
        # M*L, L*M and L*L share one span; L/L is zero-dimensional.  On the
        # zero ideal Q*Q is L*L itself and M*L is zero-dimensional.  Off the
        # square M*L states all ten families and L*M is its span swapped.
        stated = []
        real = tensorprod.law_rows
        monkeypatch.setattr(tensorprod, "law_rows", lambda field, groups: stated.append(
            [law[0] for _, laws in groups for law in laws]) or real(field, groups))
        L = direct_sum(_sl2_diag(f), make_sl2(f)) if ideal == "first" else _sl2_diag(f)
        space = {"zero": Subspace.zero(f, L.dim), "full": Subspace.full(f, L.dim),
                 "first": Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(3)])}[ideal]
        data = ideal_sequence_certificate(L, IdealHandle(L, space))
        assert data.report.ok
        assert data.t_ml.m_side is not data.t_ml.n_side and data.t_lm.m_side is not data.t_lm.n_side
        square, ten = list(SQUARE_FAMILIES), ["r1", "r4", "r2", "r3", "r5", "r6", "r7", "r8", "r9", "r10"]
        assert stated == {"zero": [ten, square], "first": [ten, square, square], "full": [square] * 2}[ideal]
        assert (data.t_qq is data.t_ll) == (ideal == "zero")
        for t in (data.t_ml, data.t_lm, data.t_ll, data.t_qq):
            assert t.presentation.relations == _full_span(t.actions)


def _exchange_cases(f):
    """(name, pair): every stock adjoint pair, the M*L pairs six-term forms
    on the zero, first and full ideals of sl2, twisted sl2 and sl2 + sl2,
    and each single-entry bump ``TestSquarePath`` makes."""
    cases = [(make.__name__, MutualActions.adjoint(make(f))) for make in ALGEBRAS]
    for L in (make_sl2(f), sl2_twisted(f), direct_sum(make_sl2(f), make_sl2(f))):
        first = Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(3)])
        for ideal, space in (("zero", Subspace.zero(f, L.dim)), ("first", first), ("full", Subspace.full(f, L.dim))):
            data = ideal_sequence_certificate(L, IdealHandle(L, space))
            # L*M reads the data of M*L with the two sides exchanged
            exchanged = MutualActions(data.t_ml.actions.nm, data.t_ml.actions.mn)
            assert tensorprod._relation_data(data.t_lm.actions) == tensorprod._relation_data(exchanged)
            cases.append((f"{ideal} ideal of {L.dim}-dim {L.labels}", data.t_ml.actions))
    for make in (_sl2_diag, heisenberg):
        cases += [(f"{make.__name__} {kind}", _mutant(make(f), kind)) for kind in BUMPS]
    return cases


class TestExchangeLemma:
    """The relations of (N, M) are the block swap of those of (M, N)."""

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_swapped_span_is_the_exchanged_pairs(self, f):
        refused = 0
        for name, ma in _exchange_cases(f):
            n = 2 * ma.m_side.dim * ma.n_side.dim
            try:
                span = tensorprod.relation_span(ma)
            except IncompatibleActions:  # the lemma is about the data alone
                assert not tensorprod._is_square(ma)
                span, refused = Subspace.span_sparse(f, n, relation_vectors(ma)), refused + 1
            swapped = span.permuted(tensorprod._block_swap(ma))
            assert swapped == _full_span(MutualActions(ma.nm, ma.mn)), name
            assert span.permuted(tensorprod._block_swap(ma), keep=True) == span.add(swapped), name
        assert refused  # bumps that break compatibility are covered too

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_square_verdict_is_read_off_the_relation_data(self, f):
        # the square test compares the two sides' data written out in full:
        # dimension, twist, bracket, and the bracket as all four actions; every
        # stock pair, every bracket pair of the six-term sequences and every
        # bump gets the same verdict from the relation data
        pairs = [ma for _, ma in _exchange_cases(f)]
        for L in (make_sl2(f), sl2_twisted(f), direct_sum(make_sl2(f), make_sl2(f))):
            first = Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(3)])
            for space in (Subspace.zero(f, L.dim), first, Subspace.full(f, L.dim)):
                data = ideal_sequence_certificate(L, IdealHandle(L, space))
                pairs += [t.actions for t in (data.t_lm, data.t_ll, data.t_qq)]
        verdicts = []
        for ma in pairs:
            M, N, mn, nm = ma.m_side, ma.n_side, ma.mn, ma.nm
            verdicts.append(
                (M.dim, M.twist.sparse_cols, M.sparse_c, M.sparse_c, mn.sparse_left, mn.sparse_right,
                 nm.sparse_left) ==
                (N.dim, N.twist.sparse_cols, N.sparse_c, mn.sparse_left, mn.sparse_right, nm.sparse_left,
                 nm.sparse_right))
        assert [tensorprod._is_square(ma) for ma in pairs] == verdicts
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_relation_data_tells_each_bump_apart(self, f):
        # ideal_sequence_certificate shares a span between equal relation
        # data, so the data must hold every table relation_vectors reads
        for make in (_sl2_diag, heisenberg):
            square = tensorprod._relation_data(MutualActions.adjoint(make(f)))
            assert square == square[::-1]
            for kind in BUMPS:
                assert tensorprod._relation_data(_mutant(make(f), kind)) != square, kind


def _square_parts(L):
    ma = MutualActions.adjoint(L)
    eval_m, eval_n = tensorprod._eval_maps(ma)
    return ma, eval_m, eval_n, tensorprod._ambient_twist(L, L)


class TestDescentCertificate:
    """Relations the evaluation maps do not kill go through the full sweep."""

    def test_unkilled_relation_fails_the_sweep(self, sl2):
        ma, eval_m, eval_n, twist = _square_parts(sl2)
        ambient = 2 * sl2.dim * sl2.dim
        # e*f evaluates to h in both factors; its span is twist-stable (the
        # twist is the identity) but not closed under the bracket
        row = unit_vec(QQ, ambient, 1)
        assert any(eval_m.apply(row)) and any(eval_n.apply(row))
        pres = QuotientSpace(Subspace.span(QQ, ambient, [row]))
        labels = [f"g{c}" for c in pres.coset_basis]
        with pytest.raises(BracketNotWellDefined) as info:
            certified_quotient(pres, eval_m, eval_n, twist, labels)
        assert info.value.witness == (row,)

    def test_sweep_runs_only_on_unkilled_rows(self, sl2, monkeypatch):
        ma, eval_m, eval_n, twist = _square_parts(sl2)
        ambient = 2 * sl2.dim * sl2.dim
        pres = QuotientSpace(Subspace.full(QQ, ambient))
        unkilled = sum(1 for r in pres.relations.basis.entries
                       if any(eval_m.apply(r)) or any(eval_n.apply(r)))
        assert 0 < unkilled < ambient
        calls = []
        contains = Subspace.contains_sparse
        monkeypatch.setattr(Subspace, "contains_sparse",
                            lambda self, v: calls.append(v) or contains(self, v))
        algebra = certified_quotient(pres, eval_m, eval_n, twist, [])
        assert algebra.dim == 0
        # one twist test per row, two bracket tests per generator per unkilled row
        assert len(calls) == ambient + 2 * ambient * unkilled

    def test_fold_on_both_legs(self, upper_triangular, monkeypatch):
        # left = right = the commutator algebra's bracket read on the tensor
        # square, as for the boundary quotient and the twist-central presentation
        A = upper_triangular
        ambient = A.dim * A.dim
        fold = to_leibniz(A).bracket_map()
        tw = [A.apply_twist(A.unit(i)) for i in range(A.dim)]
        twist = Matrix.from_columns(QQ, ambient, [sparse_vec(dense_outer(QQ, u, v, ambient)) for u in tw for v in tw])
        h = hochschild_module(A)
        calls = []
        contains = Subspace.contains_sparse
        monkeypatch.setattr(Subspace, "contains_sparse",
                            lambda self, v: calls.append(v) or contains(self, v))
        algebra = certified_quotient(h.presentation, fold, fold, twist, h.algebra.labels)
        assert algebra == h.algebra
        # the fold kills the boundary image: twist tests only, no sweep
        assert len(calls) == h.presentation.relations.dim
        # e11 (x) e12 folds to [e11, e12] = e12, so its span gets the sweep
        row = unit_vec(QQ, ambient, 1)
        assert any(fold.apply(row))
        pres = QuotientSpace(Subspace.span(QQ, ambient, [row]))
        with pytest.raises(BracketNotWellDefined) as info:
            certified_quotient(pres, fold, fold, twist, [f"g{c}" for c in pres.coset_basis])
        assert info.value.witness == (row,)


class TestFactorMaps:
    def test_trivial_actions_give_zero_maps(self, sl2, abelian3):
        t = build_tensor(MutualActions.trivial(sl2, abelian3))
        assert t.into_m.map.is_zero()
        assert t.into_n.map.is_zero()

    def test_square_factor_maps_agree_with_bracket(self, sl2):
        t = build_tensor(MutualActions.adjoint(sl2))
        cm = t.into_m
        assert t.into_n is cm
        for i in range(3):
            for j in range(3):
                g = t.presentation.project(
                    t.embed_mn(sl2.unit(i), sl2.unit(j)))
                assert cm.map.apply(g) == sl2.c[i][j]

    def test_image_is_derived_subalgebra(self, nonlie2):
        t = build_tensor(MutualActions.adjoint(nonlie2))
        cm = t.into_m
        assert cm.map.image() == derived_subspace(nonlie2)


class TestInducedMaps:
    def test_identity_pair_induces_identity(self, nonlie2):
        t = build_tensor(MutualActions.adjoint(nonlie2))
        ident = AlgebraHom(nonlie2, nonlie2, Matrix.identity(QQ, 2))
        hom = induced_tensor_map(ident, ident, t, t)
        assert hom.map == Matrix.identity(QQ, t.algebra.dim)

    def test_non_equivariant_rejected(self, sl2):
        t = build_tensor(MutualActions.adjoint(sl2))
        doubler = AlgebraHom(sl2, sl2, Matrix.from_rows(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
        ident = AlgebraHom(sl2, sl2, Matrix.identity(QQ, 3))
        with pytest.raises(NotEquivariant) as info:
            induced_tensor_map(doubler, ident, t, t)
        # the first violation in (m, n) order, laws in their order
        assert info.value.witness == ("m acting on n", "e", "f")
        assert str(info.value) == "maps do not preserve the actions at ('m acting on n', 'e', 'f')"

    def test_quotient_projection_is_surjective_on_tensors(self, nonlie2):
        data = ideal_sequence_certificate(
            nonlie2, IdealHandle(nonlie2, Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())])))
        assert data.tau.map.is_surjective()


def _dense_equivariance_witness(f_hom, g_hom, src, dst):
    """The dense reference for ``equivariance_witness``: at each (m, n),
    row-major, each of the four source action values under f or g against
    the target action at the images of m and n, in this order; the first
    that differs is the witness."""
    M, N = src.m_side, src.n_side
    f = M.field

    mn_left, mn_right, nm_left, nm_right = (dense_table(f, t, a.target.dim)
                                            for a in (src.mn, src.nm) for t in (a.sparse_left, a.sparse_right))
    for i in range(M.dim):
        fm = f_hom.apply(M.unit(i))
        for j in range(N.dim):
            gn = g_hom.apply(N.unit(j))
            if f_hom.apply(nm_left[j][i]) != dst.nm.act_left(gn, fm):
                return ("n acting on m", N.labels[j], M.labels[i])
            if f_hom.apply(nm_right[i][j]) != dst.nm.act_right(fm, gn):
                return ("m acted by n", M.labels[i], N.labels[j])
            if g_hom.apply(mn_left[i][j]) != dst.mn.act_left(fm, gn):
                return ("m acting on n", M.labels[i], N.labels[j])
            if g_hom.apply(mn_right[j][i]) != dst.mn.act_right(gn, fm):
                return ("n acted by m", N.labels[j], M.labels[i])
    return None


def _table_bumps(ma):
    """ma with one coordinate of one value of one of its four action tables
    moved by one, for every coordinate."""
    f = ma.m_side.field
    for name in ("mn", "nm"):
        a = getattr(ma, name)
        for side in ("sparse_left", "sparse_right"):
            dense = dense_table(f, getattr(a, side), a.target.dim)
            for i, row in enumerate(dense):
                for j, v in enumerate(row):
                    for k in range(len(v)):
                        bumped = replace(a, **{side: sparse_table(_bump(f, dense, i, j, k))})
                        yield replace(ma, **{name: bumped})


class TestEquivarianceAgainstTheDenseLoop:
    """``equivariance_witness`` states its four laws as ``check_laws`` data;
    the dense loop it replaced gives the same witness, or None, on every
    single-entry bump of the adjoint pairs of twisted sl2 and Heisenberg."""

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("make", [_sl2_diag, heisenberg], ids=["twisted sl2", "heisenberg"])
    def test_every_single_entry_bump(self, f, make):
        L = make(f)
        ma, ident = MutualActions.adjoint(L), AlgebraHom(L, L, Matrix.identity(f, L.dim))
        cases = [(ident, ident, ma, ma)] + [(ident, ident, src, ma) for src in _table_bumps(ma)]
        cases += [(ident, ident, ma, dst) for dst in _table_bumps(ma)]
        for r in range(L.dim):
            for c in range(L.dim):
                rows = [list(row) for row in ident.map.entries]
                rows[r][c] = f.add(rows[r][c], f.one())
                bumped = AlgebraHom(L, L, Matrix.from_rows(f, rows))
                cases += [(bumped, ident, ma, ma), (ident, bumped, ma, ma)]
        witnesses = Counter()
        for f_hom, g_hom, src, dst in cases:
            got = tensorprod.equivariance_witness(f_hom, g_hom, src, dst)
            assert got == _dense_equivariance_witness(f_hom, g_hom, src, dst)
            witnesses[None if got is None else got[0]] += 1
        # the unbumped pair is equivariant, and every law is the first to
        # fail somewhere
        assert set(witnesses) == {None, "n acting on m", "m acted by n", "m acting on n", "n acted by m"}, witnesses


class TestOuterActions:
    def test_trivial_underlying_gives_trivial_outer(self):
        a = HomLeibnizAlgebra.abelian(QQ, 2)
        b = HomLeibnizAlgebra.abelian(QQ, 2)
        t = build_tensor(MutualActions.trivial(a, b))
        assert outer_action(t, "m").is_trivial()
        assert outer_action(t, "n").is_trivial()

    def test_formulas_on_square_of_nonlie2(self, nonlie2):
        t = build_tensor(MutualActions.adjoint(nonlie2))
        act = outer_action(t, "m")
        f = QQ
        for a in range(2):
            ta = nonlie2.unit(a)
            for i in range(2):
                for j in range(2):
                    lhs = act.act_left(ta, t.presentation.project(
                        t.embed_mn(nonlie2.unit(i), nonlie2.unit(j))))
                    # direct evaluation of the defining formula
                    v = t.embed_mn(nonlie2.c[a][i],
                                   nonlie2.apply_twist(nonlie2.unit(j)))
                    w = embed_nm(t, nonlie2.c[a][j],
                                 nonlie2.apply_twist(nonlie2.unit(i)))
                    direct = t.presentation.project(
                        tuple(f.sub(x, y) for x, y in zip(v, w)))
                    assert lhs == direct

    def test_battery_on_fixed_instances(self, nonlie2, sl2):
        for alg in (nonlie2, sl2):
            rep = tensor_identity_battery(build_tensor(MutualActions.adjoint(alg)))
            assert rep.ok, [i.name for i in rep.failures()]

    def test_battery_on_random_ideal_pairs(self):
        rng = random.Random(23)
        for _ in range(2):
            parent, ma = random_ideal_pair(QQ, rng)
            rep = tensor_identity_battery(build_tensor(ma))
            assert rep.ok, [i.name for i in rep.failures()]

    def test_perfectness_propagates_to_the_square(self, sl2, sl2_twisted):
        for alg in (sl2, sl2_twisted):
            t = build_tensor(MutualActions.adjoint(alg))
            assert predicates(t.algebra).perfect

    def test_battery_over_prime_fields(self):
        from homleib.generators import heisenberg, sl2 as make_sl2

        f5 = Field(5)
        for alg, expected_dim in ((make_sl2(f5), 3), (heisenberg(f5), 10)):
            t = build_tensor(MutualActions.adjoint(alg))
            assert t.algebra.dim == expected_dim
            rep = tensor_identity_battery(t)
            assert rep.ok, [i.name for i in rep.failures()]


def dense_battery(t):
    """The tensor identity battery as it was written before it became law
    data, dense loops over basis vectors and generator classes: the
    reference for ``tensor_identity_battery``."""
    rep = ExactnessReport(subject="tensor pairing battery")
    M, N = t.m_side, t.n_side
    f = M.field
    T = t.algebra
    into_m, into_n = t.into_m, t.into_n
    act_m = tensorprod.outer_action(t, "m")
    act_n = tensorprod.outer_action(t, "n")
    classes = [dense_vec(f, T.dim, c) for c in t.presentation.projection_map().sparse_cols]  # of the generators
    z = center(T)
    rep.check("first kernel inside the center", z.contains_subspace(into_m.map.kernel()))
    rep.check("second kernel inside the center", z.contains_subspace(into_n.map.kernel()))

    for name, hom, act, F in (("first", into_m, act_m, M), ("second", into_n, act_n, N)):
        ker = hom.map.kernel()
        ok = True
        for g in range(t.ambient_dim):
            v = hom.map.apply(classes[g])
            for k in ker.basis.entries:
                if any(act.act_left(v, k)) or any(act.act_right(k, v)):
                    ok = False
        rep.check(f"{name} factor values act trivially on the kernel", ok)

        ok_left = ok_right = True
        for a in range(F.dim):
            ta = F.apply_twist(F.unit(a))
            for k in range(T.dim):
                ek = T.unit(k)
                if hom.map.apply(act.act_left(F.unit(a), ek)) != \
                        F.bracket(ta, hom.map.apply(ek)):
                    ok_left = False
                if hom.map.apply(act.act_right(ek, F.unit(a))) != \
                        F.bracket(hom.map.apply(ek), ta):
                    ok_right = False
        rep.check(f"{name} factor map intertwines the left outer action", ok_left)
        rep.check(f"{name} factor map intertwines the right outer action", ok_right)

    ok_left = ok_right = True
    for g1 in range(t.ambient_dim):
        cls1 = classes[g1]
        tw1 = T.apply_twist(cls1)
        vm = into_m.map.apply(cls1)
        vn = into_n.map.apply(cls1)
        for g2 in range(t.ambient_dim):
            cls2 = classes[g2]
            br = T.bracket(tw1, cls2)
            if act_m.act_left(vm, cls2) != br or act_n.act_left(vn, cls2) != br:
                ok_left = False
            br2 = T.bracket(cls2, tw1)
            if act_m.act_right(cls2, vm) != br2 or act_n.act_right(cls2, vn) != br2:
                ok_right = False
    rep.check("acting through factor values is the twisted bracket, left", ok_left)
    rep.check("acting through factor values is the twisted bracket, right", ok_right)
    return rep


def _battery_outcome(battery, t):
    """The battery's (name, ok) items, or the type and message of what it raised."""
    try:
        return [(item.name, item.ok) for item in battery(t).items]
    except MathFailure as exc:
        return type(exc).__name__, str(exc)


class TestBatteryDifferential:
    """The law-data battery against the dense reference, item for item."""

    @staticmethod
    def tensors():
        out = [build_tensor(MutualActions.adjoint(make(f)))
               for f in (QQ, Field(5), Field(1000003)) for make in (make_sl2, heisenberg)]
        rng = random.Random(30)
        return out + [build_tensor(random_ideal_pair(f, rng)[1]) for f in (QQ, Field(1000003)) for _ in range(3)]

    def test_same_items_on_squares_pairs_and_bumps(self):
        tensors = self.tensors()
        # every single-entry bump of the bracket and twist of each presented
        # algebra up to dimension 3
        cases = tensors + [replace(t, algebra=bumped) for t in tensors if t.algebra.dim <= 3
                           for _, bumped in _single_entry_perturbations(t.algebra)]
        outcomes = []
        for t in cases:
            outcomes.append(_battery_outcome(tensor_identity_battery, t))
            assert outcomes[-1] == _battery_outcome(dense_battery, t)
        assert all(all(ok for _, ok in out) for out in outcomes[:len(tensors)])
        kinds = Counter("raised" if isinstance(out, tuple) else all(ok for _, ok in out)
                        for out in outcomes[len(tensors):])
        assert kinds["raised"] and kinds[True] and kinds[False], kinds

    def test_same_items_on_bumped_outer_actions(self, nonlie2, sl2_twisted, monkeypatch):
        # every single-entry bump of an outer-action table, handed to both
        # batteries, on a square whose factor maps have a kernel and nonzero
        # values and on one whose twist moves its bracket
        outer, outcomes = tensorprod.outer_action, []
        for L in (nonlie2, sl2_twisted):
            t = build_tensor(MutualActions.adjoint(L))
            for side in "mn":
                act = outer(t, side)
                for which in ("sparse_left", "sparse_right"):
                    for _, table in _sparse_bumps(t.algebra.field, getattr(act, which), t.algebra.dim):
                        bumped = replace(act, **{which: table})
                        monkeypatch.setattr(tensorprod, "outer_action",
                                            lambda tp, s, b=bumped, side=side: b if s == side else outer(tp, s))
                        outcomes.append(_battery_outcome(tensor_identity_battery, t))
                        assert outcomes[-1] == _battery_outcome(dense_battery, t)
        failed = Counter(name for out in outcomes if isinstance(out, list) for name, ok in out if not ok)
        assert failed["first factor values act trivially on the kernel"], failed


class TestExactness:
    def test_degenerate_first_term(self, sl2):
        # zero ideal: the first algebra vanishes, the projection is bijective
        zero = HomLeibnizAlgebra.abelian(QQ, 0)
        incl = AlgebraHom(zero, sl2, Matrix.zero(QQ, 3, 0))
        ident = AlgebraHom(sl2, sl2, Matrix.identity(QQ, 3))
        rep = right_exactness_certificate(
            incl, ident,
            _mutual_with_partner(sl2, zero_space=True),
            MutualActions.adjoint(sl2),
            MutualActions.adjoint(sl2))
        assert rep.ok

    def test_partner_sequence_on_direct_sum(self, sl2, nonlie2):
        # ambient sum, first summand as the ideal, second as the partner
        G = direct_sum(nonlie2, sl2)
        first = Subspace.span(QQ, 5, [G.unit(0), G.unit(1)])
        second = Subspace.span(QQ, 5, [G.unit(2), G.unit(3), G.unit(4)])
        A, incl_a = subalgebra(G, first, "x")
        B, incl_b = subalgebra(G, second, "y")
        quot, proj = quotient_algebra(G, IdealHandle(G, first))
        from homleib.actions import bracket_action

        id_g = AlgebraHom(G, G, Matrix.identity(QQ, 5))
        ma1 = MutualActions(bracket_action(G, (A, incl_a), (B, incl_b)),
                            bracket_action(G, (B, incl_b), (A, incl_a)))
        ma2 = MutualActions(bracket_action(G, (G, id_g), (B, incl_b)),
                            bracket_action(G, (B, incl_b), (G, id_g)))
        # the quotient acts on the partner because the ideal kills it
        ma3 = _quotient_partner_actions(G, quot, proj, B, incl_b)
        f_hom = AlgebraHom(A, G, incl_a.map)
        g_hom = AlgebraHom(G, quot, proj.map)
        rep = right_exactness_certificate(f_hom, g_hom, ma1, ma2, ma3)
        assert rep.ok, [i.name for i in rep.failures()]

    def test_ideal_sequence_on_nonlie2(self, nonlie2):
        data = ideal_sequence_certificate(
            nonlie2, IdealHandle(nonlie2, Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())])))
        assert data.report.ok
        assert data.t_qq.algebra.dim == 2

    def test_ideal_sequence_full_ideal(self, sl2):
        data = ideal_sequence_certificate(sl2, IdealHandle(sl2, Subspace.full(QQ, 3)))
        assert data.report.ok
        assert data.t_qq.algebra.dim == 0
        assert data.sigma.rank() == data.t_ll.algebra.dim


def _mutual_with_partner(partner, zero_space=False):
    zero = HomLeibnizAlgebra.abelian(QQ, 0)
    return MutualActions(HomAction.trivial(zero, partner),
                         HomAction.trivial(partner, zero))


def _quotient_partner_actions(G, quot, proj, B, incl_b):
    """Bracket actions between the quotient by the first summand and the
    second summand: well defined because the two summands bracket to zero."""
    f = G.field
    sec = proj.map.section()

    def via(x_quot, b_vec, swap=False):
        amb = sec.apply(x_quot)
        w = G.bracket(incl_b.map.apply(b_vec), amb) if swap else \
            G.bracket(amb, incl_b.map.apply(b_vec))
        q = incl_b.map.preimage(w)
        assert q is not None and incl_b.map.apply(q) == tuple(w)
        return q

    left_qb = tuple(tuple(via(quot.unit(x), B.unit(m)) for m in range(B.dim))
                    for x in range(quot.dim))
    right_qb = tuple(tuple(via(quot.unit(x), B.unit(m), swap=True) for x in range(quot.dim))
                     for m in range(B.dim))
    act_q_on_b = HomAction(quot, B, sparse_table(left_qb), sparse_table(right_qb))

    def down(v):
        return proj.map.apply(v)

    left_bq = tuple(tuple(down(G.bracket(incl_b.map.col(m), sec.apply(quot.unit(x))))
                          for x in range(quot.dim))
                    for m in range(B.dim))
    right_bq = tuple(tuple(down(G.bracket(sec.apply(quot.unit(x)), incl_b.map.col(m)))
                           for m in range(B.dim))
                     for x in range(quot.dim))
    act_b_on_q = HomAction(B, quot, sparse_table(left_bq), sparse_table(right_bq))
    return MutualActions(act_q_on_b, act_b_on_q)
