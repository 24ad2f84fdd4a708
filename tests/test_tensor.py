from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from homleib.errors import BracketNotWellDefined, IncompatibleActions, NotEquivariant
from homleib.fields import Field
from homleib.linalg import Matrix, QuotientSpace, Subspace, outer, unit_vec
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
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
from homleib.generators import heisenberg, random_ideal_pair, random_trivial_pair, sl2 as make_sl2
from homleib import tensorprod
from homleib.homassoc import hochschild_module, to_leibniz
from homleib.tensorprod import (
    build_tensor,
    commutator_map,
    factor_maps,
    ideal_sequence_certificate,
    induced_tensor_map,
    outer_action,
    relation_vectors,
    right_exactness_certificate,
    tensor_identity_battery,
)

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
    ``relation_vectors``, as the dense reference: each term is a dense pure
    tensor ``outer`` of dense brackets, twist columns and action values,
    summed coordinate by coordinate and read off as a sparse row, empty for
    an instance that vanishes."""
    M, N = ma.m_side, ma.n_side
    f = M.field
    dm, dn = M.dim, N.dim
    size = 2 * dm * dn
    tm = [M.twist.col(i) for i in range(dm)]
    tn = [N.twist.col(j) for j in range(dn)]
    mn_left, mn_right, nm_left, nm_right = ma.mn.left, ma.mn.right, ma.nm.left, ma.nm.right

    def mn(u, v):
        return outer(f, u, v, size)

    def nm(v, u):
        return outer(f, v, u, size, dm * dn)

    def row(plus, minus=()):
        total = [f.zero()] * size
        for op, vecs in ((f.add, plus), (f.sub, minus)):
            for vec in vecs:
                total = [op(a, b) for a, b in zip(total, vec)]
        return tuple((c, x) for c, x in enumerate(total) if x)

    for i in range(dm):
        for j in range(dn):
            for j2 in range(dn):
                yield row([mn(tm[i], N.c[j][j2]), mn(nm_right[i][j2], tn[j])], [mn(nm_right[i][j], tn[j2])])
                yield row([nm(N.c[j][j2], tm[i]), nm(tn[j], nm_right[i][j2])], [mn(nm_left[j][i], tn[j2])])
    for j in range(dn):
        for i in range(dm):
            for i2 in range(dm):
                yield row([nm(tn[j], M.c[i][i2]), nm(mn_right[j][i2], tm[i])], [nm(mn_right[j][i], tm[i2])])
                yield row([mn(M.c[i][i2], tn[j]), mn(tm[i], mn_right[j][i2])], [nm(mn_left[i][j], tm[i2])])
    for i in range(dm):
        for i2 in range(dm):
            for j in range(dn):
                yield row([mn(tm[i], mn_left[i2][j]), mn(tm[i], mn_right[j][i2])])
    for j in range(dn):
        for j2 in range(dn):
            for i in range(dm):
                yield row([nm(tn[j], nm_left[j2][i]), nm(tn[j], nm_right[i][j2])])
    for i in range(dm):
        for j in range(dn):
            for i2 in range(dm):
                for j2 in range(dn):
                    mdown, mup = nm_right[i][j], mn_left[i][j]
                    ndown, nup = mn_right[j][i], nm_left[j][i]
                    m2down, m2up = nm_right[i2][j2], mn_left[i2][j2]
                    n2down, n2up = mn_right[j2][i2], nm_left[j2][i2]
                    yield row([mn(mdown, m2up)], [nm(mup, m2down)])
                    yield row([mn(mdown, n2down)], [nm(mup, n2up)])
                    yield row([mn(nup, m2up)], [nm(ndown, m2down)])
                    yield row([mn(nup, n2down)], [nm(ndown, n2up)])


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


class TestRelations:
    @pytest.mark.parametrize("p", [None, 1000003])
    @pytest.mark.parametrize("make, generated, nonzero, basis", [
        (heisenberg, 76, 60, HEIS_RELATIONS),
        (_sl2_plus_abelian, 360, 300, SL2_AB1_RELATIONS),
    ])
    def test_relation_span_pinned(self, p, make, generated, nonzero, basis):
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
        # rows, and so the RREF basis built from them, come in the same order
        for ma in _relation_cases(f):
            rows = list(relation_vectors(ma))
            full = list(full_relation_rows(ma))
            assert [r for r in rows if r] == [r for r in full if r]
            assert len(rows) < len(full)

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
        contains = Subspace.contains
        monkeypatch.setattr(Subspace, "contains",
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
        twist = Matrix.from_columns(QQ, ambient, [outer(QQ, u, v, ambient) for u in tw for v in tw])
        h = hochschild_module(A)
        calls = []
        contains = Subspace.contains
        monkeypatch.setattr(Subspace, "contains",
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
        into_m, into_n = factor_maps(t)
        assert into_m.map.is_zero()
        assert into_n.map.is_zero()

    def test_square_factor_maps_agree_with_bracket(self, sl2):
        t = build_tensor(MutualActions.adjoint(sl2))
        cm = commutator_map(t)
        for i in range(3):
            for j in range(3):
                g = t.presentation.project(
                    t.embed_mn(sl2.unit(i), sl2.unit(j)))
                assert cm.map.apply(g) == sl2.c[i][j]

    def test_image_is_derived_subalgebra(self, nonlie2):
        t = build_tensor(MutualActions.adjoint(nonlie2))
        cm = commutator_map(t)
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
        with pytest.raises(NotEquivariant):
            induced_tensor_map(doubler, ident, t, t)

    def test_quotient_projection_is_surjective_on_tensors(self, nonlie2):
        data = ideal_sequence_certificate(
            nonlie2, IdealHandle(nonlie2, Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())])))
        assert data.tau.map.is_surjective()


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
                    w = t.embed_nm(nonlie2.c[a][j],
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
    act_q_on_b = HomAction(quot, B, left_qb, right_qb)

    def down(v):
        return proj.map.apply(v)

    left_bq = tuple(tuple(down(G.bracket(incl_b.map.col(m), sec.apply(quot.unit(x))))
                          for x in range(quot.dim))
                    for m in range(B.dim))
    right_bq = tuple(tuple(down(G.bracket(sec.apply(quot.unit(x)), incl_b.map.col(m)))
                           for m in range(B.dim))
                     for x in range(quot.dim))
    act_b_on_q = HomAction(B, quot, left_bq, right_bq)
    return MutualActions(act_q_on_b, act_b_on_q)
