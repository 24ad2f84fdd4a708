"""The identity checker against dense reference loops.

Every validator states its laws as data for ``linalg.check_laws`` on the
cached sparse tables, which evaluates only the instances where a term can
be nonzero.  The dense loops below are the reference: they
bracket, act and twist dense coordinate vectors with their own dense
contraction and compare the two sides of each law at every basis tuple, in
the same loop order.  A perturbed structure constant, twist entry or action
value must give the same report both ways, so every law the perturbation
breaks yields its witnesses, in order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from homleib import actions, algebras, cli, homassoc, homology, linalg, tensorprod
from homleib.actions import HomAction, MutualActions, ideal_pair_actions, self_action
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    derived_subspace,
    quotient_algebra,
    yau_twist,
)
from homleib.errors import (
    FieldMismatch,
    IncompatibleActions,
    InternalInconsistency,
    InvalidAction,
    NotEndomorphism,
    StructureError,
)
from homleib.documents import serialize_algebra
from homleib.extensions import Extension, six_term_check, universal_central_extension
from homleib.fields import Field
from homleib.generators import heisenberg, random_corep, sl2, square_bracket_algebra
from homleib.homassoc import HomAssociativeAlgebra, first_homologies, sequence_check, yau_twist_assoc
from homleib.homology import CoRepresentation, adjoint_corep, trivial_corep
from homleib.linalg import Matrix, Subspace, dense_vec, sparse_table, unit_vec
from homleib.report import ValidationReport
from homleib.tensorprod import build_tensor, relation_vectors

QQ = Field()
GFP = Field(1000003)
FIELDS = (QQ, GFP)


# -- dense reference ----------------------------------------------------------

def dense_table(f, table, dim):
    """The dense view of a sparse action or co-representation table: each
    value as its length-dim coordinate tuple (the tests of actions and
    co-representations read dense values through it)."""
    return tuple(tuple(dense_vec(f, dim, v) for v in row) for row in table)


def dense_contract(f, table, x, y, dim):
    out = [f.zero()] * dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, t in enumerate(table[i][j]):
                    out[k] = f.add(out[k], f.mul(f.mul(xi, yj), t))
    return tuple(out)


def dense_sub(f, u, v):
    return tuple(f.sub(a, b) for a, b in zip(u, v))


def dense_add(f, u, v):
    return tuple(f.add(a, b) for a, b in zip(u, v))


def dense_scale(f, c, v):
    return tuple(f.mul(c, a) for a in v)


def _twisted_units(L):
    return [L.twist.apply(unit_vec(L.field, L.dim, i)) for i in range(L.dim)]


def dense_algebra(L):
    f, n, lb = L.field, L.dim, L.labels
    rep = ValidationReport(subject="hom-leibniz algebra")

    def br(x, y):
        return dense_contract(f, L.c, x, y, n)

    tw = _twisted_units(L)
    for i in range(n):
        for j in range(n):
            if L.twist.apply(L.c[i][j]) != br(tw[i], tw[j]):
                rep.record("multiplicativity", (lb[i], lb[j]),
                           f"twist[{lb[i]},{lb[j]}] != [twist {lb[i]}, twist {lb[j]}]")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if br(tw[i], L.c[j][k]) != dense_sub(f, br(L.c[i][j], tw[k]), br(L.c[i][k], tw[j])):
                    rep.record("hom-leibniz identity", (lb[i], lb[j], lb[k]))
    # [x, x] = 0 for every x exactly when c[i][j] + c[j][i] = 0 for all i, j
    # (the characteristic is not 2)
    rep.flags["hom_lie"] = not any(any(dense_add(f, L.c[i][j], L.c[j][i])) for i in range(n) for j in range(n))
    rep.flags["abelian"] = not any(any(v) for row in L.c for v in row)
    return rep


def dense_hom(h):
    src, tgt = h.source, h.target
    f = src.field
    rep = ValidationReport(subject="algebra homomorphism")
    cols = [h.map.col(i) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            if h.map.apply(src.c[i][j]) != dense_contract(f, tgt.c, cols[i], cols[j], tgt.dim):
                rep.record("bracket preservation", (src.labels[i], src.labels[j]))
    for i in range(src.dim):
        if h.map.apply(src.twist.col(i)) != tgt.twist.apply(cols[i]):
            rep.record("twist compatibility", (src.labels[i],))
    return rep


def dense_action(a):
    L, M = a.actor, a.target
    f = M.field
    rep = ValidationReport(subject="hom-leibniz action", axiom_status={k: True for k in "abcdefgh"})
    left, right = (dense_table(f, t, M.dim) for t in (a.sparse_left, a.sparse_right))

    def al(x, m):
        return dense_contract(f, left, x, m, M.dim)

    def ar(m, x):
        return dense_contract(f, right, m, x, M.dim)

    def br(u, v):
        return dense_contract(f, M.c, u, v, M.dim)

    def neg(v):
        return dense_scale(f, f.neg(f.one()), v)

    tl, tm, tw = _twisted_units(L), _twisted_units(M), M.twist.apply
    lbl, lbm = L.labels, M.labels
    for x in range(L.dim):
        for m in range(M.dim):
            if tw(left[x][m]) != al(tl[x], tm[m]):
                rep.record("g", (lbl[x], lbm[m]))
            if tw(right[m][x]) != ar(tm[m], tl[x]):
                rep.record("h", (lbm[m], lbl[x]))
            for y in range(L.dim):
                bxy = L.c[x][y]
                if ar(tm[m], bxy) != dense_sub(f, ar(right[m][x], tl[y]), ar(right[m][y], tl[x])):
                    rep.record("a", (lbm[m], lbl[x], lbl[y]))
                if al(bxy, tm[m]) != dense_sub(f, ar(left[x][m], tl[y]), al(tl[x], right[m][y])):
                    rep.record("b", (lbl[x], lbl[y], lbm[m]))
                if al(tl[x], left[y][m]) != neg(al(tl[x], right[m][y])):
                    rep.record("c", (lbl[x], lbl[y], lbm[m]))
            for m2 in range(M.dim):
                bmm = M.c[m][m2]
                if al(tl[x], bmm) != dense_sub(f, br(left[x][m], tm[m2]), br(left[x][m2], tm[m])):
                    rep.record("d", (lbl[x], lbm[m], lbm[m2]))
                if ar(bmm, tl[x]) != dense_add(f, br(right[m][x], tm[m2]), br(tm[m], right[m2][x])):
                    rep.record("e", (lbm[m], lbm[m2], lbl[x]))
                if br(tm[m], left[x][m2]) != neg(br(tm[m], right[m2][x])):
                    rep.record("f", (lbm[m], lbl[x], lbm[m2]))
    rep.flags["trivial"] = a.is_trivial()
    return rep


def dense_compat(ma):
    M, N = ma.m_side, ma.n_side
    f = M.field
    mn_left, mn_right = (dense_table(f, t, N.dim) for t in (ma.mn.sparse_left, ma.mn.sparse_right))
    nm_left, nm_right = (dense_table(f, t, M.dim) for t in (ma.nm.sparse_left, ma.nm.sparse_right))
    rep = ValidationReport(subject="mutual action compatibility",
                           axiom_status={f"c{i}": True for i in range(1, 9)})

    def c(table, x, y, dim):
        return dense_contract(f, table, x, y, dim)

    lm, ln = M.labels, N.labels
    for m in range(M.dim):
        em = unit_vec(f, M.dim, m)
        for n in range(N.dim):
            en = unit_vec(f, N.dim, n)
            for m2 in range(M.dim):
                em2 = unit_vec(f, M.dim, m2)
                if c(nm_left, mn_left[m][n], em2, M.dim) != c(M.c, nm_right[m][n], em2, M.dim):
                    rep.record("c1", (lm[m], ln[n], lm[m2]))
                if c(nm_left, mn_right[n][m], em2, M.dim) != c(M.c, nm_left[n][m], em2, M.dim):
                    rep.record("c2", (ln[n], lm[m], lm[m2]))
                if c(nm_right, em, mn_left[m2][n], M.dim) != c(M.c, em, nm_right[m2][n], M.dim):
                    rep.record("c3", (lm[m], lm[m2], ln[n]))
                if c(nm_right, em, mn_right[n][m2], M.dim) != c(M.c, em, nm_left[n][m2], M.dim):
                    rep.record("c4", (lm[m], ln[n], lm[m2]))
            for n2 in range(N.dim):
                en2 = unit_vec(f, N.dim, n2)
                if c(mn_left, nm_left[n][m], en2, N.dim) != c(N.c, mn_right[n][m], en2, N.dim):
                    rep.record("c5", (ln[n], lm[m], ln[n2]))
                if c(mn_left, nm_right[m][n], en2, N.dim) != c(N.c, mn_left[m][n], en2, N.dim):
                    rep.record("c6", (lm[m], ln[n], ln[n2]))
                if c(mn_right, en, nm_left[n2][m], N.dim) != c(N.c, en, mn_right[n2][m], N.dim):
                    rep.record("c7", (ln[n], ln[n2], lm[m]))
                if c(mn_right, en, nm_right[m][n2], N.dim) != c(N.c, en, mn_left[m][n2], N.dim):
                    rep.record("c8", (ln[n], lm[m], ln[n2]))
    return rep


def dense_assoc(A):
    f, n, lb = A.field, A.dim, A.labels
    rep = ValidationReport(subject="hom-associative algebra")

    def prod(x, y):
        return dense_contract(f, A.p, x, y, n)

    tw = [A.twist.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if A.twist.apply(A.p[i][j]) != prod(tw[i], tw[j]):
                rep.record("multiplicativity", (lb[i], lb[j]))
            for k in range(n):
                if prod(tw[i], A.p[j][k]) != prod(A.p[i][j], tw[k]):
                    rep.record("hom-associativity", (lb[i], lb[j], lb[k]))
    rep.flags["commutative"] = A.is_commutative()
    return rep


def dense_corep(M):
    L = M.algebra
    f, dm = L.field, M.space_dim
    rep = ValidationReport(subject="hom-co-representation", axiom_status={k: True for k in "abcde"})
    left, right = (dense_table(f, t, dm) for t in (M.sparse_left, M.sparse_right))

    def al(x, m):
        return dense_contract(f, left, x, m, dm)

    def ar(m, x):
        return dense_contract(f, right, m, x, dm)

    tl, tm, tw = _twisted_units(L), [M.twist.col(i) for i in range(dm)], M.twist.apply
    lbl, lbm = L.labels, tuple(f"m{i + 1}" for i in range(dm))
    for x in range(L.dim):
        for m in range(dm):
            if tw(left[x][m]) != al(tl[x], tm[m]):
                rep.record("d", (lbl[x], lbm[m]))
            if tw(right[m][x]) != ar(tm[m], tl[x]):
                rep.record("e", (lbm[m], lbl[x]))
            for y in range(L.dim):
                bxy = L.c[x][y]
                if al(bxy, tm[m]) != dense_sub(f, al(tl[x], left[y][m]), al(tl[y], left[x][m])):
                    rep.record("a", (lbl[x], lbl[y], lbm[m]))
                if ar(tm[m], bxy) != dense_sub(f, ar(left[y][m], tl[x]), al(tl[y], right[m][x])):
                    rep.record("b", (lbm[m], lbl[x], lbl[y]))
                if ar(right[m][x], tl[y]) != tuple(f.neg(v) for v in al(tl[y], right[m][x])):
                    rep.record("c", (lbm[m], lbl[x], lbl[y]))
    return rep


# -- instances and perturbations ----------------------------------------------

def nonlie2(f):
    return HomLeibnizAlgebra.from_brackets(f, 2, {(1, 1): {0: 1}}, Matrix.from_rows(f, [[1, 1], [0, 1]]))


def sl2_twisted(f):
    return yau_twist(sl2(f), Matrix.from_rows(f, [[4, 0, 0], [0, f.div(1, 4), 0], [0, 0, 1]]))


ALGEBRAS = (nonlie2, sl2, sl2_twisted, heisenberg, square_bracket_algebra)


def dual_numbers(f):
    return HomAssociativeAlgebra.from_products(
        f, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, labels=("1", "x"))


def upper_triangular(f):
    return HomAssociativeAlgebra.from_products(
        f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        labels=("e11", "e12", "e22"))


def twisted_upper(f):
    # conjugation by diag(1, 2, 1) is an automorphism of the upper triangular matrices
    return yau_twist_assoc(upper_triangular(f), Matrix.from_rows(f, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))


ASSOCIATIVE = (dual_numbers, upper_triangular, twisted_upper)


def _bump_table(f, table, i, j, k, delta):
    """The table with delta added at coordinate k of the value table[i][j]."""
    rows = [list(r) for r in table]
    v = list(rows[i][j])
    v[k] = f.add(v[k], delta)
    rows[i][j] = tuple(v)
    return tuple(tuple(r) for r in rows)


def _bump_matrix(m, r, c, delta):
    f = m.field
    rows = [list(row) for row in m.entries]
    rows[r][c] = f.add(rows[r][c], delta)
    return Matrix(f, m.rows, m.cols, tuple(tuple(row) for row in rows))


def _single_entry_perturbations(L):
    """(cell, algebra) for each structure constant c[i][j][k] and each twist
    entry (r, c) of L moved by one."""
    f, n = L.field, L.dim
    out = [(("c", i, j, k), HomLeibnizAlgebra(f, n, _bump_table(f, L.c, i, j, k, f.one()), L.twist, L.labels))
           for i in range(n) for j in range(n) for k in range(n)]
    out += [(("t", r, c), HomLeibnizAlgebra(f, n, L.c, _bump_matrix(L.twist, r, c, f.one()), L.labels))
            for r in range(n) for c in range(n)]
    return out


def _pick_table_entry(draw, table):
    i = draw(st.integers(0, len(table) - 1))
    j = draw(st.integers(0, len(table[i]) - 1))
    k = draw(st.integers(0, len(table[i][j]) - 1))
    return i, j, k


def _pick_matrix_entry(draw, m):
    return draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))


def _perturbed_algebra(draw, f, L, delta):
    if draw(st.booleans()):
        return HomLeibnizAlgebra(f, L.dim, _bump_table(f, L.c, *_pick_table_entry(draw, L.c), delta),
                                 L.twist, L.labels)
    return HomLeibnizAlgebra(f, L.dim, L.c, _bump_matrix(L.twist, *_pick_matrix_entry(draw, L.twist), delta),
                             L.labels)


def _perturbed_action(draw, f, a, delta, sides=("left", "right", "target")):
    side = draw(st.sampled_from(sides))
    if side == "target":
        return HomAction(a.actor, _perturbed_algebra(draw, f, a.target, delta), a.sparse_left, a.sparse_right)
    table = dense_table(f, getattr(a, f"sparse_{side}"), a.target.dim)
    bumped = sparse_table(_bump_table(f, table, *_pick_table_entry(draw, table), delta))
    return HomAction(a.actor, a.target, *((bumped, a.sparse_right) if side == "left" else (a.sparse_left, bumped)))


def _mutual(draw, f):
    if draw(st.booleans()):
        return MutualActions.adjoint(draw(st.sampled_from(ALGEBRAS))(f))
    H = heisenberg(f)
    return ideal_pair_actions(H, derived_subspace(H), Subspace.full(f, H.dim))


@st.composite
def cases(draw):
    """(kind, object) for an object over Q or GF(1000003) with one entry moved
    by a nonzero amount."""
    f = draw(st.sampled_from(FIELDS))
    delta = f.from_int(draw(st.sampled_from([-2, -1, 1, 3])))
    if draw(st.booleans()):
        delta = f.div(delta, f.from_int(2))
    kind = draw(st.sampled_from(["algebra", "hom", "action", "compat", "assoc", "corep"]))
    if kind == "algebra":
        return kind, _perturbed_algebra(draw, f, draw(st.sampled_from(ALGEBRAS))(f), delta)
    if kind == "hom":
        L = draw(st.sampled_from(ALGEBRAS))(f)
        quot, proj = quotient_algebra(L, IdealHandle(L, derived_subspace(L)))
        h = draw(st.sampled_from([AlgebraHom(L, L, Matrix.identity(f, L.dim)), proj]))
        what = draw(st.sampled_from(["map", "source", "target"]))
        if what == "map":
            m = h.map
            if not m.rows:
                return kind, h
            bumped = _bump_matrix(m, *_pick_matrix_entry(draw, m), delta)
            return kind, AlgebraHom(h.source, h.target, bumped)
        if what == "source":
            return kind, AlgebraHom(_perturbed_algebra(draw, f, h.source, delta), h.target, h.map)
        if not h.target.dim:
            return kind, h
        return kind, AlgebraHom(h.source, _perturbed_algebra(draw, f, h.target, delta), h.map)
    if kind == "action":
        return kind, _perturbed_action(draw, f, self_action(draw(st.sampled_from(ALGEBRAS))(f)), delta)
    if kind == "compat":
        ma = _mutual(draw, f)
        if draw(st.booleans()):
            return kind, MutualActions(_perturbed_action(draw, f, ma.mn, delta, ("left", "right")), ma.nm)
        return kind, MutualActions(ma.mn, _perturbed_action(draw, f, ma.nm, delta, ("left", "right")))
    if kind == "assoc":
        A = draw(st.sampled_from(ASSOCIATIVE))(f)
        p, twist = A.p, A.twist
        if draw(st.booleans()):
            p = _bump_table(f, p, *_pick_table_entry(draw, p), delta)
        else:
            twist = _bump_matrix(twist, *_pick_matrix_entry(draw, twist), delta)
        return kind, HomAssociativeAlgebra(f, A.dim, p, twist, A.labels)
    L = draw(st.sampled_from(ALGEBRAS))(f)
    M = draw(st.sampled_from([adjoint_corep(L), trivial_corep(L, 2, Matrix.from_rows(f, [[1, 2], [0, 3]]))]))
    left, right = (dense_table(f, t, M.space_dim) for t in (M.sparse_left, M.sparse_right))
    twist = M.twist
    part = draw(st.sampled_from(["left", "right", "twist"]))
    if part == "left":
        left = _bump_table(f, left, *_pick_table_entry(draw, left), delta)
    elif part == "right":
        right = _bump_table(f, right, *_pick_table_entry(draw, right), delta)
    else:
        twist = _bump_matrix(twist, *_pick_matrix_entry(draw, twist), delta)
    return kind, CoRepresentation(L, M.space_dim, twist, sparse_table(left), sparse_table(right))


def both_reports(kind, obj):
    if kind == "compat":
        return obj.check_compatible(), dense_compat(obj)
    dense = {"algebra": dense_algebra, "hom": dense_hom, "action": dense_action,
             "assoc": dense_assoc, "corep": dense_corep}[kind]
    return obj.validate(), dense(obj)


class TestAgainstDenseLoops:
    @given(cases())
    def test_perturbed_reports_match(self, case):
        kind, obj = case
        sparse, dense = both_reports(kind, obj)
        assert sparse.to_dict() == dense.to_dict()
        # a broken law is reported with its witnesses, never silently passed
        assert sparse.valid == dense.valid

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_every_single_entry_perturbation(self, f):
        """Sweep: each structure constant and twist entry of sl2 twisted moved
        by one; the reports agree, and most moves break some law."""
        perturbed = _single_entry_perturbations(sl2_twisted(f))
        broken = 0
        for cell, P in perturbed:
            for kind, obj in (("algebra", P), ("action", self_action(P)), ("corep", adjoint_corep(P)),
                              ("compat", MutualActions.adjoint(P))):
                sparse, dense = both_reports(kind, obj)
                assert sparse.to_dict() == dense.to_dict(), (kind, cell)
            broken += not P.validate().valid
        assert broken > len(perturbed) // 2

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_every_single_entry_perturbation_of_sparse_brackets(self, f):
        """Sweep on brackets of sparse support, where the Hom-Leibniz identity
        is checked only on the triples off which it is zero by sparsity: each
        structure constant and twist entry of the abelian algebra twisted by
        diag(2, -2, 3) and of the Heisenberg algebra moved by one."""
        abelian = HomLeibnizAlgebra.abelian(f, 3, Matrix.from_rows(f, [[2, 0, 0], [0, -2, 0], [0, 0, 3]]))
        identity_broken = 0
        for L in (abelian, heisenberg(f)):
            for cell, P in _single_entry_perturbations(L):
                sparse, dense = both_reports("algebra", P)
                assert sparse.to_dict() == dense.to_dict(), (L.labels, cell)
                identity_broken += any(v.law == "hom-leibniz identity" for v in sparse.violations)
        assert identity_broken > 0

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_every_single_entry_perturbation_of_products_and_maps(self, f):
        """Sweep: each product constant and twist entry of the dual numbers
        and of the twisted upper triangular matrices, and each entry of the
        identity map of sl2 twisted, moved by one."""
        broken = []
        for A in (dual_numbers(f), twisted_upper(f)):
            n = A.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        P = HomAssociativeAlgebra(f, n, _bump_table(f, A.p, i, j, k, f.one()), A.twist, A.labels)
                        broken.append(both_reports("assoc", P))
                    T = HomAssociativeAlgebra(f, n, A.p, _bump_matrix(A.twist, i, j, f.one()), A.labels)
                    broken.append(both_reports("assoc", T))
        L = sl2_twisted(f)
        for r in range(3):
            for c in range(3):
                bumped = _bump_matrix(Matrix.identity(f, 3), r, c, f.one())
                broken.append(both_reports("hom", AlgebraHom(L, L, bumped)))
        for sparse, dense in broken:
            assert sparse.to_dict() == dense.to_dict()
        assert sum(not sparse.valid for sparse, _ in broken) > len(broken) // 2

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_valid_instances_pass(self, f):
        for make in ALGEBRAS:
            L = make(f)
            assert L.validate().valid and dense_algebra(L).valid
            assert self_action(L).validate().to_dict() == dense_action(self_action(L)).to_dict()
            assert adjoint_corep(L).validate().valid
        for make in ASSOCIATIVE:
            assert make(f).validate().to_dict() == dense_assoc(make(f)).to_dict()


def _abelian3(f):
    return HomLeibnizAlgebra.abelian(f, 3, Matrix.from_rows(f, [[2, 0, 0], [0, -2, 0], [0, 0, 3]]))


def _sparse_cases(f):
    """(kind, object) for valid instances of sparse support of every
    validator that evaluates only the instances that can be nonzero: the
    twisted abelian and the Heisenberg algebra, maps, trivial, adjoint and
    ideal-pair actions, co-representations (random ones among them) and the
    upper triangular matrices."""
    A, H = _abelian3(f), heisenberg(f)
    _, proj = quotient_algebra(H, IdealHandle(H, derived_subspace(H)))
    rng = random.Random(11)
    return [("algebra", A), ("algebra", H),
            ("hom", AlgebraHom(H, H, Matrix.identity(f, 3))), ("hom", proj),
            ("action", self_action(H)), ("action", HomAction.trivial(A, H)),
            ("compat", MutualActions.adjoint(H)), ("compat", MutualActions.trivial(A, H)),
            ("compat", ideal_pair_actions(H, derived_subspace(H), Subspace.full(f, 3))),
            ("corep", adjoint_corep(H)), ("corep", trivial_corep(A, 2, Matrix.from_rows(f, [[1, 2], [0, 3]]))),
            *(("corep", random_corep(f, rng, max_dim=3)[1]) for _ in range(3)),
            ("assoc", upper_triangular(f))]


def _entry_bumps(f, table):
    """(cell, table) with one coordinate of one value moved by one, for every
    coordinate."""
    return [((i, j, k), _bump_table(f, table, i, j, k, f.one()))
            for i in range(len(table)) for j in range(len(table[i])) for k in range(len(table[i][j]))]


def _sparse_bumps(f, table, dim):
    """``_entry_bumps`` of a sparse table, read and bumped in its dense view."""
    return [(cell, sparse_table(t)) for cell, t in _entry_bumps(f, dense_table(f, table, dim))]


def _matrix_bumps(m):
    return [((r, c), _bump_matrix(m, r, c, m.field.one())) for r in range(m.rows) for c in range(m.cols)]


def _bumps(f, kind, obj):
    """(cell, object) for obj with one entry of a table its validator reads
    moved by one, for every entry."""
    def each(name, bumps, build):
        return [((name, *cell), build(t)) for cell, t in bumps]

    if kind == "algebra":
        return _single_entry_perturbations(obj)
    if kind == "hom":
        m = obj.map
        return each("map", _matrix_bumps(m), lambda b: AlgebraHom(obj.source, obj.target, b)) + \
            each("source", _single_entry_perturbations(obj.source), lambda P: AlgebraHom(P, obj.target, obj.map))
    if kind == "action":
        left, right, dm = obj.sparse_left, obj.sparse_right, obj.target.dim
        return each("left", _sparse_bumps(f, left, dm), lambda t: HomAction(obj.actor, obj.target, t, right)) + \
            each("right", _sparse_bumps(f, right, dm), lambda t: HomAction(obj.actor, obj.target, left, t))
    if kind == "compat":
        return each("mn", _bumps(f, "action", obj.mn), lambda a: MutualActions(a, obj.nm)) + \
            each("nm", _bumps(f, "action", obj.nm), lambda a: MutualActions(obj.mn, a))
    if kind == "corep":
        M = partial(CoRepresentation, obj.algebra, obj.space_dim)
        left, right, dm = obj.sparse_left, obj.sparse_right, obj.space_dim
        return each("left", _sparse_bumps(f, left, dm), lambda t: M(obj.twist, t, right)) + \
            each("right", _sparse_bumps(f, right, dm), lambda t: M(obj.twist, left, t)) + \
            each("twist", _matrix_bumps(obj.twist), lambda t: M(t, left, right))
    A = partial(HomAssociativeAlgebra, f, obj.dim)
    return each("p", _entry_bumps(f, obj.p), lambda t: A(t, obj.twist, obj.labels)) + \
        each("twist", _matrix_bumps(obj.twist), lambda t: A(obj.p, t, obj.labels))


class TestSparseSupports:
    """Each validator evaluates only the law instances whose terms can be
    nonzero, by the inputs' sparsity; the reports are the full sweep's."""

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_single_entry_bumps_of_sparse_instances(self, f):
        """Every single-entry bump of every table a validator reads, on
        sparse instances: the report matches the dense loops, order
        included, and each validator sees bumps that break a law."""
        broken = Counter()
        for kind, obj in _sparse_cases(f):
            assert both_reports(kind, obj)[0].valid, kind
            for cell, bumped in _bumps(f, kind, obj):
                sparse, dense = both_reports(kind, bumped)
                assert sparse.to_dict() == dense.to_dict(), (kind, cell)
                broken[kind] += not sparse.valid
        assert set(broken) == {"algebra", "hom", "action", "compat", "corep", "assoc"}
        assert all(broken.values()), broken

    def test_instances_evaluated(self, evaluated):
        """Pins of the instances each validator evaluates, law by law.  In
        the Heisenberg algebra every bracket lands in the centre, so a term
        that brackets or acts twice is empty: its Hom-Leibniz identity, the
        action laws a-f of its adjoint action and co-representation and all
        its compatibility laws are zero by sparsity, and the laws of a single
        bracket or action run only where that is nonzero: g, h, d and e where
        x acts on m or m on x, two pairs each, and none under the trivial
        action.  sl2 twisted keeps 18 of 27 identity triples.  A law whose
        two sides hold the same terms is not evaluated at all: the twist
        compatibility of an identity map of an algebra with the identity
        twist, and every compatibility law of an adjoint pair."""
        H, A, f = heisenberg(QQ), _abelian3(QQ), QQ
        cases = [
            (H.validate, {"multiplicativity": 2}),
            (AlgebraHom(H, H, Matrix.identity(f, 3)).validate,
             {"bracket preservation": 2}),
            (self_action(H).validate, {"g": 2, "h": 2}),
            (HomAction.trivial(A, H).validate, {}),
            (MutualActions.adjoint(H).check_compatible, {}),
            (MutualActions.trivial(A, H).check_compatible, {}),
            (adjoint_corep(H).validate, {"d": 2, "e": 2}),
            (sl2_twisted(f).validate, {"multiplicativity": 6, "hom-leibniz identity": 18}),
            (MutualActions.adjoint(sl2_twisted(f)).check_compatible, {}),
        ]
        for build, pin in cases:
            evaluated.clear()
            assert build().valid
            assert Counter(name for name, _ in evaluated) == pin

    def test_reports_match_the_full_grid(self, evaluated):
        """On random sparse multilinear law data over Q and GF(1000003),
        ``check_laws`` records what every instance of the full grid records,
        order included, whether the outer indices are none or all but the
        last."""
        rng = random.Random(5)
        violated = 0
        for f in FIELDS:
            for _ in range(60):
                outer_dims, groups = _random_laws(f, rng)
                got, want = ValidationReport("laws"), ValidationReport("laws")
                linalg.check_laws(f, got, outer_dims, groups)
                _full_grid(f, want, outer_dims, groups)
                assert got.to_dict() == want.to_dict(), (outer_dims, groups)
                violated += len(want.violations)
        # some evaluated instances fail and some hold
        assert 0 < violated < len(evaluated)

    def test_exact_rule_on_hom_associativity(self, evaluated):
        """Hom-associativity runs on its two sides as terms: the 5 triples
        of upper triangular where t(x) (yz) or (xy) t(z) can be nonzero, of
        the 19 where xy or yz is."""
        A = upper_triangular(QQ)
        assert A.validate().valid
        p, tw = A.sparse_p, A.twist.sparse_cols
        sides = ((p, (tw, 0), (p, 1, 2)), (p, (p, 0, 1), (tw, 2)))
        rule = [idx for idx in itertools.product(range(3), repeat=3) if any(_can_be_nonzero(t, idx) for t in sides)]
        assert [idx for name, idx in evaluated if name == "hom-associativity"] == rule
        assert len(rule) == 5

    def test_large_presented_algebra(self):
        """The tensor square of a 10-dim abelian algebra under trivial
        actions presents an abelian algebra of dim 200; its validation keeps
        a few MB, memory that follows the nonzeros, not the 200^3 grid."""
        f = QQ
        A = HomLeibnizAlgebra.abelian(f, 10, Matrix.from_rows(f, [[2 if i == j else 0 for j in range(10)]
                                                                 for i in range(10)]))
        B = build_tensor(MutualActions.trivial(A, A)).algebra
        assert B.dim == 200
        B = HomLeibnizAlgebra(f, B.dim, B.c, B.twist, B.labels)
        B.sparse_c, B.twist.sparse_cols
        tracemalloc.start()
        try:
            assert B.validate().valid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak


def _can_be_nonzero(term, idx):
    """The support rule of ``linalg.check_laws`` for one term at one index
    tuple, by brute force."""
    def at(leg):
        vectors, *pos = leg
        for p in pos:
            vectors = vectors[idx[p]]
        return [a for a, _ in vectors]

    table, u, *v = term
    if not v:
        return any(table[a] for a in at(u))
    return any(table[a][b] for a in at(u) for b in at(v[0]))


def _random_laws(f, rng):
    """Random sparse multilinear law data for ``check_laws``: outer dims and
    groups of one to three laws, each group's dims extending the outer ones.
    A group has one to four positions, and each term splits them, in a
    random order, between its legs, at most two to a leg: a linear term's
    one leg names them all, so it appears only in groups of at most two
    positions, and a leg of a bilinear term may name none."""
    dims = tuple(rng.randint(1, 3) for _ in range(rng.choice((2, 3))))
    k, basis = rng.choice((0, len(dims) - 1)), rng.randint(1, 3)

    def vec():
        return tuple((a, f.from_int(rng.choice((1, -1, 2)))) for a in range(basis) if rng.random() < 0.35)

    def law(n, gdims):
        def leg(pos):
            def block(rest):
                return tuple(block(rest[1:]) for _ in range(gdims[rest[0]])) if rest else vec()
            return (block(pos), *pos)

        def term():
            pos = rng.sample(range(n), n)
            if n <= 2 and rng.random() < 0.3:
                return tuple(vec() for _ in range(basis)), leg(pos)
            cut = rng.randint(max(n - 2, 0), min(n, 2))
            return tuple(tuple(vec() for _ in range(basis)) for _ in range(basis)), leg(pos[:cut]), leg(pos[cut:])

        plus = [term() for _ in range(rng.randint(1, 2))]
        # a law whose sides agree but for order holds wherever it runs
        minus = rng.sample(plus, len(plus)) if rng.random() < 0.3 else [term() for _ in range(rng.randint(0, 2))]
        witness = tuple((tuple(f"x{p}.{i}" for i in range(gdims[p])), p) for p in range(n))
        detail = ["at " + " ".join(f"{{{i}}}" for i in range(n))] if rng.random() < 0.5 else []
        return (f"law{rng.randint(0, 99)}", witness, plus, minus, *detail)

    groups = []
    for _ in range(rng.randint(1, 2)):
        gdims = dims[:k] + tuple(rng.randint(1, 3) for _ in range(rng.randint(max(1 - k, 0), 4 - k)))
        groups.append((gdims, [law(len(gdims), gdims) for _ in range(rng.randint(1, 3))]))
    return dims[:k], groups


def _own(f, values):
    """A table or a leg's vectors of law data as the structure's own values:
    the integers of a ``Cleared`` pair each divided by its D, plain values
    as they are."""
    if type(values) is not linalg.Cleared:
        return values
    ints, d = values

    def down(x):  # a (k, value) pair, or nested tuples of them
        return (x[0], f.div(x[1], d)) if x and type(x[0]) is int else tuple(map(down, x))

    return down(ints)


def _law_scale(law):
    """K of a law: the lcm over its terms of the product of the D's of the
    term's ``Cleared`` table and legs."""
    return math.lcm(*(math.prod(x.scale for x in (table, *(leg[0] for leg in legs)) if type(x) is linalg.Cleared)
                      for table, *legs in law[2] + law[3]))


def _grid_sum(f, terms, idx):
    """The signed sum of terms at idx, evaluated term by term on the
    structures' own values."""
    out = {}
    for table, *legs in terms:
        table, vecs = _own(f, table), []
        for vectors, *pos in legs:
            vectors = _own(f, vectors)
            for p in pos:
                vectors = vectors[idx[p]]
            vecs.append(vectors)
        cells = [(table[a], x) for a, x in vecs[0]] if len(vecs) == 1 else \
            [(table[a][b], f.mul(x, y)) for a, x in vecs[0] for b, y in vecs[1]]
        for cell, c in cells:
            for k, t in cell:
                out[k] = f.add(out.get(k, f.zero()), f.mul(c, t))
    return {k: x for k, x in out.items() if x}


def _full_grid(f, report, outer_dims, groups):
    """``check_laws`` without a support: every law at every index tuple of
    its group, in the same loop order."""
    for idx in itertools.product(*map(range, outer_dims)):
        for dims, laws in groups:
            for rest in itertools.product(*map(range, dims[len(idx):])):
                jdx = idx + rest
                for name, witness, plus, minus, *detail in laws:
                    if _grid_sum(f, plus, jdx) != _grid_sum(f, minus, jdx):
                        labels = tuple(lb[jdx[p]] for lb, p in witness)
                        report.record(name, labels, *(d.format(*labels) for d in detail))


def _first_dense_failure(f, table, endo, labels):
    """The first basis pair whose value endo does not carry to the value at
    its images, by the dense loop, or None."""
    n = len(labels)
    return next(((labels[i], labels[j]) for i in range(n) for j in range(n)
                 if endo.apply(table[i][j]) != dense_contract(f, table, endo.col(i), endo.col(j), n)),
                None)


def _law_data(module, build):
    """The (field, groups) of each ``check_laws`` call that ``module`` makes
    while ``build()`` runs."""
    calls = []
    real = module.check_laws

    def spy(field, report, outer_dims, groups):
        calls.append((field, groups))
        real(field, report, outer_dims, groups)

    with mock.patch.object(module, "check_laws", spy):
        build()
    return calls


def _term(term) -> tuple:
    """A term of a law as (table, u, p, r, v, q, s): its first leg is
    u[idx[p]], or u[idx[p]][idx[r]] where r is not None, and v, q, s its
    second leg the same way (v None for a linear term)."""
    table, (u, p, *r), *v = term
    (v, q, *s), = v or [(None, None)]
    return table, u, p, *(r or [None]), v, q, *(s or [None])


def _dense_row(f, law, jdx, size):
    """The signed sum of a law instance from the dense tables, a linear term
    being the bilinear one with the constant second leg 1, on the
    structures' own values."""
    total = (f.zero(),) * size
    for combine, terms in ((dense_add, law[2]), (dense_sub, law[3])):
        for table, u, p, r, v, q, s in map(_term, terms):
            table, u, v = _own(f, table), _own(f, u), _own(f, v)
            x = u[jdx[p]] if r is None else u[jdx[p]][jdx[r]]
            if v is None:
                table, y = [[cols] for cols in table], ((0, f.one()),)
            else:
                y = v[jdx[q]] if s is None else v[jdx[q]][jdx[s]]
            dense = [[dense_vec(f, size, e) for e in row] for row in table]
            total = combine(f, total, dense_contract(f, dense, dense_vec(f, len(table), x),
                                                     dense_vec(f, len(table[0]), y), size))
    return total


@st.composite
def perturbed_sl2_laws(draw):
    """The action or compatibility validator of sl2's adjoint action, plain
    or twisted, over Q or GF(1000003), with one entry moved."""
    f = draw(st.sampled_from(FIELDS))
    delta = f.from_int(draw(st.sampled_from([-2, -1, 1, 3])))
    a = self_action(draw(st.sampled_from([sl2, sl2_twisted]))(f))
    if draw(st.booleans()):
        return _perturbed_action(draw, f, a, delta).validate
    bumped = _perturbed_action(draw, f, a, delta, ("left", "right"))
    return MutualActions(*draw(st.sampled_from([(bumped, a), (a, bumped)]))).check_compatible


class TestLawRows:
    """``linalg.law_rows`` runs ``check_laws``' own support and term data: on
    the same law data, an instance is recorded exactly when its row is
    nonzero, and each row is K times the dense signed sum, K the law's."""

    @given(perturbed_sl2_laws())
    def test_check_laws_records_exactly_the_nonzero_rows(self, validate):
        (f, groups), = _law_data(actions, validate)
        sums, at = linalg._law_sums(f, 0, groups)
        instances = [at(key) for group in sums for key in sorted(group)]
        rows = list(linalg.law_rows(f, groups))
        assert len(rows) == len(instances)
        expected = []
        for (jdx, law), row in zip(instances, rows):
            assert dense_vec(f, 3, row) == tuple(f.mul(_law_scale(law), x) for x in _dense_row(f, law, jdx, 3))
            if row:
                expected.append((law[0], tuple(lb[jdx[p]] for lb, p in law[1])))
        rep = ValidationReport(subject="rows")
        linalg.check_laws(f, rep, (), groups)
        assert [(v.law, v.witness) for v in rep.violations] == expected
        # the validator's outer loop only orders the same records
        assert sorted((v.law, v.witness) for v in validate().violations) == sorted(expected)


def _rebuilt(x):
    """The same nested tuples, as new objects."""
    return tuple(_rebuilt(y) for y in x) if isinstance(x, tuple) else x


def _compat_against_full_grid(ma):
    """The violations ``check_compatible`` records on a fresh copy of a pair,
    and those of every instance of its law data on the full grid."""
    calls = []
    real = actions.check_laws

    def spy(f, report, outer_dims, groups):
        calls.append((f, outer_dims, groups))
        real(f, report, outer_dims, groups)

    with mock.patch.object(actions, "check_laws", spy):
        got = MutualActions(ma.mn, ma.nm).check_compatible()
    (f, outer_dims, groups), = calls
    want = ValidationReport("laws")
    _full_grid(f, want, outer_dims, groups)
    return got.violations, want.violations


class TestTermShapes:
    """Every law is multilinear, so both engine entry points refuse a term
    whose legs leave a position of its group free or name one twice, also
    in a law whose sides cancel term by term, which the engine would
    otherwise skip."""

    UNITS = (((0, 1),), ((1, 1),))  # e_0 and e_1 of a 2-space
    TABLE = linalg.tensor_table(QQ, 2, 2)
    GOOD = (TABLE, (UNITS, 0), (UNITS, 1))
    BAD = {
        "bilinear-free": (TABLE, (UNITS, 0), (((0, 1),),)),
        "bilinear-twice": (TABLE, (UNITS, 0), (UNITS, 0)),
        "bilinear-all-twice": (TABLE, ((UNITS, UNITS), 0, 1), (UNITS, 1)),
        "linear-free": (TABLE[0], (UNITS, 1)),
        "linear-twice": (TABLE[0], ((UNITS, UNITS), 0, 0)),
    }

    @pytest.mark.parametrize("cancels", [False, True], ids=["plain", "cancelling"])
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_both_entry_points_refuse(self, kind, cancels):
        bad = self.BAD[kind]
        plus, minus = [bad, self.GOOD], [self.GOOD, bad] if cancels else [self.GOOD]
        assert linalg._cancels(plus, minus) == cancels
        # a well-shaped law comes first, in the same group
        groups = [((2, 2), [("fine", (), [self.GOOD], []), ("shaped", (), plus, minus)])]
        with pytest.raises(ValueError, match="'shaped'.* not each of \\[0, 1\\] once"):
            linalg.check_laws(QQ, ValidationReport("laws"), (), groups)
        with pytest.raises(ValueError, match="'shaped'.* not each of \\[0, 1\\] once"):
            list(linalg.law_rows(QQ, groups))
        with pytest.raises(ValueError, match="'shaped'"):
            linalg.check_laws(QQ, ValidationReport("laws"), (2,), groups)


class TestLawColumns:
    """``linalg.law_columns`` returns the sum of every instance, in
    ``check_laws``' loop order, as the sorted sparse columns of a map, an
    instance no term reaches as an empty column; it refuses groups whose
    instances would not fill the columns 0, 1, ... in turn."""

    UNITS, TABLE = TestTermShapes.UNITS, TestTermShapes.TABLE
    FINE = ("fine", (), [TestTermShapes.GOOD], [])

    def test_pure_tensors_in_loop_order(self):
        # e_a (x) e_b over (a, b), its first leg e_0 or nothing
        half = (((0, 1),), ())
        law = ("half", (), [(self.TABLE, (half, 0), (self.UNITS, 1))], [])
        assert linalg.law_columns(QQ, (2,), [((2, 2), [law])]) == [((0, 1),), ((1, 1),), (), ()]
        assert linalg.law_columns(QQ, (), [((2, 2), [self.FINE]), ((2, 2), [law])]) == [
            ((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((0, 1),), ((1, 1),), (), ()]

    def test_columns_are_the_full_grid_sums(self):
        rng = random.Random(7)
        columns = empty = 0
        for f in FIELDS:
            for _ in range(40):
                outer_dims, groups = _random_laws(f, rng)
                k = len(outer_dims)
                # the groups of the first one's inner size and number of laws
                shape = [(math.prod(dims[k:]), len(laws)) for dims, laws in groups]
                groups = [g for g, s in zip(groups, shape) if s == shape[0]]
                want = []
                for idx in itertools.product(*map(range, outer_dims)):
                    for dims, laws in groups:
                        for rest in itertools.product(*map(range, dims[k:])):
                            for _, _, plus, minus, *_ in laws:
                                total = _grid_sum(f, plus, idx + rest)
                                for c, x in _grid_sum(f, minus, idx + rest).items():
                                    total[c] = f.sub(total.get(c, f.zero()), x)
                                want.append(tuple(sorted((c, x) for c, x in total.items() if x)))
                assert linalg.law_columns(f, outer_dims, groups) == want, (outer_dims, groups)
                columns, empty = columns + len(want), empty + want.count(())
        assert 0 < empty < columns

    @pytest.mark.parametrize("unequal", ["inner size", "number of laws"])
    def test_unequal_groups_refused(self, unequal):
        linear = ("linear", (), [(self.TABLE[0], (self.UNITS, 0))], [])
        groups = [((2, 2), [self.FINE]), ((2,), [linear]) if unequal == "inner size" else
                  ((2, 2), [self.FINE, self.FINE])]
        with pytest.raises(ValueError, match="one inner size and one number of laws"):
            linalg.law_columns(QQ, (), groups)
        # the other two readers take such groups
        linalg.check_laws(QQ, ValidationReport("laws"), (), groups)
        assert len(list(linalg.law_rows(QQ, groups))) == {"inner size": 4 + 2, "number of laws": 4 + 8}[unequal]


class TestClearedTables:
    """The engine on cleared tables: each table or map of random laws has
    its own denominators (1, 2, 3, 6 or 7) and is handed to the engine as
    ``linalg.cleared`` gives it, so over Q every term carries its own scale
    s and terms of degree 2 meet terms of degree 3 in one law.  Every reader
    must agree with the dense sums on the true values: ``check_laws``' records,
    the span of ``law_rows`` and the exact columns of ``law_columns``."""

    DENOMINATORS = (1, 2, 3, 6, 7)

    @staticmethod
    def structures(f, rng, n):
        """A bilinear table t, two maps a and b, and c = a after t, each
        value over its own denominator, drawn from DENOMINATORS."""
        def value(d):
            return f.div(f.from_int(rng.choice((-3, -2, -1, 1, 2, 3, 5))), f.from_int(d))

        def vec(d):
            return tuple((k, value(d)) for k in range(n) if rng.random() < 0.5)

        dt, da, db = rng.sample(TestClearedTables.DENOMINATORS, 3)
        t = tuple(tuple(vec(dt) for _ in range(n)) for _ in range(n))
        a, b = tuple(vec(da) for _ in range(n)), tuple(vec(db) for _ in range(n))
        c = tuple(tuple(tuple(sorted(linalg.linear(f, a, v))) for v in row) for row in t)
        return t, a, b, c

    @staticmethod
    def groups(n, t, a, b, c):
        """Laws on the four structures, as given: one of degree 2 against
        degree 3, one that holds (a(t(x, y)) against c(x, y) at the basis),
        one of degree 3 on three indices and one of linear terms."""
        units = tuple(((i, 1),) for i in range(n))
        return [((n, n), [("mixed", (), [(a, (t, 0, 1))], [(t, (b, 0), (b, 1))]),
                          ("holds", (), [(a, (t, 0, 1))], [(c, (units, 0), (units, 1))])]),
                ((n, n, n), [("leibniz", (), [(t, (b, 0), (t, 1, 2)), (t, (t, 0, 2), (a, 1))],
                              [(c, (t, 0, 1), (b, 2))])]),
                ((n,), [("linear", (), [(a, (b, 0))], [(b, (a, 0))])])]

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("seed", range(6))
    def test_readers_match_the_dense_sums(self, f, seed):
        rng, n = random.Random(seed), 3
        t, a, b, c = self.structures(f, rng, n)
        cleared = linalg.cleared(f, t, table=True), linalg.cleared(f, a), linalg.cleared(f, b), \
            linalg.cleared(f, c, table=True)
        engine, plain = self.groups(n, *cleared), self.groups(n, t, a, b, c)
        # over Q the tables carry several scales; over GF(p) each is its own
        scales = [linalg.unwrapped(x)[1] for x in cleared]
        assert len(set(scales)) > 1 if f is QQ else all(x is y for x, y in zip(cleared, (t, a, b, c)))
        # check_laws: the records of the full grid on the true values
        got, want = ValidationReport("engine"), ValidationReport("dense")
        linalg.check_laws(f, got, (), engine)
        _full_grid(f, want, (), plain)
        assert [(v.law, v.witness) for v in got.violations] == [(v.law, v.witness) for v in want.violations]
        assert "holds" not in {v.law for v in got.violations} and got.violations
        # law_rows: the span of the true instance sums
        dense = [tuple(sorted(_instance(f, law, jdx).items())) for dims, laws in plain
                 for jdx in itertools.product(*map(range, dims)) for law in laws]
        assert Subspace.span_sparse(f, n, linalg.law_rows(f, engine)) == Subspace.span_sparse(f, n, dense)
        # law_columns: each column exactly the true sum
        for dims, laws in plain:
            cleared_laws = next(ls for ds, ls in engine if ds == dims)
            assert linalg.law_columns(f, (), [(dims, cleared_laws)]) == [
                tuple(sorted(_instance(f, law, jdx).items())) for jdx in itertools.product(*map(range, dims))
                for law in laws]


def _instance(f, law, jdx):
    """The signed sum, plus less minus, of a law at the index tuple jdx, as
    its nonzero coordinates, on the values as given."""
    total = _grid_sum(f, law[2], jdx)
    for c, x in _grid_sum(f, law[3], jdx).items():
        total[c] = f.sub(total.get(c, f.zero()), x)
    return {c: x for c, x in total.items() if x}


class TestCancellingLaws:
    """A law whose plus and minus hold equal terms, by value, the same
    number of times is zero at every instance, so ``check_laws`` skips it;
    any other law is evaluated, and the reports stay the full grid's."""

    def test_terms_cancel_as_a_multiset(self, evaluated):
        f = QQ
        cols = (((0, 1),), ((0, 2),))  # two columns into a 1-space
        t1 = (cols, ((((0, 1),), ((1, 1),)), 0))
        t2 = (cols, ((((1, 1),), ((0, 3),)), 0))
        assert not linalg._cancels([t1, t1], [t1])
        assert not linalg._cancels([t1], [t1, t1])
        assert not linalg._cancels([t1], [t2])
        assert linalg._cancels([t1, t2], [t2, t1])
        assert linalg._cancels([t1], [_rebuilt(t1)]) and _rebuilt(t1) is not t1
        labels = ((("a", "b"), 0),)
        rep = ValidationReport("laws")
        linalg.check_laws(f, rep, (), [((2,), [
            ("doubled", labels, [t1, t1], [t1]),
            ("swapped", labels, [t1, t2], [t2, t1]),
            ("copied", labels, [t1], [_rebuilt(t1)]),
            ("differ", labels, [t1], [t2])])])
        assert [(v.law, v.witness) for v in rep.violations] == [
            ("doubled", ("a",)), ("differ", ("a",)), ("doubled", ("b",)), ("differ", ("b",))]
        assert evaluated == [("doubled", (0,)), ("differ", (0,)), ("doubled", (1,)), ("differ", (1,))]

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_compatibility_matches_the_full_grid(self, monkeypatch, f):
        """``check_compatible`` records what the full grid records, order
        included, on each stock adjoint pair, whose laws all cancel, on the
        bracket pairs six-term builds, and on every single-entry bump of the
        four action tables of each adjoint pair."""
        adjoint = [MutualActions.adjoint(make(f)) for make in ALGEBRAS]
        built = []  # every product six-term presents, those on a shared span included
        real = tensorprod.present_tensor
        monkeypatch.setattr(tensorprod, "present_tensor", lambda ma, span: built.append(ma) or real(ma, span))
        ideals = 0
        for L in (sl2(f), sl2_twisted(f), algebras.direct_sum(sl2(f), sl2(f))):
            first = Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(3)])
            for space in {Subspace.zero(f, L.dim), first, Subspace.full(f, L.dim)}:
                assert six_term_check(L, space).ok
                ideals += 1
        bracket = [ma for ma in built if ma.mn is not ma.nm]
        assert len(bracket) == 2 * ideals  # M*L and L*M of each ideal
        assert all(_compat_against_full_grid(ma) == ([], []) for ma in adjoint + bracket)
        broken = 0
        for ma in adjoint:
            for cell, bumped in _bumps(f, "compat", ma):
                got, want = _compat_against_full_grid(bumped)
                assert got == want, cell
                broken += bool(got)
        assert broken


class TestEndomorphismChecks:
    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_yau_twist_witness_is_the_first_dense_failure(self, f):
        L = sl2(f)
        for r in range(3):
            for c in range(3):
                endo = _bump_matrix(Matrix.identity(f, 3), r, c, f.from_int(2))
                first = _first_dense_failure(f, L.c, endo, L.labels)
                if first is None:
                    assert yau_twist(L, endo).twist == endo
                    continue
                with pytest.raises(NotEndomorphism) as info:
                    yau_twist(L, endo)
                assert info.value.witness == first

    @pytest.mark.parametrize("f", FIELDS, ids=["Q", "GF(1000003)"])
    def test_yau_twist_assoc_message_names_the_first_dense_failure(self, f):
        A = upper_triangular(f)
        for r in range(3):
            for c in range(3):
                endo = _bump_matrix(Matrix.identity(f, 3), r, c, f.from_int(3))
                first = _first_dense_failure(f, A.p, endo, A.labels)
                if first is None:
                    assert yau_twist_assoc(A, endo).twist == endo
                    continue
                with pytest.raises(StructureError, match="endomorphism") as info:
                    yau_twist_assoc(A, endo)
                assert str(info.value) == f"map is not an algebra endomorphism at {first}"


class TestSparseTablesBuiltOnce:
    def test_repeated_calls_build_each_table_once(self, monkeypatch):
        built = []
        for mod in (algebras, actions, homassoc, homology):
            if hasattr(mod, "sparse_table"):
                real = mod.sparse_table
                monkeypatch.setattr(mod, "sparse_table", lambda t, real=real, key=(mod.__name__, "sparse_table"):
                                    built.append(key) or real(t))
        # an algebra holds only its sparse table: the dense edge converts a
        # dense table once, at construction (twists are fresh matrices)
        L = sl2_twisted(QQ)
        L = HomLeibnizAlgebra(QQ, L.dim, L.c, Matrix(QQ, 3, 3, L.twist.entries), L.labels)
        A = upper_triangular(QQ)
        A = HomAssociativeAlgebra(QQ, A.dim, A.p, A.twist, A.labels)
        assert built == [("homleib.algebras", "sparse_table")] * 2
        built.clear()
        # a map holds its sparse columns: no call builds its dense entries
        entries = functools.cached_property(lambda m, real=Matrix.entries.func: built.append(m) or real(m))
        entries.__set_name__(Matrix, "entries")
        monkeypatch.setattr(Matrix, "entries", entries)
        # an action and a co-representation hold only sparse tables, built
        # with them
        ma = MutualActions.adjoint(L)
        M = adjoint_corep(L)
        x, y = L.unit(0), L.unit(2)
        for _ in range(3):
            L.bracket(x, y)
            L.validate()
            ma.mn.act_left(x, y)
            ma.mn.validate()
            ma.check_compatible()
            list(relation_vectors(ma))
            A.product(A.unit(0), A.unit(1))
            A.validate()
            M.act_right(x, y)
            M.validate()
        # no call builds a sparse table: the adjoint action and the adjoint
        # right operation of M share L's sparse bracket table, and M's left
        # operation negates its pairs in place
        assert [key for key in built if isinstance(key, tuple)] == []
        # M's twist is L's, and no dense grid of a map was built
        assert [m for m in built if not isinstance(m, tuple)] == []
        assert M.twist is L.twist
        assert ma.mn.sparse_left is ma.mn.sparse_right is L.sparse_c
        assert M.sparse_right is L.sparse_c


class TestReportsComputedOnce:
    """An action, a homomorphism, a pair of mutual actions and a
    Hom-associative algebra check their laws once; every later ``validate``,
    ``require_valid`` and ``check_compatible`` reads the same report."""

    def count_checks(self, monkeypatch, mod):
        runs = []
        real = mod.check_laws
        monkeypatch.setattr(mod, "check_laws", lambda *a: runs.append(1) or real(*a))
        return runs

    def test_action(self, monkeypatch):
        a = self_action(sl2_twisted(QQ))
        runs = self.count_checks(monkeypatch, actions)
        first = a.validate()
        assert a.validate() is first and a.require_valid() is a
        assert len(runs) == 1 and first.valid
        L = sl2_twisted(QQ)
        bumped = HomAction(L, L, sparse_table(_bump_table(QQ, L.c, 0, 1, 2, QQ.one())), L.sparse_c)
        with pytest.raises(InvalidAction, match="action identity"):
            bumped.require_valid()
        assert not bumped.validate().valid and len(runs) == 2

    def test_hom_associative_algebra(self, monkeypatch):
        A = twisted_upper(QQ)
        runs = self.count_checks(monkeypatch, homassoc)
        first = A.validate()
        assert A.validate() is first and A.require_valid() is A
        assert len(runs) == 1 and first.valid
        bumped = HomAssociativeAlgebra(QQ, 3, _bump_table(QQ, A.p, 0, 1, 1, QQ.one()), A.twist, A.labels)
        with pytest.raises(StructureError, match="invalid hom-associative algebra"):
            bumped.require_valid()
        assert not bumped.validate().valid and len(runs) == 2

    def test_hom_associativity_runs_only_on_its_support(self, evaluated):
        # each side of t(xy) = t(x) t(y) and of t(x) (yz) = (xy) t(z) is
        # zero where one of its products is; upper triangular has 4 pairs
        # of 9 and 5 triples of 27 where a side can be nonzero
        assert upper_triangular(QQ).validate().valid
        names = [name for name, _ in evaluated]
        assert names.count("multiplicativity") == 4
        assert names.count("hom-associativity") == 5

    def test_mutual_actions(self, monkeypatch):
        L = sl2_twisted(QQ)
        ma = MutualActions.adjoint(L)
        runs = self.count_checks(monkeypatch, actions)
        first = ma.check_compatible()
        assert ma.check_compatible() is first and ma.is_compatible()
        build_tensor(ma)
        assert len(runs) == 1 and first.valid
        bumped = MutualActions(HomAction(L, L, sparse_table(_bump_table(QQ, L.c, 0, 1, 2, QQ.one())), L.sparse_c),
                               ma.nm)
        with pytest.raises(IncompatibleActions):
            build_tensor(bumped)
        assert not bumped.is_compatible() and len(runs) == 2

    def test_sequence_check(self, monkeypatch, gl2):
        # each mutual action pair and each homomorphism is checked once, no
        # first-factor map is built for nothing, and the twist-identity
        # condition is tested once
        subjects, witnesses = Counter(), []
        for mod in (actions, algebras):
            real = mod.check_laws
            monkeypatch.setattr(mod, "check_laws", lambda f, rep, *a, real=real: subjects.update([rep.subject])
                                or real(f, rep, *a))
        real_witness = homassoc.alpha_identity_witness
        monkeypatch.setattr(homassoc, "alpha_identity_witness", lambda A: witnesses.append(A) or real_witness(A))
        assert all(item.ok for item in sequence_check(homassoc.hochschild_module(gl2)).items)
        assert subjects["mutual action compatibility"] == 3
        assert subjects["algebra homomorphism"] == 7
        assert witnesses == [gl2]

    def test_homomorphism(self, monkeypatch):
        subjects = []
        real = algebras.check_laws
        monkeypatch.setattr(algebras, "check_laws",
                            lambda f, rep, *a: subjects.append(rep.subject) or real(f, rep, *a))
        uce = universal_central_extension(sl2(QQ))
        # on a tensor square into_n is into_m, one map checked once;
        # Extension.from_projection then reads its report instead of
        # checking it again
        assert subjects.count("algebra homomorphism") == 1
        psi = uce.extension.proj
        assert psi.validate() is psi.validate() and psi.validate().valid
        bumped = AlgebraHom(psi.source, psi.target, _bump_matrix(psi.map, 0, 0, QQ.one()))
        with pytest.raises(InternalInconsistency, match="projection fails"):
            Extension.from_projection(bumped)
        assert not bumped.validate().valid and subjects.count("algebra homomorphism") == 2


class TestCertificatePartsBuiltOnce:
    """Each exactness certificate reads the parts it has already built: the
    six-term certificate reuses its ideal row, and one Hochschild boundary
    serves a whole degree-one comparison."""

    def counting(self, monkeypatch, mods, name, key=lambda *a: True):
        calls = []
        real = getattr(mods[0], name)
        for mod in mods:
            monkeypatch.setattr(mod, name, lambda *a: calls.append(key(*a)) or real(*a))
        return calls

    def test_six_term_reuses_its_ideal_row(self, monkeypatch):
        L = algebras.direct_sum(sl2(QQ), sl2(QQ))
        ideal = Subspace.span(QQ, 6, [unit_vec(QQ, 6, i) for i in range(3)])
        maps = self.counting(monkeypatch, (tensorprod,), "induced_tensor_map")
        subs = self.counting(monkeypatch, (algebras,), "subalgebra",
                             lambda L, space, *a: space == ideal)
        assert six_term_check(L, ideal).ok
        # the row's two inclusion-induced maps and its projection, nothing more
        assert len(maps) == 3
        assert subs.count(True) == 1

    def test_one_hochschild_boundary_per_comparison(self, monkeypatch, gl2):
        # the boundary family is evaluated once, for the module's presentation
        boundaries = self.counting(monkeypatch, (homassoc,), "boundary_rows")
        h = homassoc.hochschild_module(gl2)
        first_homologies(h)
        assert sequence_check(h).ok
        assert len(boundaries) == 1

    def test_one_hochschild_module_per_check_all(self, monkeypatch, tmp_path, capsys, gl2):
        modules = self.counting(monkeypatch, (cli, homassoc), "hochschild_module")
        path = tmp_path / "gl2.alg"
        path.write_text(json.dumps(serialize_algebra(gl2)), encoding="utf-8")
        assert cli.main(["check-all", str(path), "--json"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        # the cyclic identity, both homologies and the comparison sequence
        # all read the one module
        assert "comparison sequence" in names
        assert len(modules) == 1

    def test_hochschild_command_does_not_factor_the_boundary(self, monkeypatch, tmp_path, capsys,
                                                             upper_triangular):
        modules = []
        real = cli.hochschild_module
        monkeypatch.setattr(cli, "hochschild_module", lambda A: modules.append(real(A)) or modules[-1])
        products = self.counting(monkeypatch, (homassoc,), "boundary_rows",
                                 lambda A, table, *a: table is A.cleared_p)
        path = tmp_path / "ut.alg"
        path.write_text(json.dumps(serialize_algebra(upper_triangular)), encoding="utf-8")
        assert cli.main(["hochschild", str(path), "--json"]) == 0
        (h,) = modules
        assert json.loads(capsys.readouterr().out)["boundary_rank"] == h.presentation.relations.dim
        # the rank is the relation rank of the presentation, read, not eliminated
        # again: the boundary rows of the product are spanned once, for the
        # presentation, and the cyclic identity reads those of the commutator
        assert products == [True, False]


class TestFieldMismatch:
    """Parts over different fields are refused when they are put together, as
    a twist over the wrong field already is."""

    def test_action_across_fields(self):
        with pytest.raises(FieldMismatch, match="wrong field"):
            HomAction.trivial(sl2(QQ), sl2(Field(5)))

    def test_corep_twist_across_fields(self):
        with pytest.raises(FieldMismatch, match="wrong field"):
            trivial_corep(sl2(QQ), 1, Matrix.identity(Field(5), 1))

    def test_homomorphism_across_fields(self):
        with pytest.raises(FieldMismatch, match="wrong field"):
            AlgebraHom(sl2(QQ), sl2(Field(5)), Matrix.identity(QQ, 3))
        with pytest.raises(FieldMismatch, match="wrong field"):
            AlgebraHom(sl2(QQ), sl2(QQ), Matrix.identity(Field(5), 3))
