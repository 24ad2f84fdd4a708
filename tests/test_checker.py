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

import itertools
import json
import random
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from homleib import actions, algebras, cli, extensions, homassoc, homology, linalg, tensorprod
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
from homleib.linalg import Matrix, Subspace, dense_vec, unit_vec, vec_scale
from homleib.report import ValidationReport
from homleib.tensorprod import build_tensor, relation_vectors

QQ = Field()
GFP = Field(1000003)
FIELDS = (QQ, GFP)


# -- dense reference ----------------------------------------------------------

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

    def al(x, m):
        return dense_contract(f, a.left, x, m, M.dim)

    def ar(m, x):
        return dense_contract(f, a.right, m, x, M.dim)

    def br(u, v):
        return dense_contract(f, M.c, u, v, M.dim)

    def neg(v):
        return vec_scale(f, f.neg(f.one()), v)

    tl, tm, tw = _twisted_units(L), _twisted_units(M), M.twist.apply
    lbl, lbm = L.labels, M.labels
    for x in range(L.dim):
        for m in range(M.dim):
            if tw(a.left[x][m]) != al(tl[x], tm[m]):
                rep.record("g", (lbl[x], lbm[m]))
            if tw(a.right[m][x]) != ar(tm[m], tl[x]):
                rep.record("h", (lbm[m], lbl[x]))
            for y in range(L.dim):
                bxy = L.c[x][y]
                if ar(tm[m], bxy) != dense_sub(f, ar(a.right[m][x], tl[y]), ar(a.right[m][y], tl[x])):
                    rep.record("a", (lbm[m], lbl[x], lbl[y]))
                if al(bxy, tm[m]) != dense_sub(f, ar(a.left[x][m], tl[y]), al(tl[x], a.right[m][y])):
                    rep.record("b", (lbl[x], lbl[y], lbm[m]))
                if al(tl[x], a.left[y][m]) != neg(al(tl[x], a.right[m][y])):
                    rep.record("c", (lbl[x], lbl[y], lbm[m]))
            for m2 in range(M.dim):
                bmm = M.c[m][m2]
                if al(tl[x], bmm) != dense_sub(f, br(a.left[x][m], tm[m2]), br(a.left[x][m2], tm[m])):
                    rep.record("d", (lbl[x], lbm[m], lbm[m2]))
                if ar(bmm, tl[x]) != dense_add(f, br(a.right[m][x], tm[m2]), br(tm[m], a.right[m2][x])):
                    rep.record("e", (lbm[m], lbm[m2], lbl[x]))
                if br(tm[m], a.left[x][m2]) != neg(br(tm[m], a.right[m2][x])):
                    rep.record("f", (lbm[m], lbl[x], lbm[m2]))
    rep.flags["trivial"] = a.is_trivial()
    return rep


def dense_compat(ma):
    M, N = ma.m_side, ma.n_side
    f = M.field
    mn, nm = ma.mn, ma.nm
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
                if c(nm.left, mn.left[m][n], em2, M.dim) != c(M.c, nm.right[m][n], em2, M.dim):
                    rep.record("c1", (lm[m], ln[n], lm[m2]))
                if c(nm.left, mn.right[n][m], em2, M.dim) != c(M.c, nm.left[n][m], em2, M.dim):
                    rep.record("c2", (ln[n], lm[m], lm[m2]))
                if c(nm.right, em, mn.left[m2][n], M.dim) != c(M.c, em, nm.right[m2][n], M.dim):
                    rep.record("c3", (lm[m], lm[m2], ln[n]))
                if c(nm.right, em, mn.right[n][m2], M.dim) != c(M.c, em, nm.left[n][m2], M.dim):
                    rep.record("c4", (lm[m], ln[n], lm[m2]))
            for n2 in range(N.dim):
                en2 = unit_vec(f, N.dim, n2)
                if c(mn.left, nm.left[n][m], en2, N.dim) != c(N.c, mn.right[n][m], en2, N.dim):
                    rep.record("c5", (ln[n], lm[m], ln[n2]))
                if c(mn.left, nm.right[m][n], en2, N.dim) != c(N.c, mn.left[m][n], en2, N.dim):
                    rep.record("c6", (lm[m], ln[n], ln[n2]))
                if c(mn.right, en, nm.left[n2][m], N.dim) != c(N.c, en, mn.right[n2][m], N.dim):
                    rep.record("c7", (ln[n], ln[n2], lm[m]))
                if c(mn.right, en, nm.right[m][n2], N.dim) != c(N.c, en, mn.left[m][n2], N.dim):
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

    def al(x, m):
        return dense_contract(f, M.left, x, m, dm)

    def ar(m, x):
        return dense_contract(f, M.right, m, x, dm)

    tl, tm, tw = _twisted_units(L), [M.twist.col(i) for i in range(dm)], M.twist.apply
    lbl, lbm = L.labels, tuple(f"m{i + 1}" for i in range(dm))
    for x in range(L.dim):
        for m in range(dm):
            if tw(M.left[x][m]) != al(tl[x], tm[m]):
                rep.record("d", (lbl[x], lbm[m]))
            if tw(M.right[m][x]) != ar(tm[m], tl[x]):
                rep.record("e", (lbm[m], lbl[x]))
            for y in range(L.dim):
                bxy = L.c[x][y]
                if al(bxy, tm[m]) != dense_sub(f, al(tl[x], M.left[y][m]), al(tl[y], M.left[x][m])):
                    rep.record("a", (lbl[x], lbl[y], lbm[m]))
                if ar(tm[m], bxy) != dense_sub(f, ar(M.left[y][m], tl[x]), al(tl[y], M.right[m][x])):
                    rep.record("b", (lbm[m], lbl[x], lbl[y]))
                if ar(M.right[m][x], tl[y]) != tuple(f.neg(v) for v in al(tl[y], M.right[m][x])):
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
        return HomAction(a.actor, _perturbed_algebra(draw, f, a.target, delta), a.left, a.right)
    table = getattr(a, side)
    bumped = _bump_table(f, table, *_pick_table_entry(draw, table), delta)
    return HomAction(a.actor, a.target, *((bumped, a.right) if side == "left" else (a.left, bumped)))


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
    left, right, twist = M.left, M.right, M.twist
    part = draw(st.sampled_from(["left", "right", "twist"]))
    if part == "left":
        left = _bump_table(f, left, *_pick_table_entry(draw, left), delta)
    elif part == "right":
        right = _bump_table(f, right, *_pick_table_entry(draw, right), delta)
    else:
        twist = _bump_matrix(twist, *_pick_matrix_entry(draw, twist), delta)
    return kind, CoRepresentation(L, M.space_dim, twist, left, right)


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
        return each("left", _entry_bumps(f, obj.left), lambda t: HomAction(obj.actor, obj.target, t, obj.right)) + \
            each("right", _entry_bumps(f, obj.right), lambda t: HomAction(obj.actor, obj.target, obj.left, t))
    if kind == "compat":
        return each("mn", _bumps(f, "action", obj.mn), lambda a: MutualActions(a, obj.nm)) + \
            each("nm", _bumps(f, "action", obj.nm), lambda a: MutualActions(obj.mn, a))
    if kind == "corep":
        M = partial(CoRepresentation, obj.algebra, obj.space_dim)
        return each("left", _entry_bumps(f, obj.left), lambda t: M(obj.twist, t, obj.right)) + \
            each("right", _entry_bumps(f, obj.right), lambda t: M(obj.twist, obj.left, t)) + \
            each("twist", _matrix_bumps(obj.twist), lambda t: M(t, obj.left, obj.right))
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
        action.  sl2 twisted keeps 18 of 27 identity triples and 12 of 27
        instances of each compatibility law."""
        H, A, f = heisenberg(QQ), _abelian3(QQ), QQ
        cases = [
            (H.validate, {"multiplicativity": 2}),
            (AlgebraHom(H, H, Matrix.identity(f, 3)).validate,
             {"bracket preservation": 2, "twist compatibility": 3}),
            (self_action(H).validate, {"g": 2, "h": 2}),
            (HomAction.trivial(A, H).validate, {}),
            (MutualActions.adjoint(H).check_compatible, {}),
            (MutualActions.trivial(A, H).check_compatible, {}),
            (adjoint_corep(H).validate, {"d": 2, "e": 2}),
            (sl2_twisted(f).validate, {"multiplicativity": 6, "hom-leibniz identity": 18}),
            (MutualActions.adjoint(sl2_twisted(f)).check_compatible, {f"c{i}": 12 for i in range(1, 9)}),
        ]
        for build, pin in cases:
            evaluated.clear()
            assert build().valid
            assert Counter(name for name, _ in evaluated) == pin

    @pytest.mark.parametrize("mask_bits", [1, 5, 1 << 16])
    def test_reports_match_the_full_grid(self, monkeypatch, evaluated, mask_bits):
        """On random sparse law data over Q and GF(1000003), ``check_laws``
        records what every instance of the full grid records, order
        included, whether the outer indices are none or all but the last;
        small ``_MASK_BITS`` run the leading indices one value at a time."""
        monkeypatch.setattr(linalg, "_MASK_BITS", mask_bits)
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
        p, tw = A.sparse_p, A.sparse_twist
        sides = ((p, (tw, 0), (p, 1, 2)), (p, (p, 0, 1), (tw, 2)))
        rule = [idx for idx in itertools.product(range(3), repeat=3) if any(_can_be_nonzero(t, idx) for t in sides)]
        assert [idx for name, idx in evaluated if name == "hom-associativity"] == rule
        assert len(rule) == 5

    def test_large_presented_algebra(self):
        """The tensor square of a 10-dim abelian algebra under trivial
        actions presents an abelian algebra of dim 200; its validation keeps
        a few MB of masks (a full 200^3 grid would be 1 MB per mask)."""
        f = QQ
        A = HomLeibnizAlgebra.abelian(f, 10, Matrix.from_rows(f, [[2 if i == j else 0 for j in range(10)]
                                                                 for i in range(10)]))
        B = build_tensor(MutualActions.trivial(A, A)).algebra
        assert B.dim == 200
        B = HomLeibnizAlgebra(f, B.dim, B.c, B.twist, B.labels)
        B.sparse_c, B.sparse_twist
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
    """Random sparse law data for ``check_laws``: outer dims and groups of
    one to three laws, each group's dims extending the outer ones."""
    dims = tuple(rng.randint(1, 3) for _ in range(rng.choice((2, 3))))
    k, basis = rng.choice((0, len(dims) - 1)), rng.randint(1, 3)

    def vec():
        return tuple((a, f.from_int(rng.choice((1, -1, 2)))) for a in range(basis) if rng.random() < 0.35)

    def law(n, gdims):
        def leg():
            pos = rng.sample(range(n), rng.choice((1, 2)) if n > 1 else 1)
            vectors = [vec() for _ in range(gdims[pos[0]])]
            if len(pos) == 2:
                vectors = [tuple(vec() for _ in range(gdims[pos[1]])) for _ in vectors]
            return (tuple(vectors), *pos)

        def term():
            if rng.random() < 0.3:
                return tuple(vec() for _ in range(basis)), leg()
            return tuple(tuple(vec() for _ in range(basis)) for _ in range(basis)), leg(), leg()

        plus = [term() for _ in range(rng.randint(1, 2))]
        # a law whose sides agree but for order holds wherever it runs
        minus = rng.sample(plus, len(plus)) if rng.random() < 0.3 else [term() for _ in range(rng.randint(0, 2))]
        witness = tuple((tuple(f"x{p}.{i}" for i in range(gdims[p])), p) for p in range(n))
        detail = ["at " + " ".join(f"{{{i}}}" for i in range(n))] if rng.random() < 0.5 else []
        return (f"law{rng.randint(0, 99)}", witness, plus, minus, *detail)

    groups = []
    for _ in range(rng.randint(1, 2)):
        gdims = dims[:k] + tuple(rng.randint(1, 3) for _ in range(rng.randint(max(1 - k, 0), 3 - k)))
        groups.append((gdims, [law(len(gdims), gdims) for _ in range(rng.randint(1, 3))]))
    return dims[:k], groups


def _grid_sum(f, terms, idx):
    """The signed sum of terms at idx, evaluated term by term."""
    out = {}
    for table, *legs in terms:
        vecs = []
        for vectors, *pos in legs:
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


def _dense_row(f, law, jdx, size):
    """The signed sum of a law instance from the dense tables, a linear term
    being the bilinear one with the constant second leg 1."""
    total = (f.zero(),) * size
    for combine, terms in ((dense_add, law[2]), (dense_sub, law[3])):
        for table, u, p, r, v, q, s in terms:
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
    nonzero, and each row is the dense signed sum."""

    @given(perturbed_sl2_laws())
    def test_check_laws_records_exactly_the_nonzero_rows(self, validate):
        (f, groups), = _law_data(actions, validate)
        instances = list(linalg._instances((), groups))
        rows = list(linalg.law_rows(f, groups))
        assert len(rows) == len(instances)
        expected = []
        for (jdx, law), row in zip(instances, rows):
            assert dense_vec(f, 3, row) == _dense_row(f, law, jdx, 3)
            if row:
                expected.append((law[0], tuple(lb[jdx[p]] for lb, p in law[1])))
        rep = ValidationReport(subject="rows")
        linalg.check_laws(f, rep, (), groups)
        assert [(v.law, v.witness) for v in rep.violations] == expected
        # the validator's outer loop only orders the same records
        assert sorted((v.law, v.witness) for v in validate().violations) == sorted(expected)


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
        L = sl2_twisted(QQ)
        ma = MutualActions.adjoint(L)
        A = upper_triangular(QQ)
        M = adjoint_corep(L)
        built = []
        for mod in (algebras, actions, homassoc, homology):
            for name in ("sparse_table", "sparse_columns"):
                if hasattr(mod, name):
                    real = getattr(mod, name)
                    monkeypatch.setattr(mod, name, lambda t, real=real, key=(mod.__name__, name):
                                        built.append(key) or real(t))
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
        # the adjoint action and the adjoint right operation of M share the
        # sparse form of L's bracket table; M's left operation is built by
        # L.sparse_of
        assert sorted(built) == sorted([
            ("homleib.algebras", "sparse_table"), ("homleib.algebras", "sparse_columns"),  # L
            ("homleib.homassoc", "sparse_table"), ("homleib.homassoc", "sparse_columns"),  # A
            ("homleib.algebras", "sparse_table"), ("homleib.homology", "sparse_columns"),  # M
        ])
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
        bumped = HomAction(L, L, _bump_table(QQ, L.c, 0, 1, 2, QQ.one()), L.c)
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
        bumped = MutualActions(HomAction(L, L, _bump_table(QQ, L.c, 0, 1, 2, QQ.one()), L.c), ma.nm)
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
        # on a tensor square factor_maps returns one map twice and checks it
        # once; Extension.from_projection then reads its report instead of
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
        subs = self.counting(monkeypatch, (algebras, extensions), "subalgebra",
                             lambda L, space, *a: space == ideal)
        assert six_term_check(L, ideal).ok
        # the row's two inclusion-induced maps and its projection, nothing more
        assert len(maps) == 3
        assert subs.count(True) == 1

    def test_one_hochschild_boundary_per_comparison(self, monkeypatch, gl2):
        boundaries = self.counting(monkeypatch, (homassoc,), "hochschild_boundary")
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
        path = tmp_path / "ut.alg"
        path.write_text(json.dumps(serialize_algebra(upper_triangular)), encoding="utf-8")
        assert cli.main(["hochschild", str(path), "--json"]) == 0
        (h,) = modules
        assert json.loads(capsys.readouterr().out)["boundary_rank"] == h.boundary.image().dim
        # the rank is the relation rank of the presentation, read, not eliminated again
        assert "_factor" not in vars(h.boundary)


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
