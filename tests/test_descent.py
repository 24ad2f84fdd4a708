"""Descent of maps out of presentations.

Every map the library takes out of a quotient by relations (the factor maps
and outer actions of a tensor product, the lift of the universal central
extension, the evaluation and the action on the Hochschild boundary
quotient, the boundary-ideal comparison) is well defined only because it
carries the relations into the relations of its target.  The mutation tests
perturb one input so that a map no longer does, and pin the exception class,
message and witness each construction raises.  The regression guards pin the
matrices against the compositions with a coset section they replace.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from homleib import homassoc, tensorprod
from homleib.actions import HomAction, MutualActions
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    direct_sum,
    ideal_closure,
    quotient_algebra,
)
from homleib.errors import InternalInconsistency
from homleib.extensions import Extension, lift_against, universal_central_extension
from homleib.fields import Field
from homleib.generators import sl2
from homleib.homassoc import (
    HomAssociativeAlgebra,
    action_on_quotient,
    boundary_ideal_agreement,
    hochschild_module,
    to_leibniz,
)
from homleib.linalg import Matrix, QuotientSpace, Subspace, induced_map, unit_vec
from homleib.tensorprod import build_tensor, factor_maps, outer_action
from test_homassoc import boundary_shapes

QQ = Field()
GFP = Field(1000003)
FIELDS = (QQ, GFP)
IDS = ["Q", "GF(1000003)"]


def upper_triangular(f):
    return HomAssociativeAlgebra.from_products(
        f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        labels=("e11", "e12", "e22"))


def gl2(f):
    return HomAssociativeAlgebra.from_products(
        f, 4,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
         (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}},
        labels=("e11", "e12", "e21", "e22"))


def _bump(f, table, i, j, k):
    """The table with one added at coordinate k of the value table[i][j]."""
    rows = [list(r) for r in table]
    v = list(rows[i][j])
    v[k] = f.add(v[k], f.one())
    rows[i][j] = tuple(v)
    return tuple(tuple(r) for r in rows)


def _bump_map(m: Matrix, r, c) -> Matrix:
    f = m.field
    rows = [list(row) for row in m.entries]
    rows[r][c] = f.add(rows[r][c], f.one())
    return Matrix(f, m.rows, m.cols, tuple(tuple(x) for x in rows))


def _through_lifts(amb: Matrix, pres: QuotientSpace) -> Matrix:
    """The ambient map composed with the coset section of a presentation."""
    sec = Matrix.from_columns(amb.field, pres.ambient_dim, [pres.lift_unit(k) for k in range(pres.dim)])
    return amb.compose(sec)


class TestMutations:
    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_factor_maps(self, f):
        t = build_tensor(MutualActions.adjoint(sl2(f)))
        rows = t.presentation.relations.basis.entries
        bumped = _bump_map(t.eval_m, 0, t.presentation.relations.pivots()[0])
        expected = next(r for r in rows if any(bumped.apply(r)))
        with pytest.raises(InternalInconsistency) as info:
            factor_maps(replace(t, eval_m=bumped))
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "evaluation map does not kill the relations"
        assert info.value.witness == (expected,)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_lift_against(self, f):
        uce = universal_central_extension(sl2(f))
        lift = lift_against(uce, uce.extension)
        t = uce.tensor
        pres = t.presentation
        # one generator whose lift is nonzero becomes an extra relation
        g = next(g for g in range(t.ambient_dim)
                 if any(lift.map.apply(pres.project(unit_vec(f, t.ambient_dim, g)))))
        extra = QuotientSpace(pres.relations.add(
            Subspace.span(f, t.ambient_dim, [unit_vec(f, t.ambient_dim, g)])))
        expected = next(r for r in extra.relations.basis.entries
                        if any(lift.map.apply(pres.project(r))))
        with pytest.raises(InternalInconsistency) as info:
            lift_against(replace(uce, tensor=replace(t, presentation=extra)), uce.extension)
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "lift does not kill the tensor relations"
        assert info.value.witness == (expected,)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("side", ["m", "n"])
    def test_outer_action(self, f, side):
        t = build_tensor(MutualActions.adjoint(sl2(f)))
        # the action the chosen side's formulas read: mn on the M side, nm on N
        name = "mn" if side == "m" else "nm"
        a = getattr(t.actions, name)
        bumped = HomAction(a.actor, a.target, _bump(f, a.left, 0, 0, 0), a.right)
        with pytest.raises(InternalInconsistency) as info:
            outer_action(replace(t, actions=replace(t.actions, **{name: bumped})), side)
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "outer action does not descend to the quotient"
        assert info.value.witness[0] == side
        assert info.value.witness[1] in t.presentation.relations.basis.entries

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_action_on_quotient(self, f):
        h = hochschild_module(upper_triangular(f))
        lb = h.commutator_algebra
        bumped = HomLeibnizAlgebra(f, lb.dim, _bump(f, lb.c, 0, 1, 0), lb.twist, lb.labels)
        with pytest.raises(InternalInconsistency) as info:
            action_on_quotient(replace(h, commutator_algebra=bumped))
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "action does not descend to the quotient"
        assert info.value.witness is None

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_hochschild_module(self, f, monkeypatch):
        A = upper_triangular(f)
        real = homassoc.boundary_rows

        def with_extra_row(alg, table, square=False):
            # e11 (x) e12 folds to [e11, e12] = e12, which is not zero
            yield from real(alg, table, square)
            yield ((1, f.one()),)

        monkeypatch.setattr(homassoc, "boundary_rows", with_extra_row)
        with pytest.raises(InternalInconsistency) as info:
            hochschild_module(A)
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "evaluation does not kill the boundary image"
        assert info.value.witness is None


def _central_cover(base):
    """A one-dimensional abelian summand in front of the base, projected away."""
    f = base.field
    total = direct_sum(HomLeibnizAlgebra.abelian(f, 1), base)
    cols = [tuple(f.zero() for _ in range(base.dim))] + [base.unit(j) for j in range(base.dim)]
    return Extension.from_projection(AlgebraHom(total, base, Matrix.from_columns(f, base.dim, cols)))


class TestSameMatricesAsTheSectionCompositions:
    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_factor_maps(self, f):
        L = sl2(f)
        A = to_leibniz(upper_triangular(f))
        cases = [MutualActions.adjoint(L), MutualActions.adjoint(A),
                 MutualActions(HomAction.trivial(L, A), HomAction.trivial(A, L))]
        for ma in cases:
            t = build_tensor(ma)
            into_m, into_n = factor_maps(t)
            assert into_m.map == _through_lifts(t.eval_m, t.presentation)
            assert into_n.map == _through_lifts(t.eval_n, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_second_factor_map_alone(self, f, monkeypatch):
        # with second_only the map onto the first factor is never built
        L, A = sl2(f), to_leibniz(upper_triangular(f))
        t = build_tensor(MutualActions(HomAction.trivial(L, A), HomAction.trivial(A, L)))
        targets = []
        monkeypatch.setattr(tensorprod, "AlgebraHom",
                            lambda src, tgt, m: targets.append(tgt) or AlgebraHom(src, tgt, m))
        into_n = factor_maps(t, second_only=True)
        assert targets == [t.n_side] and into_n.target == A
        assert into_n.map == _through_lifts(t.eval_n, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_lift_against(self, f):
        L = sl2(f)
        uce = universal_central_extension(L)
        t = uce.tensor
        for other in (uce.extension, _central_cover(L)):
            K = other.total
            sec = other.proj.map.section()
            cols = [K.bracket(sec.col(i), sec.col(j))
                    for i in range(L.dim) for j in range(L.dim)]
            cols += [K.bracket(sec.col(j), sec.col(i))
                     for j in range(L.dim) for i in range(L.dim)]
            amb = Matrix.from_columns(f, K.dim, cols)
            assert lift_against(uce, other).map == _through_lifts(amb, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("make", [upper_triangular, gl2])
    def test_boundary_ideal_agreement(self, f, make):
        A = make(f)
        n = A.dim
        h = hochschild_module(A)
        t = build_tensor(MutualActions.adjoint(to_leibniz(A)))
        T = t.algebra
        shapes = zip(boundary_shapes(A, A.p, t.embed_mn), boundary_shapes(A, A.p, t.embed_nm))
        ideal = ideal_closure(T, (t.presentation.project(v) for pair in shapes for v in pair))
        _, proj = quotient_algebra(T, IdealHandle(T, ideal))
        units = [unit_vec(f, n * n, g) for g in range(n * n)]
        on_square = induced_map(Matrix.from_columns(f, n * n, units + units),
                                t.presentation, h.presentation)
        assert boundary_ideal_agreement(A).map == on_square.compose(proj.map.section())
