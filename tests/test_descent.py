"""Descent of maps out of presentations.

Every map the library takes out of a quotient by relations (the factor maps
and outer actions of a tensor product, the lift of the universal central
extension, the evaluation and the action on the Hochschild boundary
quotient, the boundary-ideal comparison) is well defined only because it
carries the relations into the relations of its target.  The mutation tests
perturb one input so that a map no longer does, and pin the exception class,
message and witness each construction raises; the descent certificate itself
is pinned, one bumped entry at a time, against the dense path it replaces.
The regression guards pin the matrices against the compositions with a
coset section they replace.
"""

from __future__ import annotations


import pytest

from homleib import homassoc, tensorprod
from homleib.actions import HomAction, MutualActions
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    certified_quotient,
    direct_sum,
    ideal_closure,
    quotient_algebra,
    yau_twist,
)
from homleib.errors import BracketNotWellDefined, InternalInconsistency, NotWellDefined
from homleib.extensions import lift_against, universal_central_extension
from homleib.fields import Field
from homleib.generators import heisenberg, sl2
from homleib.homassoc import (
    HomAssociativeAlgebra,
    action_on_quotient,
    hochschild_module,
    to_leibniz,
)
from homleib.linalg import (Matrix, QuotientSpace, Subspace, induced_map, quotient, sparse_table, sparse_vec,
                            unit_vec)
from homleib.tensorprod import build_tensor, outer_action
from test_checker import dense_table
from test_homassoc import boundary_shapes
from test_extensions import central_cover
from test_linalg import dense_reduce
from homleib_testkit import boundary_ideal_agreement, embed_nm, replace

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
    units = [unit_vec(amb.field, pres.ambient_dim, c) for c in pres.coset_basis]
    sec = Matrix.from_columns(amb.field, pres.ambient_dim, map(sparse_vec, units))
    return amb.compose(sec)


class TestMutations:
    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_factor_maps(self, f):
        t = build_tensor(MutualActions.adjoint(sl2(f)))
        rows = t.presentation.relations.basis.entries
        bumped = _bump_map(t.eval_m, 0, t.presentation.relations.pivots()[0])
        expected = next(r for r in rows if any(bumped.apply(r)))
        with pytest.raises(InternalInconsistency) as info:
            replace(t, eval_m=bumped).into_m
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
        left = dense_table(f, a.sparse_left, a.target.dim)
        bumped = HomAction(a.actor, a.target, sparse_table(_bump(f, left, 0, 0, 0)), a.sparse_right)
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

        def with_extra_row(alg, table):
            # e11 (x) e12 folds to [e11, e12] = e12, which is not zero
            yield from real(alg, table)
            yield ((1, f.one()),)

        monkeypatch.setattr(homassoc, "boundary_rows", with_extra_row)
        with pytest.raises(InternalInconsistency) as info:
            hochschild_module(A)
        assert type(info.value) is InternalInconsistency
        assert str(info.value) == "evaluation does not kill the boundary image"
        assert info.value.witness is None


class TestSameMatricesAsTheSectionCompositions:
    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_factor_maps(self, f):
        L = sl2(f)
        A = to_leibniz(upper_triangular(f))
        cases = [MutualActions.adjoint(L), MutualActions.adjoint(A),
                 MutualActions(HomAction.trivial(L, A), HomAction.trivial(A, L))]
        for ma in cases:
            t = build_tensor(ma)
            into_m, into_n = t.into_m, t.into_n
            assert into_m.map == _through_lifts(t.eval_m, t.presentation)
            assert into_n.map == _through_lifts(t.eval_n, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_second_factor_map_alone(self, f, monkeypatch):
        # reading into_n alone never builds the map onto the first factor
        L, A = sl2(f), to_leibniz(upper_triangular(f))
        t = build_tensor(MutualActions(HomAction.trivial(L, A), HomAction.trivial(A, L)))
        targets = []
        monkeypatch.setattr(tensorprod, "AlgebraHom",
                            lambda src, tgt, m: targets.append(tgt) or AlgebraHom(src, tgt, m))
        into_n = t.into_n
        assert targets == [t.n_side] and into_n.target == A
        assert into_n.map == _through_lifts(t.eval_n, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_lift_against(self, f):
        L = sl2(f)
        uce = universal_central_extension(L)
        t = uce.tensor
        for other in (uce.extension, central_cover(L)):
            K = other.total
            sec = other.proj.map.section()
            cols = [K.bracket(sec.col(i), sec.col(j))
                    for i in range(L.dim) for j in range(L.dim)]
            cols += [K.bracket(sec.col(j), sec.col(i))
                     for j in range(L.dim) for i in range(L.dim)]
            amb = Matrix.from_columns(f, K.dim, map(sparse_vec, cols))
            assert lift_against(uce, other).map == _through_lifts(amb, t.presentation)

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("make", [upper_triangular, gl2])
    def test_boundary_ideal_agreement(self, f, make):
        A = make(f)
        n = A.dim
        h = hochschild_module(A)
        t = build_tensor(MutualActions.adjoint(to_leibniz(A)))
        T = t.algebra
        shapes = zip(boundary_shapes(A, A.p, t.embed_mn), boundary_shapes(A, A.p, lambda v, u: embed_nm(t, v, u)))
        ideal = ideal_closure(T, (t.presentation.project_sparse(sparse_vec(v)) for pair in shapes for v in pair))
        _, proj = quotient_algebra(T, IdealHandle(T, ideal))
        units = [unit_vec(f, n * n, g) for g in range(n * n)]
        on_square = induced_map(Matrix.from_columns(f, n * n, map(sparse_vec, units + units)),
                                t.presentation, h.presentation)
        assert boundary_ideal_agreement(A).map == on_square.compose(proj.map.section())


def _dense_project(q: QuotientSpace, v) -> tuple:
    w = dense_reduce(q.relations, v)[1]
    return tuple(w[c] for c in q.coset_basis)


def _dense_outer(f, u, v, size) -> tuple:
    out = [f.zero()] * size
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                out[i * len(v) + j] = f.mul(x, y)
    return tuple(out)


def dense_induced_map(m: Matrix, src: QuotientSpace, dst: QuotientSpace) -> Matrix:
    """The descent certificate on dense vectors: each relation row's image
    tested by dense reduction, then each coset generator's image projected."""
    for r in src.relations.basis.entries:
        w = m.apply(r)
        if any(dense_reduce(dst.relations, w)[1]):
            raise NotWellDefined("map does not descend to the quotient", witness=(r, w))
    return Matrix.from_columns(m.field, dst.dim, [sparse_vec(_dense_project(dst, m.col(c))) for c in src.coset_basis])


def dense_certified_quotient(pres, left, right, twist_amb, labels) -> HomLeibnizAlgebra:
    """The certified quotient on dense vectors: the kill test by dense
    products, the sweep on dense pure tensors, the table by dense projection."""
    f, ambient, relations = pres.field, pres.ambient_dim, pres.relations
    twist = dense_induced_map(twist_amb, pres, pres)
    for r in relations.basis.entries:
        left_r, right_r = left.apply(r), right.apply(r)
        if not any(left_r) and not any(right_r):
            continue
        for k in range(ambient):
            for pure in (_dense_outer(f, left_r, right.col(k), ambient),
                         _dense_outer(f, left.col(k), right_r, ambient)):
                if any(dense_reduce(relations, pure)[1]):
                    raise BracketNotWellDefined("bracket does not preserve the relations", witness=(r,))
    gens = [(left.col(a), right.col(a)) for a in pres.coset_basis]
    table = tuple(tuple(_dense_project(pres, _dense_outer(f, x, y, ambient)) for _, y in gens) for x, _ in gens)
    algebra = HomLeibnizAlgebra(f, pres.dim, table, twist, tuple(labels))
    algebra.validate().require(lambda v: InternalInconsistency(
        f"presented algebra fails {v.law} at {v.witness}", witness=v.witness))
    return algebra


def _outcome(build, *args):
    """What ``build(*args)`` returns, or the class, message and witness of
    the descent failure it raises."""
    try:
        return build(*args)
    except (NotWellDefined, BracketNotWellDefined, InternalInconsistency) as e:
        return type(e), str(e), e.witness


def _twisted_sl2(f):
    return yau_twist(sl2(f), Matrix.from_rows(f, [[4, 0, 0], [0, f.div(1, 4), 0], [0, 0, 1]]))


def _square(make, f):
    t = build_tensor(MutualActions.adjoint(make(f)))
    return t.presentation, t.eval_m, t.eval_n, t.ambient_twist(), t.algebra.labels


def _square_algebra(L):
    return build_tensor(MutualActions.adjoint(L)).algebra


def _entries(m: Matrix):
    return [(r, c) for r in range(m.rows) for c in range(m.cols)]


class TestDescentAgainstTheDensePath:
    """One bumped entry of an ambient twist, of an evaluation map (an action
    value) or of a fold (a bracket value): ``induced_map`` raises the same
    (r, w) and ``certified_quotient`` the same (r,) as the dense path, or
    both build the same map or algebra."""

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("make", [_twisted_sl2, heisenberg], ids=["twisted sl2", "heisenberg"])
    def test_ambient_twist(self, f, make):
        pres, eval_m, eval_n, twist, labels = _square(make, f)
        raised = 0
        for k, (r, c) in enumerate(_entries(twist)):
            bumped = _bump_map(twist, r, c)
            got = _outcome(induced_map, bumped, pres, pres)
            assert got == _outcome(dense_induced_map, bumped, pres, pres)
            assert got == _outcome(induced_map, bumped.sparse_cols, pres, pres)
            raised += isinstance(got, tuple)
            if k % 5 == 0:
                got = _outcome(certified_quotient, pres, eval_m, eval_n, bumped, labels)
                assert got == _outcome(dense_certified_quotient, pres, eval_m, eval_n, bumped, labels)
        assert raised

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("make", [_twisted_sl2, heisenberg], ids=["twisted sl2", "heisenberg"])
    def test_action_value(self, f, make):
        pres, eval_m, eval_n, twist, labels = _square(make, f)
        raised = 0
        for side in ("m", "n"):
            ev = eval_m if side == "m" else eval_n
            for r, c in _entries(ev):
                left, right = (_bump_map(ev, r, c), eval_n) if side == "m" else (eval_m, _bump_map(ev, r, c))
                got = _outcome(certified_quotient, pres, left, right, twist, labels)
                assert got == _outcome(dense_certified_quotient, pres, left, right, twist, labels)
                raised += isinstance(got, tuple) and got[0] is BracketNotWellDefined
        assert raised

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    @pytest.mark.parametrize("make", [upper_triangular, gl2])
    def test_bracket_value(self, f, make):
        A = make(f)
        h = hochschild_module(A)
        pres, fold, twist = h.presentation, to_leibniz(A).bracket_map(), A.twist.kron(A.twist)
        plain = quotient(f, A.dim, ())
        raised = 0
        for r, c in _entries(fold):
            bumped = _bump_map(fold, r, c)
            got = _outcome(induced_map, bumped, pres, plain)
            assert got == _outcome(dense_induced_map, bumped, pres, plain)
            got = _outcome(certified_quotient, pres, bumped, bumped, twist, h.algebra.labels)
            assert got == _outcome(dense_certified_quotient, pres, bumped, bumped, twist, h.algebra.labels)
            raised += isinstance(got, tuple) and got[0] is BracketNotWellDefined
        assert raised

    @pytest.mark.parametrize("f", FIELDS, ids=IDS)
    def test_presented_table_is_the_sparse_table(self, f):
        # a presented or quotient algebra is handed its sparse table; it
        # must be the one sparse_table reads off its dense table
        L = direct_sum(sl2(f), heisenberg(f))  # the centre of the Heisenberg summand is e6
        quot, _ = quotient_algebra(L, IdealHandle(L, Subspace.span(f, 6, [unit_vec(f, 6, 5)])))
        for T in (_square_algebra(_twisted_sl2(f)), _square_algebra(L), hochschild_module(gl2(f)).algebra, quot):
            assert T.sparse_c == sparse_table(T.c)
            assert not T.is_abelian()


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_zero_images_skip_the_membership_test(f, monkeypatch):
    # zero lies in every subspace, so a relation row whose image is zero is
    # never reduced: e_0 goes to zero, e_1 to the target's relation e_0 and
    # the coset generator e_2 to the class of e_1
    one = f.one()
    m = Matrix.from_columns(f, 2, [(), ((0, one),), ((1, one),)])
    src, dst = quotient(f, 3, [unit_vec(f, 3, 0), unit_vec(f, 3, 1)]), quotient(f, 2, [unit_vec(f, 2, 0)])
    reduced, residue = [], Subspace.residue
    monkeypatch.setattr(Subspace, "residue", lambda space, pairs: reduced.append(tuple(pairs)) or residue(space, pairs))
    for cols in (m, m.sparse_cols):
        assert induced_map(cols, src, dst) == Matrix.identity(f, 1)
    assert reduced == [((0, one),), ((1, one),)] * 2
