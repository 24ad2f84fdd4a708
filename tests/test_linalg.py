from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homleib.actions import MutualActions
from homleib.algebras import HomLeibnizAlgebra, direct_sum
from homleib.errors import DimensionError, FieldMismatch, NotWellDefined
from homleib.fields import Field
from homleib.generators import sl2
from homleib.linalg import (
    Matrix,
    QuotientSpace,
    RrefAccumulator,
    Subspace,
    connecting_map,
    contract,
    induced_map,
    outer,
    quotient,
    sparse_table,
    unit_vec,
    vec_add,
    vec_scale,
    vec_zero,
)
from homleib.tensorprod import build_tensor

QQ = Field()
F5 = Field(5)
GFP = Field(1000003)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


@dataclass(frozen=True)
class RrefResult:
    reduced: Matrix
    rank: int
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns: the dense
    Gauss-Jordan reference for ``RrefAccumulator`` and ``Matrix``."""
    f = m.field
    one = f.one()
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != one:
            inv = f.inv(pv)
            rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = Matrix(f, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return RrefResult(reduced, len(pivots), tuple(pivots))


def fields():
    return st.sampled_from([QQ, Field(3), F5, Field(7)])


def scalars(field):
    if field.p is None:
        return st.integers(-4, 4).map(Fraction)
    return st.integers(0, field.p - 1)


@st.composite
def matrices(draw, max_dim=4):
    field = draw(fields())
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix.from_rows(field, entries)


class TestRref:
    def test_identity_is_fixed(self):
        res = rref(Matrix.identity(QQ, 2))
        assert res.reduced == Matrix.identity(QQ, 2)
        assert res.rank == 2
        assert res.pivots == (0, 1)

    def test_zero_matrix(self):
        res = rref(Matrix.zero(QQ, 3, 3))
        assert res.reduced == Matrix.zero(QQ, 3, 3)
        assert res.rank == 0
        assert res.pivots == ()

    def test_dependent_rows(self):
        res = rref(mat(QQ, [[1, 2], [2, 4]]))
        assert res.reduced == mat(QQ, [[1, 2], [0, 0]])
        assert res.rank == 1

    def test_prime_field_division(self):
        res = rref(mat(F5, [[2, 1], [1, 1]]))
        assert res.rank == 2
        assert res.reduced == Matrix.identity(F5, 2)
        singular = rref(mat(F5, [[2, 1], [1, 3]]))  # determinant 5 = 0 here
        assert singular.rank == 1

    @given(matrices())
    def test_idempotent(self, m):
        once = rref(m).reduced
        assert rref(once).reduced == once

    @given(matrices())
    def test_rank_nullity(self, m):
        assert m.rank() + m.kernel().dim == m.cols

    @given(matrices())
    def test_accumulator_sparse_rows_match_dense(self, m):
        # add reports exactly the rows that raise the rank of the dense
        # reference, and the rows it keeps are the reference RREF
        acc = RrefAccumulator(m.field, m.cols)
        for k, r in enumerate(m.entries):
            row = tuple((c, x) for c, x in enumerate(r) if x)
            before = rref(Matrix(m.field, k, m.cols, m.entries[:k])).rank
            assert acc.add(row) == (rref(Matrix(m.field, k + 1, m.cols, m.entries[:k + 1])).rank > before)
        res = rref(m)
        assert acc.basis_matrix() == Matrix(m.field, res.rank, m.cols, res.reduced.entries[:res.rank])


class TestKernel:
    def test_zero_map_full_kernel(self):
        assert Matrix.zero(QQ, 3, 3).kernel().dim == 3

    def test_identity_zero_kernel(self):
        assert Matrix.identity(QQ, 4).kernel().dim == 0

    def test_one_equation(self):
        ker = mat(QQ, [[1, 1]]).kernel()
        assert ker.basis.entries == ((Fraction(1), Fraction(-1)),)

    @given(matrices())
    def test_kernel_maps_to_zero(self, m):
        zero = (m.field.zero(),) * m.rows
        for v in m.kernel().basis.entries:
            assert m.apply(v) == zero


class TestQuotient:
    def test_no_relations(self):
        q = quotient(QQ, 2, [])
        assert q.dim == 2
        v = (Fraction(3), Fraction(-1))
        assert q.project(v) == v

    def test_single_relation(self):
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        assert q.dim == 1
        assert q.coset_basis == (1,)

    def test_rank_three_relations(self):
        rows = [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 3), (1, 1, 1, 6)]
        vecs = [tuple(Fraction(x) for x in r) for r in rows]
        q = quotient(QQ, 4, vecs)
        assert q.dim == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            quotient(QQ, 2, [(Fraction(1),)])

    @given(matrices(max_dim=3), st.data())
    def test_project_lift_roundtrip(self, m, data):
        q = QuotientSpace(m.image() if m.rows == m.cols else Subspace.span(m.field, m.cols, m.entries))
        coords = tuple(data.draw(scalars(m.field)) for _ in range(q.dim))
        assert q.project(q.lift(coords)) == coords

    @given(matrices(max_dim=3))
    def test_relations_project_to_zero(self, m):
        q = QuotientSpace(Subspace.span(m.field, m.cols, m.entries))
        zero = (m.field.zero(),) * q.dim
        for r in m.entries:
            assert q.project(r) == zero


class TestInducedMap:
    def test_identity_on_equal_quotients(self):
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        g = induced_map(Matrix.identity(QQ, 2), q, q)
        assert g == Matrix.identity(QQ, 1)

    def test_unipotent_twist_descends(self):
        # the twist fixing the derived line descends to the identity on the rest
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        g = induced_map(mat(QQ, [[1, 1], [0, 1]]), q, q)
        assert g == Matrix.identity(QQ, 1)

    def test_swap_is_not_well_defined(self):
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        swap = mat(QQ, [[0, 1], [1, 0]])
        with pytest.raises(NotWellDefined):
            induced_map(swap, q, q)


class TestSubspace:
    def test_intersection(self):
        a = Subspace.span(QQ, 3, [(Fraction(1), Fraction(0), Fraction(0)),
                                  (Fraction(0), Fraction(1), Fraction(0))])
        b = Subspace.span(QQ, 3, [(Fraction(0), Fraction(1), Fraction(1)),
                                  (Fraction(1), Fraction(0), Fraction(1))])
        inter = a.intersect(b)
        assert inter.dim == 1
        assert inter.contains((Fraction(1), Fraction(-1), Fraction(0)))

    @given(matrices(max_dim=3), matrices(max_dim=3))
    def test_intersection_contains_both_ways(self, m1, m2):
        if m1.field != m2.field or m1.cols != m2.cols:
            return
        a = Subspace.span(m1.field, m1.cols, m1.entries)
        b = Subspace.span(m2.field, m2.cols, m2.entries)
        inter = a.intersect(b)
        assert a.contains_subspace(inter)
        assert b.contains_subspace(inter)

    def test_section_solves(self):
        f = mat(QQ, [[1, 2, 0], [0, 0, 1]])
        assert f.compose(f.section()) == Matrix.identity(QQ, 2)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            Matrix.identity(QQ, 2).compose(Matrix.identity(F5, 2))
        with pytest.raises(FieldMismatch):
            Matrix.identity(QQ, 2).add(Matrix.identity(F5, 2))
        with pytest.raises(FieldMismatch):
            Matrix.identity(QQ, 2).sub(Matrix.identity(F5, 2))


def _random_vec(field, rng, n):
    return tuple(field.from_int(rng.randint(-3, 3)) for _ in range(n))


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestKernelLayer:
    def test_contract_is_the_bilinear_sum(self, f):
        rng = random.Random(3)
        table = [[_random_vec(f, rng, 3) for _ in range(4)] for _ in range(2)]
        for _ in range(20):
            x, y = _random_vec(f, rng, 2), _random_vec(f, rng, 4)
            expected = vec_zero(f, 3)
            for i in range(2):
                for j in range(4):
                    expected = vec_add(f, expected, vec_scale(f, f.mul(x[i], y[j]), table[i][j]))
            assert contract(f, sparse_table(table), x, y, 3) == expected

    def test_outer_lands_on_tensor_generators(self, f):
        L = direct_sum(sl2(f), HomLeibnizAlgebra.abelian(f, 1))
        t = build_tensor(MutualActions.adjoint(L))
        size, offset = t.ambient_dim, L.dim * L.dim
        for i in range(L.dim):
            for j in range(L.dim):
                assert outer(f, L.unit(i), L.unit(j), size) == unit_vec(f, size, t.idx_mn(i, j))
                assert outer(f, L.unit(j), L.unit(i), size, offset) == \
                    unit_vec(f, size, t.idx_nm(j, i))
        rng = random.Random(5)
        u, v = _random_vec(f, rng, L.dim), _random_vec(f, rng, L.dim)
        mn, nm = outer(f, u, v, size), outer(f, v, u, size, offset)
        for i in range(L.dim):
            for j in range(L.dim):
                assert mn[t.idx_mn(i, j)] == f.mul(u[i], v[j])
                assert nm[t.idx_nm(j, i)] == f.mul(v[j], u[i])
        assert not any(mn[offset:]) and not any(nm[:offset])

    def test_coordinates_round_trip(self, f):
        rng = random.Random(11)
        rows = [_random_vec(f, rng, 6) for _ in range(3)]
        rows.append(vec_add(f, rows[0], rows[2]))
        space = Subspace.span(f, 6, rows)
        assert space.dim == 3
        vectors = rows + [vec_zero(f, 6)]
        vectors += [space.basis.transpose().apply(_random_vec(f, rng, 3)) for _ in range(20)]
        for v in vectors:
            c = space.coordinates(v)
            assert c is not None
            combo = vec_zero(f, 6)
            for ck, b in zip(c, space.basis.entries):
                combo = vec_add(f, combo, vec_scale(f, ck, b))
            assert combo == v
        free = next(k for k in range(6) if k not in space.pivots())
        outside = vec_add(f, rows[1], unit_vec(f, 6, free))
        assert space.coordinates(outside) is None

    def test_preimage_outside_the_image_is_none(self, f):
        m = mat(f, [[1, 2, 0], [0, 0, 1], [1, 2, 1]])
        assert m.rank() == 2
        inside = m.apply((f.from_int(2), f.from_int(-1), f.from_int(3)))
        assert m.apply(m.preimage(inside)) == inside
        assert m.preimage(unit_vec(f, 3, 2)) is None


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestConnectingMap:
    """Row 3 -> 2 keeps the first two coordinates, so a lift of v is
    (v1, v2, 0); the column sends it to (v1 + 2 v2, v2, 3 v1)."""

    def parts(self, f, row_rows=((1, 0, 0), (0, 1, 0))):
        return mat(f, row_rows), mat(f, [[1, 2, 0], [0, 1, 1], [3, 0, 5]])

    def test_lifts_give_the_expected_columns(self, f):
        row, column = self.parts(f)
        delta = connecting_map(Subspace.full(f, 2), row, column, lambda w: w, 3)
        assert delta == mat(f, [[1, 2], [0, 1], [3, 0]])
        line = Subspace.span(f, 2, [(f.one(), f.one())])
        delta = connecting_map(line, row, column, lambda w: w[:1], 1)
        assert delta == mat(f, [[3]])

    def test_row_not_onto_the_kernel_is_none(self, f):
        row, column = self.parts(f, ((1, 0, 0), (0, 0, 0)))
        assert connecting_map(Subspace.full(f, 2), row, column, lambda w: w, 3) is None

    def test_failed_read_is_none(self, f):
        row, column = self.parts(f)
        # the first column (1, 0, 3) reads off, the second (2, 1, 0) does not
        target = Subspace.span(f, 3, [(f.one(), f.zero(), f.from_int(3))])
        assert connecting_map(Subspace.full(f, 2), row, column, target.coordinates, 1) is None
        assert connecting_map(Subspace.full(f, 2), row, column, lambda w: None, 3) is None

    def test_empty_kernel_gives_an_empty_map(self, f):
        row, column = self.parts(f)
        delta = connecting_map(Subspace.zero(f, 2), row, column, lambda w: w, 3)
        assert (delta.rows, delta.cols) == (3, 0)


@st.composite
def low_rank_matrices(draw, field, max_dim=5):
    """A product of two small random matrices, so ranks below full are common."""
    rows, inner, cols = (draw(st.integers(1, max_dim)) for _ in range(3))
    entry = st.integers(-2, 2).map(field.from_int)

    def grid(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    return Matrix.from_rows(field, grid(rows, inner)).compose(Matrix.from_rows(field, grid(inner, cols)))


def _dense_solution(m, b):
    """The solution of m.x = b with free variables zero, read off the dense
    ``rref`` of [m | b], or None when the system is inconsistent."""
    f = m.field
    res = rref(Matrix(f, m.rows, m.cols + 1, tuple(r + (x,) for r, x in zip(m.entries, b))))
    x = [f.zero()] * m.cols
    for r, pc in enumerate(res.pivots):
        if pc == m.cols:
            return None
        x[pc] = res.reduced.entries[r][m.cols]
    return tuple(x)


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestEliminationEngine:
    """Every rank, kernel, preimage and section of a ``Matrix`` equals the
    one read off the dense reference ``rref``."""

    @given(st.data())
    def test_matches_the_dense_reference(self, f, data):
        m = data.draw(low_rank_matrices(f))
        res = rref(m)
        assert m.rank() == res.rank
        kernel = []
        for c in range(m.cols):
            if c in res.pivots:
                continue
            v = [f.zero()] * m.cols
            v[c] = f.one()
            for r, pc in enumerate(res.pivots):
                v[pc] = f.neg(res.reduced.entries[r][c])
            kernel.append(tuple(v))
        assert m.kernel() == Subspace.span(f, m.cols, kernel)
        entry = st.integers(-3, 3).map(f.from_int)
        x = tuple(data.draw(entry) for _ in range(m.cols))
        b = tuple(data.draw(entry) for _ in range(m.rows))
        for v in (m.apply(x), b):
            assert m.preimage(v) == _dense_solution(m, v)
        units = [_dense_solution(m, unit_vec(f, m.rows, k)) for k in range(m.rows)]
        if None in units:
            with pytest.raises(NotWellDefined, match=f"coordinate {units.index(None)};"):
                m.section()
        else:
            assert m.section() == Matrix.from_columns(f, m.cols, units)

    def test_factor_is_built_once(self, f, monkeypatch):
        inserted = []
        add = RrefAccumulator.add

        def counting_add(acc, v):
            inserted.append(v)
            return add(acc, v)

        monkeypatch.setattr(RrefAccumulator, "add", counting_add)
        m = mat(f, [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 3, 2]])
        v = m.apply((f.one(), f.from_int(2), f.zero(), f.from_int(-1)))
        assert m.apply(m.preimage(v)) == v
        assert len(inserted) == m.rows
        m.preimage(unit_vec(f, 3, 1))
        assert m.rank() == 3
        assert m.compose(m.section()) == Matrix.identity(f, 3)
        assert len(inserted) == m.rows

    def test_wrong_length_raises(self, f):
        space = Subspace.span(f, 3, [unit_vec(f, 3, 0)])
        m = Matrix.identity(f, 3)
        for v in (unit_vec(f, 2, 0), unit_vec(f, 4, 0)):
            for call in (space.contains, space.coordinates, space.reduce, m.preimage):
                with pytest.raises(DimensionError):
                    call(v)
