from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homleib.errors import DimensionError, FieldMismatch, NotWellDefined
from homleib.fields import Field
from homleib.linalg import (
    LinearMap,
    Matrix,
    QuotientSpace,
    RrefAccumulator,
    Subspace,
    induced_map,
    kernel,
    quotient,
    rref,
)

QQ = Field()
F5 = Field(5)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


def fields():
    return st.sampled_from([QQ, Field(3), F5, Field(7)])


def scalars(field):
    if field.is_rational:
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
        f = LinearMap(m.cols, m.rows, m)
        assert f.rank() + f.kernel().dim == m.cols

    @given(matrices())
    def test_accumulator_sparse_rows_match_dense(self, m):
        dense = RrefAccumulator(m.field, m.cols)
        sparse = RrefAccumulator(m.field, m.cols)
        for r in m.entries:
            row = tuple((c, x) for c, x in enumerate(r) if x)
            assert sparse.add(row, sparse=True) == dense.add(r)
        res = rref(m)
        assert sparse.basis_matrix() == dense.basis_matrix() == \
            Matrix(m.field, res.rank, m.cols, res.reduced.entries[:res.rank])


class TestKernel:
    def test_zero_map_full_kernel(self):
        f = LinearMap.zero(QQ, 3, 3)
        assert kernel(f).dim == 3

    def test_identity_zero_kernel(self):
        assert kernel(LinearMap.identity(QQ, 4)).dim == 0

    def test_one_equation(self):
        f = LinearMap(2, 1, mat(QQ, [[1, 1]]))
        ker = kernel(f)
        assert ker.basis.entries == ((Fraction(1), Fraction(-1)),)

    @given(matrices())
    def test_kernel_maps_to_zero(self, m):
        f = LinearMap(m.cols, m.rows, m)
        zero = (m.field.zero(),) * m.rows
        for v in f.kernel().basis.entries:
            assert f.apply(v) == zero


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
        q = QuotientSpace(m.cols, LinearMap(m.cols, m.rows, m).image()
                          if m.rows == m.cols else Subspace.span(m.field, m.cols, m.entries))
        coords = tuple(data.draw(scalars(m.field)) for _ in range(q.dim))
        assert q.project(q.lift(coords)) == coords

    @given(matrices(max_dim=3))
    def test_relations_project_to_zero(self, m):
        q = QuotientSpace(m.cols, Subspace.span(m.field, m.cols, m.entries))
        zero = (m.field.zero(),) * q.dim
        for r in m.entries:
            assert q.project(r) == zero


class TestInducedMap:
    def test_identity_on_equal_quotients(self):
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        f = LinearMap.identity(QQ, 2)
        g = induced_map(f, q, q)
        assert g.matrix == Matrix.identity(QQ, 1)

    def test_unipotent_twist_descends(self):
        # the twist fixing the derived line descends to the identity on the rest
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        f = LinearMap(2, 2, mat(QQ, [[1, 1], [0, 1]]))
        g = induced_map(f, q, q)
        assert g.matrix == Matrix.identity(QQ, 1)

    def test_swap_is_not_well_defined(self):
        q = quotient(QQ, 2, [(Fraction(1), Fraction(0))])
        swap = LinearMap(2, 2, mat(QQ, [[0, 1], [1, 0]]))
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
        f = LinearMap(3, 2, mat(QQ, [[1, 2, 0], [0, 0, 1]]))
        s = f.section()
        assert f.compose(s).matrix == Matrix.identity(QQ, 2)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            Matrix.identity(QQ, 2).mul(Matrix.identity(F5, 2))
