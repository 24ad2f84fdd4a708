from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from homleib.actions import MutualActions
from homleib.algebras import HomLeibnizAlgebra, IdealHandle, direct_sum
from homleib.errors import DimensionError, FieldMismatch, NotWellDefined, StructureError
from homleib.fields import Field
from homleib import linalg
from homleib.generators import sl2
from homleib.linalg import (
    Matrix,
    QuotientSpace,
    RrefAccumulator,
    Subspace,
    canonical_scalars,
    contract,
    dense_vec,
    exact,
    induced_map,
    linear,
    quotient,
    snake,
    sparse_add,
    sparse_outer,
    sparse_table,
    sparse_vec,
    unit_vec,
)
from homleib.tensorprod import build_tensor, ideal_sequence_certificate

from test_checker import dense_add, dense_scale
from homleib_testkit import embed_nm, sl2_on_two_planes

QQ = Field()
F3 = Field(3)
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

    @given(matrices(), st.randoms(use_true_random=False))
    def test_accumulator_sparse_rows_match_dense(self, m, rnd):
        # add reports exactly the rows that raise the rank of the dense
        # reference, and the rows it keeps are the reference RREF; the rows
        # added in shuffled order, each with its pairs shuffled, give an
        # equal subspace, since a row is reduced at its pivots in any order
        acc = RrefAccumulator(m.field, m.cols)
        rows = []
        for k, r in enumerate(m.entries):
            rows.append([(c, x) for c, x in enumerate(r) if x])
            before = rref(Matrix(m.field, k, m.cols, m.entries[:k])).rank
            assert acc.add(rows[-1]) == (rref(Matrix(m.field, k + 1, m.cols, m.entries[:k + 1])).rank > before)
        res = rref(m)
        assert acc.subspace().basis == Matrix(m.field, res.rank, m.cols, res.reduced.entries[:res.rank])
        shuffled = RrefAccumulator(m.field, m.cols)
        rnd.shuffle(rows)
        for row in rows:
            rnd.shuffle(row)
            shuffled.add(row)
        assert shuffled.subspace() == acc.subspace()


    @given(matrices(), st.randoms(use_true_random=False))
    def test_span_sparse_eliminates_each_distinct_row_once(self, m, rnd):
        # every row fed twice, shuffled, spans the same subspace, and a row
        # equal to one already added is skipped before elimination
        rows = [tuple((c, x) for c, x in enumerate(r) if x) for r in m.entries]
        doubled = rows * 2
        rnd.shuffle(doubled)
        added, add = [], RrefAccumulator.add
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RrefAccumulator, "add", lambda acc, v: added.append(v) or add(acc, v))
            span = Subspace.span_sparse(m.field, m.cols, doubled)
        assert span == Subspace.span(m.field, m.cols, m.entries)
        assert sorted(added) == sorted({r for r in rows if r})


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
        # coordinates placed at the coset generators, zeros at the pivots
        assert q.project(dense_vec(m.field, m.cols, zip(q.coset_basis, coords))) == coords

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
        # a GF(5) subspace is not read as one over Q
        line = Subspace.span(F5, 2, [(F5.one(), F5.from_int(4))])
        for call in (Subspace.full(QQ, 2).add, Subspace.full(QQ, 2).intersect, Subspace.full(QQ, 2).contains_subspace):
            with pytest.raises(FieldMismatch):
                call(line)

    def test_columns_outside_the_ambient_space_rejected(self):
        # a negative column would be the last coordinate of a dense vector,
        # and a column at the ambient dimension would be none at all
        for rows in ([((-1, QQ.one()),)], [((3, QQ.one()),)], [((0, QQ.one()), (3, QQ.one())), ((0, QQ.one()),)]):
            with pytest.raises(DimensionError):
                Subspace.span_sparse(QQ, 3, rows)
        with pytest.raises(DimensionError):
            Subspace(QQ, 2, (((0, QQ.one()), (2, QQ.one())),))
        assert Subspace.span_sparse(QQ, 3, [((2, QQ.one()),)]).basis.entries == ((0, 0, 1),)


def dense_outer(f, u, v, size, offset=0) -> tuple:
    """The pure tensor u (x) v of dense vectors in a coordinate space of the
    given size, v's length its stride, as a dense vector: the reference
    form of a relation term."""
    return dense_vec(f, size, sparse_outer(f, sparse_vec(u), sparse_vec(v), len(v), offset))


def idx_mn(t, i: int, j: int) -> int:
    """The ambient generator m_i * n_j of a tensor product, in the block m*n."""
    return i * t.n_side.dim + j


def idx_nm(t, j: int, i: int) -> int:
    """The ambient generator n_j * m_i, in the block n*m after m*n."""
    return t.m_side.dim * t.n_side.dim + j * t.m_side.dim + i


def _random_vec(field, rng, n):
    return tuple(field.from_int(rng.randint(-3, 3)) for _ in range(n))


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestKernelLayer:
    def test_contract_is_the_bilinear_sum(self, f):
        rng = random.Random(3)
        table = [[_random_vec(f, rng, 3) for _ in range(4)] for _ in range(2)]
        for _ in range(20):
            x, y = _random_vec(f, rng, 2), _random_vec(f, rng, 4)
            expected = (f.zero(),) * 3
            for i in range(2):
                for j in range(4):
                    expected = dense_add(f, expected, dense_scale(f, f.mul(x[i], y[j]), table[i][j]))
            assert contract(f, sparse_table(table), x, y, 3) == expected

    def test_outer_lands_on_tensor_generators(self, f):
        L = direct_sum(sl2(f), HomLeibnizAlgebra.abelian(f, 1))
        t = build_tensor(MutualActions.adjoint(L))
        size, offset = t.ambient_dim, L.dim * L.dim
        for i in range(L.dim):
            for j in range(L.dim):
                assert t.embed_mn(L.unit(i), L.unit(j)) == unit_vec(f, size, idx_mn(t, i, j))
                assert embed_nm(t, L.unit(j), L.unit(i)) == unit_vec(f, size, idx_nm(t, j, i))
        rng = random.Random(5)
        u, v = _random_vec(f, rng, L.dim), _random_vec(f, rng, L.dim)
        mn, nm = t.embed_mn(u, v), embed_nm(t, v, u)
        for i in range(L.dim):
            for j in range(L.dim):
                assert mn[idx_mn(t, i, j)] == f.mul(u[i], v[j])
                assert nm[idx_nm(t, j, i)] == f.mul(v[j], u[i])
        assert not any(mn[offset:]) and not any(nm[:offset])

    def test_coordinates_round_trip(self, f):
        rng = random.Random(11)
        rows = [_random_vec(f, rng, 6) for _ in range(3)]
        rows.append(dense_add(f, rows[0], rows[2]))
        space = Subspace.span(f, 6, rows)
        assert space.dim == 3
        vectors = rows + [(f.zero(),) * 6]
        vectors += [space.basis.transpose().apply(_random_vec(f, rng, 3)) for _ in range(20)]
        for v in vectors:
            c = space.coordinates(v)
            assert c is not None
            combo = (f.zero(),) * 6
            for ck, b in zip(c, space.basis.entries):
                combo = dense_add(f, combo, dense_scale(f, ck, b))
            assert combo == v
        free = next(k for k in range(6) if k not in space.pivots())
        outside = dense_add(f, rows[1], unit_vec(f, 6, free))
        assert space.coordinates(outside) is None

    def test_preimage_outside_the_image_is_none(self, f):
        m = mat(f, [[1, 2, 0], [0, 0, 1], [1, 2, 1]])
        assert m.rank() == 2
        inside = m.apply((f.from_int(2), f.from_int(-1), f.from_int(3)))
        assert m.apply(m.preimage(inside)) == inside
        assert m.preimage(unit_vec(f, 3, 2)) is None


class TestSparseColumns:
    def test_one_form_for_equal_maps(self):
        # a map is its sparse columns, whichever constructor built it
        dense = Matrix(QQ, 2, 3, ((1, 0, 0), (0, 1, 0)))
        sparse = Matrix.from_columns(QQ, 2, [((0, 1),), ((1, 1),), ()])
        assert dense == sparse and hash(dense) == hash(sparse)
        assert sparse.sparse_cols == (((0, 1),), ((1, 1),), ())
        assert sparse.entries == dense.entries and sparse.col(1) == (0, 1)
        assert Matrix.identity(QQ, 2) == Matrix.from_rows(QQ, [[1, 0], [0, 1]])

    def test_columns_refused_outside_the_rows(self):
        # the indices of a column increase within range(rows): none wraps
        # round to the last row, runs past it or repeats
        assert Matrix.from_columns(QQ, 2, [((0, 1), (1, 3))]).entries == ((1,), (3,))
        for col in (((-1, 1),), ((5, 1),), ((2, 1),), ((1, 1), (0, 1)), ((0, 1), (0, 2))):
            with pytest.raises(DimensionError, match=r"range\(2\)"):
                Matrix.from_columns(QQ, 2, [col])

    def test_non_canonical_scalars_refused(self):
        # over GF(5) the int 5 is zero in the field: a map that stored it
        # would read as nonzero and fail to eliminate
        for build in (lambda: Matrix(F5, 1, 1, ((5,),)),
                      lambda: Matrix.from_rows(F5, [[Fraction(1, 2)]]),
                      lambda: Matrix.from_columns(F5, 1, [((0, 5),)]),
                      lambda: Matrix.from_columns(F5, 1, [((0, -1),)]),
                      lambda: Matrix.from_columns(QQ, 1, [((0, 0),)]),
                      # over Q a float, a string or a bool is no scalar, zero or not
                      lambda: Matrix(QQ, 2, 2, [[0.5, 0], [0, 1]]),
                      lambda: Matrix(QQ, 1, 1, [["1"]]),
                      lambda: Matrix(QQ, 1, 2, [[Fraction(2, 1), True]]),
                      lambda: Matrix(QQ, 1, 2, [[1, 0.0]]),
                      # the sparse edge applies the same rule, Field.is_scalar
                      lambda: Matrix.from_columns(QQ, 2, [((0, 0.5),), ((1, True),)]),
                      lambda: Matrix.from_columns(QQ, 1, [((0, "1"),)]),
                      lambda: Matrix.from_columns(F5, 1, [((0, True),)])):
            with pytest.raises(StructureError, match="canonical scalars"):
                build()
        assert Matrix.from_rows(F5, [[5, 7]]) == Matrix(F5, 1, 2, ((0, 2),))
        # over Q an integral Fraction is kept as given and equals its int
        m = Matrix(QQ, 1, 2, ((Fraction(2), 0),))
        assert m == Matrix.from_rows(QQ, [[2, 0]]) and m.rank() == 1 and not m.is_zero()
        m = Matrix.from_columns(QQ, 2, [((0, Fraction(2)), (1, Fraction(1, 2)))])
        assert type(m.sparse_cols[0][0][1]) is Fraction
        assert m == Matrix.from_columns(QQ, 2, [((0, 2), (1, Fraction(1, 2)))]) and m.rank() == 1


def rows_of(space) -> Matrix:
    """The inclusion of a subspace's basis rows: a column whose image, and
    so whose cokernel's relations, it is."""
    return Matrix.from_columns(space.field, space.ambient_dim, space.sparse_rows)


def with_kernel(space) -> Matrix:
    """A column whose kernel is ``space``: the projection modulo it."""
    return QuotientSpace(space).projection_map()


def connecting(kernel, row, column, lower=None, modulo=None):
    """``snake``'s connecting map on ``kernel``, as ker gamma of the
    projection modulo it onto C', with g' zero and no images: A is
    ``modulo``'s basis, by default none, alpha their inclusion into f''s
    domain and f zero, so coker alpha is that domain modulo ``modulo``.  f'
    is ``lower``, by default the identity."""
    f = column.field
    lower = lower or Matrix.identity(f, column.rows)
    alpha, gamma = rows_of(modulo or Subspace.zero(f, lower.cols)), with_kernel(kernel)
    return snake(Matrix.zero(f, column.cols, alpha.cols), row, lower, Matrix.zero(f, gamma.rows, column.rows), alpha,
                 column, gamma).delta


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestConnectingMap:
    """Row 3 -> 2 keeps the first two coordinates, so a lift of v is
    (v1, v2, 0); the column sends it to (v1 + 2 v2, v2, 3 v1)."""

    def parts(self, f, row_rows=((1, 0, 0), (0, 1, 0))):
        return mat(f, row_rows), mat(f, [[1, 2, 0], [0, 1, 1], [3, 0, 5]])

    def test_lifts_give_the_expected_columns(self, f):
        row, column = self.parts(f)
        delta = connecting(Subspace.full(f, 2), row, column)
        assert delta == mat(f, [[1, 2], [0, 1], [3, 0]])
        # modulo the last two coordinates the class is the first one
        line = Subspace.span(f, 2, [(f.one(), f.one())])
        delta = connecting(line, row, column, modulo=Subspace.span(f, 3, [(0, 1, 0), (0, 0, 1)]))
        assert delta == mat(f, [[3]])

    def test_row_not_onto_the_kernel_is_none(self, f):
        row, column = self.parts(f, ((1, 0, 0), (0, 0, 0)))
        assert connecting(Subspace.full(f, 2), row, column) is None

    def test_failed_read_is_none(self, f):
        row, column = self.parts(f)
        # the first column (1, 0, 3) has a preimage through f', the second (2, 1, 0) not
        lower = Matrix.from_columns(f, 3, [((0, f.one()), (2, f.from_int(3)))])
        assert connecting(Subspace.full(f, 2), row, column, lower) is None
        assert connecting(Subspace.full(f, 2), row, column, Matrix.zero(f, 3, 3)) is None

    def test_empty_kernel_gives_an_empty_map(self, f):
        row, column = self.parts(f)
        delta = connecting(Subspace.zero(f, 2), row, column)
        assert (delta.rows, delta.cols) == (3, 0)


@st.composite
def low_rank_matrices(draw, field, max_dim=5, cols=None, rows=None):
    """A product of two small random matrices, so ranks below full are common."""
    drawn_rows, inner, drawn = (draw(st.integers(1, max_dim)) for _ in range(3))
    rows, cols = rows or drawn_rows, cols or drawn
    entry = st.integers(-2, 2).map(field.from_int)

    def grid(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    return Matrix.from_rows(field, grid(rows, inner)).compose(Matrix.from_rows(field, grid(inner, cols)))


def _dense_solution(m, b):
    """The solution of m.x = b that is zero at the pivots of the kernel's
    RREF, or None when the system is inconsistent: with m's columns reversed,
    the solution with free variables zero read off the dense ``rref`` of
    [m | b], read back in reverse.  A column is a pivot of the kernel
    exactly when it is a combination of the columns after it, that is a
    free column of the reversed m."""
    f = m.field
    res = rref(Matrix(f, m.rows, m.cols + 1, tuple(r[::-1] + (x,) for r, x in zip(m.entries, b))))
    x = [f.zero()] * m.cols
    for r, pc in enumerate(res.pivots):
        if pc == m.cols:
            return None
        x[pc] = res.reduced.entries[r][m.cols]
    return tuple(x[::-1])


def _dense_kernel(m) -> list:
    """One kernel vector of m per free column of the dense reference ``rref``:
    1 there, minus that column of the RREF at the pivots."""
    f, res = m.field, rref(m)
    kernel = []
    for c in range(m.cols):
        if c in res.pivots:
            continue
        v = [f.zero()] * m.cols
        v[c] = f.one()
        for r, pc in enumerate(res.pivots):
            v[pc] = f.neg(res.reduced.entries[r][c])
        kernel.append(tuple(v))
    return kernel


def _dense_basis(f, n, vectors) -> Matrix:
    """The nonzero rows of the dense reference ``rref`` of the vectors."""
    res = rref(Matrix(f, len(vectors), n, tuple(vectors)))
    return Matrix(f, res.rank, n, res.reduced.entries[:res.rank])


def _dense_combinations(f, n, rows, coefficient_vectors) -> list:
    """The combinations sum c_i rows_i of dense rows, one per coefficient vector."""
    out = []
    for c in coefficient_vectors:
        v = (f.zero(),) * n
        for x, row in zip(c, rows):
            v = dense_add(f, v, dense_scale(f, x, row))
        out.append(v)
    return out


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestEliminationEngine:
    """Every rank, image, kernel, preimage and section of a ``Matrix``
    equals the one read off the dense reference ``rref``."""

    @given(st.data())
    def test_matches_the_dense_reference(self, f, data):
        m = data.draw(low_rank_matrices(f))
        res = rref(m)
        assert m.rank() == res.rank == m.image().dim
        assert m.image().basis == _dense_basis(f, m.rows, [m.col(j) for j in range(m.cols)])
        assert m.kernel() == Subspace.span(f, m.cols, _dense_kernel(m))
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
            assert m.section() == Matrix.from_columns(f, m.cols, map(sparse_vec, units))

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
        assert len(inserted) == m.cols
        m.preimage(unit_vec(f, 3, 1))
        assert m.rank() == m.image().dim == 3
        assert m.kernel().dim == 1
        assert m.compose(m.section()) == Matrix.identity(f, 3)
        assert len(inserted) == m.cols

    def test_wrong_length_raises(self, f):
        space = Subspace.span(f, 3, [unit_vec(f, 3, 0)])
        m = Matrix.identity(f, 3)
        for v in (unit_vec(f, 2, 0), unit_vec(f, 4, 0)):
            for call in (space.contains, space.coordinates, space.reduce, m.preimage):
                with pytest.raises(DimensionError):
                    call(v)


def _times(f, cols, x) -> dict:
    """The map with sparse columns ``cols`` at the sparse vector x, as
    {row: value} without zeros: the witness checker's own product, by
    field multiplication and addition only, sharing no code with ``linalg``."""
    out = {}
    for j, a in x:
        for k, t in cols[j]:
            out[k] = f.add(out.get(k, f.zero()), f.mul(a, t))
    return {k: y for k, y in out.items() if y}


def check_rank_witness(m: Matrix) -> None:
    """m's rank certified by multiplication only, off the rows of its
    factor: each image row R lies in the image, m.x = R at x =
    ``preimage_sparse(R)``, and each kernel row maps to zero.  Rows with
    distinct leading pivots are independent, so rank m is at least the
    number of image rows and dim ker m at least the number of kernel rows;
    the two number m.cols together, so both bounds are equalities."""
    f = m.field
    image, kernel = m.image().sparse_rows, m.kernel().sparse_rows
    for r in image:
        x = m.preimage_sparse(r)
        assert x is not None and _times(f, m.sparse_cols, x) == dict(r)
    assert not any(_times(f, m.sparse_cols, r) for r in kernel)
    for rows in (image, kernel):
        assert len({min(k for k, x in r if x) for r in rows}) == len(rows)
    assert len(image) + len(kernel) == m.cols and m.rank() == len(image)


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestRankWitness:
    """Every rank carries a witness that the multiplication-only checker
    accepts, and the checker refuses a factor with a wrong row."""

    @given(st.data())
    def test_drawn_maps(self, f, data):
        check_rank_witness(data.draw(low_rank_matrices(f, max_dim=6)))

    @pytest.mark.parametrize("algebra, first", [("sl2", 0), ("sl2", 3), ("sl2 x (V2 + V2)", 3)],
                             ids=["sl2, full ideal", "sl2, zero ideal", "sl2 x (V2 + V2), ideal V"])
    def test_six_term_maps(self, f, algebra, first):
        # tau, psi_LL and sigma of the ideal's tensor row
        L = {"sl2": sl2, "sl2 x (V2 + V2)": sl2_on_two_planes}[algebra](f)
        data = ideal_sequence_certificate(L, IdealHandle(L, Subspace.span(
            f, L.dim, [unit_vec(f, L.dim, i) for i in range(first, L.dim)])))
        for m in (data.tau.map, data.t_ll.into_m.map, data.sigma):
            check_rank_witness(m)

    @pytest.mark.parametrize("row, space", [("_kernel", lambda f: Subspace.zero(f, 4)),
                                            ("_kernel", lambda f: Subspace.span(f, 4, [unit_vec(f, 4, 3)])),
                                            ("_image", lambda f: Subspace.full(f, 3))],
                             ids=["a kernel row missing", "a kernel row off the kernel", "an image row off the image"])
    def test_checker_refuses_a_wrong_factor(self, f, row, space):
        m = mat(f, [[1, 2, 0, 1], [0, 1, 1, 0], [1, 1, -1, 1]])  # rank 2
        check_rank_witness(m)
        m.__dict__[row] = space(f)
        with pytest.raises(AssertionError):
            check_rank_witness(m)


def dense_reduce(space: Subspace, v) -> tuple:
    """(c, w) with v = sum of c_k basis_k + w, w zero at every pivot: the
    dense reduction of v row by row against the RREF basis, the reference
    for ``Subspace.residue``."""
    f = space.field
    w, coords = list(v), []
    for row, p in zip(space.basis.entries, space.pivots()):
        c = w[p]
        coords.append(c)
        if c:
            for j, x in enumerate(row):
                if x:
                    w[j] = f.sub(w[j], f.mul(c, x))
    return tuple(coords), tuple(w)


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestResidue:
    """The sparse residue, and every dense reading of it, against the dense
    reduction on random reduced subspaces."""

    @given(st.data())
    def test_matches_the_dense_reduction(self, f, data):
        m = data.draw(low_rank_matrices(f))
        space = Subspace.span(f, m.cols, m.entries)
        entry = st.integers(0, f.p - 1) if f.p else \
            st.builds(f.div, st.integers(-4, 4), st.integers(1, 3))
        outside = tuple(data.draw(entry) for _ in range(m.cols))
        x = tuple(data.draw(entry) for _ in range(space.dim))
        inside = space.basis.transpose().apply(x)
        q = QuotientSpace(space)
        for v in (outside, inside, dense_add(f, inside, outside)):
            coords, w = dense_reduce(space, v)
            assert space.residue(sparse_vec(v)) == dict(sparse_vec(w))
            assert not any(w[p] for p in space.pivots())
            assert space.reduce(v) == w
            assert space.contains(v) == space.contains_sparse(sparse_vec(v)) == (not any(w))
            assert space.coordinates(v) == (None if any(w) else coords)
            assert q.project(v) == tuple(w[c] for c in q.coset_basis)
            assert q.project_sparse(sparse_vec(v)) == sparse_vec(q.project(v))
        assert space.coordinates(inside) == x


def _descended(m, src, dst):
    """The map ``induced_map`` gives, or None when it does not descend."""
    try:
        return induced_map(m, src, dst)
    except NotWellDefined:
        return None


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestSparseStorage:
    """A subspace keeps only the sparse rows of its RREF.  Its dense basis,
    and every sum and intersection, equals the computation on dense rows
    with the reference ``rref``, and ``snake``'s exactness verdicts equal
    the subspace equalities they decide; equal subspaces built in different
    ways compare and hash equal."""

    @given(st.data())
    def test_matches_the_dense_computation(self, f, data):
        m = data.draw(low_rank_matrices(f))
        n = m.cols
        other = data.draw(low_rank_matrices(f, cols=n))
        a, b = Subspace.span(f, n, m.entries), Subspace.span(f, n, other.entries)
        assert "basis" not in vars(a)  # the dense view is built only when read
        assert a.basis == _dense_basis(f, n, m.entries)
        assert a.add(b).basis == _dense_basis(f, n, a.basis.entries + b.basis.entries)
        stacked = Matrix.from_columns(f, n, map(sparse_vec, a.basis.entries + b.basis.entries))
        kernel = [w[:a.dim] for w in _dense_kernel(stacked)]
        assert a.intersect(b).basis == _dense_basis(f, n, _dense_combinations(f, n, a.basis.entries, kernel))

    @given(st.data())
    def test_exact_is_the_subspace_equality(self, f, data):
        """``exact(f, g)``, g after f zero and the ranks adding up to the
        middle dimension, against im f = ker g: on random pairs, on a basis
        of ker g, on that basis less a row (the inclusion holds, the count
        fails) and on it with one row moved off ker g (the count holds, the
        inclusion fails)."""
        g = data.draw(low_rank_matrices(f))
        n, one = g.cols, f.one()
        rows = g.kernel().sparse_rows
        off = [((j, one),) for j in range(n) if g.sparse_cols[j]]  # basis vectors off ker g
        moved = [sorted(sparse_add(f, rows[0], off[0], one)), *rows[1:]] if rows and off else rows
        for cols in (rows, rows[:-1], moved, data.draw(low_rank_matrices(f, cols=n)).transpose().sparse_cols):
            m = Matrix.from_columns(f, n, cols)
            assert exact(m, g) == (m.image() == g.kernel())
        assert exact(Matrix.from_columns(f, n, rows), g)
        if rows:
            assert not exact(Matrix.from_columns(f, n, rows[:-1]), g)
        if rows and off:
            assert not exact(Matrix.from_columns(f, n, moved), g)

    def test_snake_verdicts_match_the_subspace_equalities(self, f):
        """``snake``'s five exactness verdicts, each an inclusion and a
        dimension count, against the definitions: the images span ker beta &
        ker row (``intersect``); row(ker beta) is ker delta (delta's dense
        kernel expanded in the basis of ker gamma); im delta = ker F and
        im F = ker G for the maps F and G that ``induced_map`` gives on the
        cokernels; and G is onto.  delta and F and G themselves equal their
        dense definitions.  The draws are columns: A is the images' space
        plus a basis of the wanted coker alpha relations, f carries the
        first block onto the images and the second anywhere, alpha includes
        the second, and gamma is the projection modulo the wanted ker gamma
        followed by a drawn map's graph.  They mix the snake lemma's own
        data, which is exact, with near misses: images moved along ker row
        or ker beta, ker gamma moved off row(ker beta), zero or failing
        reads, and lower maps drawn at random, through gamma, or through
        gamma and coker beta; so the two kernel verdicts occur both ways.
        Fixed near misses pass every half of a verdict but one, so each
        cokernel verdict occurs both ways too."""
        seen = set()

        @given(st.data())
        def check(data):
            row = data.draw(low_rank_matrices(f))
            n, m = row.cols, row.rows
            beta = data.draw(low_rank_matrices(f, cols=n))
            r = beta.rows
            middle, ker_row = beta.kernel(), row.kernel().sparse_rows
            spanning = Matrix.from_rows(f, row.entries + beta.entries).kernel().sparse_rows  # ker beta & ker row
            images = data.draw(st.sampled_from([
                spanning, spanning[:-1], *([sparse_add(f, v, k, f.one()) for v, k in zip(spanning, cycle(moves))]
                                           for moves in (ker_row, middle.sparse_rows)),
                [sparse_vec(v) for v in data.draw(low_rank_matrices(f, cols=n)).entries]]))
            lifted = [sparse_vec(v) for v in data.draw(low_rank_matrices(f, cols=n)).entries]
            moved = [sparse_add(f, v, w, f.one()) for v, w in zip(middle.sparse_rows, cycle(lifted))]
            units = [((j, f.one()),) for j in range(n)]  # onto im row
            kernel = Subspace.span_sparse(f, m, [linear(f, row.sparse_cols, v) for v in data.draw(
                st.sampled_from([lifted, lifted + list(middle.sparse_rows), moved, units]))])

            def drawn_map(cols, rows):  # a random map from a cols-space into a rows-space
                return data.draw(low_rank_matrices(f, cols=cols, rows=rows)) if cols and rows else \
                    Matrix.zero(f, rows, cols)

            def drawn_space(dim):
                return Subspace.span(f, dim, data.draw(low_rank_matrices(f, cols=dim)).entries)

            # the snake lemma's coker alpha, f' the identity: B' modulo beta(ker row)
            own = Subspace.span_sparse(f, r, [linear(f, beta.sparse_cols, v) for v in ker_row])
            wild = drawn_map(data.draw(st.integers(1, 5)), r)
            lower_f, relations = data.draw(st.sampled_from([
                (Matrix.identity(f, r), own), (Matrix.identity(f, r), Subspace.zero(f, r)),
                (Matrix.identity(f, r), Subspace.full(f, r)), (wild, drawn_space(wild.cols))]))
            upper_f = Matrix.from_columns(f, n, [sorted(v) for v in images] +
                                          list(drawn_map(relations.dim, n).sparse_cols))
            alpha = Matrix.from_columns(f, lower_f.cols, [()] * len(images) + list(relations.sparse_rows))
            # gamma: x -> (P x, D P x), with kernel ker P and the graph of D as image
            P = with_kernel(kernel)
            D = drawn_map(P.rows, data.draw(st.integers(1, 3))).compose(P)
            gamma = Matrix.from_columns(f, P.rows + D.rows, [
                (*u, *((k + P.rows, x) for k, x in v)) for u, v in zip(P.sparse_cols, D.sparse_cols)])
            # g' drawn, through gamma (G descends and is zero), or through
            # gamma plus a map that kills im beta (G descends)
            modulo_beta = with_kernel(beta.image())
            lower_g = data.draw(st.sampled_from([
                drawn_map(r, gamma.rows), gamma.compose(drawn_map(r, m)),
                gamma.compose(drawn_map(r, m)).add(drawn_map(modulo_beta.rows, gamma.rows).compose(modulo_beta))]))
            seen.update(zip(("ker beta", "ker gamma"),
                            self.snake_verdicts(f, upper_f, row, lower_f, lower_g, alpha, beta, gamma)))

        check()
        assert {("ker beta", True), ("ker beta", False), ("ker gamma", True), ("ker gamma", False)} <= seen
        one = f.one()
        e = [((i, one),) for i in range(3)]

        # kernel half, with A' = B' = a line, f' zero and gamma the
        # projection modulo the wanted ker gamma: images in ker row, not in
        # ker beta; in ker beta, not in ker row; row(ker beta) read into
        # ker delta, not in ker gamma
        cases = [([e[1]], [[1, 0, 0]], [[0, 1, 0]], [e[0]], (False, True)),
                 ([e[0], e[1]], [[1, 0, 0]], [[0, 0, 0]], [e[0]], (False, True)),
                 ([], [[1, 0], [0, 1]], [[1, -1]], [e[0]], (True, False))]
        for images, row, beta, kernel, verdicts in cases:
            row = mat(f, row)
            gamma = with_kernel(Subspace.span_sparse(f, row.rows, kernel))
            assert self.snake_verdicts(f, Matrix.from_columns(f, row.cols, images), row, mat(f, [[0]]),
                                       Matrix.zero(f, gamma.rows, 1), Matrix.zero(f, 1, len(images)), mat(f, beta),
                                       gamma)[:2] == verdicts
        # cokernel half, on B = C = a line, the row the identity and beta
        # sending it to e0 of B', a 3-space, so coker beta reads e1 and e2;
        # gamma is zero into C', so delta is the class of e0's preimage.
        # A' is a plane, alpha zero from nothing (or e1's inclusion), f'
        # includes e0 and e1 (or e0 alone) and g' reads one coordinate
        beta, gamma, plane = mat(f, [[1], [0], [0]]), Matrix.zero(f, 1, 1), Matrix.zero(f, 2, 0)
        both, first = mat(f, [[1, 0], [0, 1], [0, 0]]), mat(f, [[1, 0], [0, 0], [0, 0]])
        reads = [mat(f, [[int(i == j) for j in range(3)]]) for i in range(3)]
        for alpha, lower_f, lower_g, verdicts in (
                # exact throughout: F reads e1, G kills it and reads e2
                (plane, both, reads[2], (True, True, True)),
                # G reads e1 after F, so G F is not zero, but the ranks add up
                (plane, both, reads[1], (True, False, True)),
                # G is zero, so G F is, but rank F + rank G = 1 < 2
                (plane, both, Matrix.zero(f, 1, 3), (True, False, False)),
                # G does not descend: it reads coker beta's relation e0
                (plane, both, reads[0], (True, False, False)),
                # F is zero, so F delta is, but rank delta + rank F = 1 < 2,
                # and im F = 0 misses ker G
                (plane, first, reads[1], (False, False, True)),
                # F does not descend: it carries coker alpha's relation e1 off e0
                (mat(f, [[0], [1]]), both, reads[2], (False, False, True))):
            assert self.snake_verdicts(f, Matrix.zero(f, 1, alpha.cols), mat(f, [[1]]), lower_f, lower_g, alpha,
                                       beta, gamma) == (True, True) + verdicts
            seen.update(zip(("coker alpha", "coker beta", "onto"), verdicts))
        assert seen == {(joint, ok) for joint in ("ker beta", "ker gamma", "coker alpha", "coker beta", "onto")
                        for ok in (True, False)}

    @staticmethod
    def snake_verdicts(f, upper_f, row, lower_f, lower_g, alpha, beta, gamma) -> tuple:
        """Check ``snake`` against the definitions and return its five
        exactness verdicts: at ker beta, ker gamma, coker alpha and coker
        beta, and onto coker gamma.  The references read ker alpha and
        ker gamma off the dense ``rref`` and span each cokernel's relations
        from its column's dense columns."""
        n, m, middle = row.cols, row.rows, beta.kernel()
        s = snake(upper_f, row, lower_f, lower_g, alpha, beta, gamma)
        kernel = Subspace.span(f, m, _dense_kernel(gamma))
        coker_alpha, coker_beta, coker_gamma = (QuotientSpace(Subspace.span(f, c.rows, map(c.col, range(c.cols))))
                                                for c in (alpha, beta, gamma))
        spanned = Subspace.span(f, n, [upper_f.apply(v) for v in _dense_kernel(alpha)])
        onward = Subspace.span_sparse(f, m, [linear(f, row.sparse_cols, r) for r in middle.sparse_rows])
        assert s.lands == middle.contains_subspace(spanned)
        assert s.exact_ker_beta == (spanned == middle.intersect(row.kernel()))
        assert s.into_ker_gamma == kernel.contains_subspace(onward)
        # each basis vector of ker gamma lifted through the row, sent along
        # beta, pulled back through f' and read in coker alpha
        lifts = [row.preimage(v) for v in kernel.basis.entries]
        reads = [None if x is None else lower_f.preimage(beta.apply(x)) for x in lifts]
        if any(x is None for x in reads):
            assert s.delta is None and not s.exact_ker_gamma
        else:
            assert s.delta == Matrix.from_columns(f, coker_alpha.dim, [sparse_vec(coker_alpha.project(x))
                                                                      for x in reads])
            expanded = _dense_combinations(f, m, kernel.basis.entries, _dense_kernel(s.delta))
            assert s.exact_ker_gamma == (onward.basis == _dense_basis(f, m, expanded))
        big_f, big_g = _descended(lower_f, coker_alpha, coker_beta), _descended(lower_g, coker_beta, coker_gamma)
        assert (s.coker_f, s.coker_g) == (big_f, big_g)
        assert s.exact_coker_alpha == (s.delta is not None and big_f is not None and
                                       s.delta.image() == big_f.kernel())
        assert s.exact_coker_beta == (big_f is not None and big_g is not None and big_f.image() == big_g.kernel())
        assert s.onto_coker_gamma == (big_g is not None and big_g.rank() == coker_gamma.dim)
        return s.exact_ker_beta, s.exact_ker_gamma, s.exact_coker_alpha, s.exact_coker_beta, s.onto_coker_gamma

    @given(st.data())
    def test_equal_subspaces_compare_and_hash_equal(self, f, data):
        m = data.draw(low_rank_matrices(f))
        n, a = m.cols, Subspace.span(f, m.cols, m.entries)
        scaled = [dense_scale(f, f.from_int(-2), r) for r in reversed(m.entries)]
        acc = RrefAccumulator(f, n)
        acc.add_rows(sparse_vec(r) for r in scaled)
        same = [Subspace.span(f, n, scaled), acc.subspace(), Subspace.span_sparse(f, n, a.sparse_rows),
                a.add(a), a.intersect(Subspace.full(f, n)), Subspace.full(f, n).intersect(a),
                Subspace(f, n, a.sparse_rows)]
        for s in same:
            assert s == a and hash(s) == hash(a)
        assert len({a, *same}) == 1
        if a.dim < n:
            assert a != Subspace.full(f, n)


@st.composite
def sparse_rows(draw, field, n, max_rows=6):
    """Random sparse rows in an n-space: few nonzeros each, values over the
    whole field (large residues over GF(p), fractions over Q)."""
    value = st.integers(1, field.p - 1) if field.p else \
        st.builds(field.div, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), value, max_size=min(n, 4)), max_size=max_rows))
    return [tuple(sorted(r.items())) for r in rows]


def _dense_residue(space: Subspace, v) -> dict:
    """The residue of the sparse vector v by the dense reference ``dense_reduce``."""
    return dict(sparse_vec(dense_reduce(space, dense_vec(space.field, space.ambient_dim, v))[1]))


# the small primes wrap round and need the normalising inverse
EVERY_STEP_FIELD = pytest.mark.parametrize("f", [QQ, GFP, F5, F3], ids=["Q", "GF(1000003)", "GF(5)", "GF(3)"])


@EVERY_STEP_FIELD
class TestOneReduction:
    """The accumulator and the subspace share one row form and one
    reduction: a sum or a permuted sum started from a subspace's reduced
    rows, a residue and a solve read off the factor all equal the same
    computation started afresh or on dense rows."""

    @given(st.data())
    def test_canonical_rows_are_stored_as_the_accumulator_stores_them(self, f, data):
        # a subspace stated by its canonical rows and the same subspace
        # built by span_sparse hold the rows the accumulator keeps
        n = data.draw(st.integers(1, 7))
        rows = data.draw(sparse_rows(f, n))
        acc = RrefAccumulator(f, n)
        acc.add_rows(rows)
        built = Subspace.span_sparse(f, n, rows)
        direct = Subspace(f, n, built.sparse_rows)
        assert direct == built and direct._stored == built._stored == acc._stored
        assert RrefAccumulator._holding(direct)._stored == acc._stored

    @given(st.data())
    def test_sum_from_reduced_rows(self, f, data):
        n = data.draw(st.integers(1, 7))
        a, b = data.draw(sparse_rows(f, n)), data.draw(sparse_rows(f, n))
        space = Subspace.span_sparse(f, n, a)
        total = space.add(Subspace.span_sparse(f, n, b))
        assert total == Subspace.span_sparse(f, n, a + b)
        assert total.basis == _dense_basis(f, n, [dense_vec(f, n, r) for r in a + b])
        # the sum leaves the rows it started from as they were
        assert all(space.residue(v) == _dense_residue(space, v) for v in b)

    @given(st.data())
    def test_permuted_sum_from_reduced_rows(self, f, data):
        n = data.draw(st.integers(1, 7))
        a = data.draw(sparse_rows(f, n))
        perm = data.draw(st.permutations(range(n)))
        moved = [tuple(sorted((perm[c], x) for c, x in r)) for r in a]
        space = Subspace.span_sparse(f, n, a)
        assert space.permuted(perm, keep=True) == Subspace.span_sparse(f, n, a + moved)
        assert space.permuted(perm) == Subspace.span_sparse(f, n, moved)
        assert all(space.residue(v) == _dense_residue(space, v) for v in moved)

    @given(st.data())
    def test_residue_is_the_dense_reduction(self, f, data):
        n = data.draw(st.integers(1, 7))
        space = Subspace.span_sparse(f, n, data.draw(sparse_rows(f, n)))
        for v in data.draw(sparse_rows(f, n, max_rows=4)) + list(space.sparse_rows):
            assert space.residue(v) == _dense_residue(space, v)

    @given(st.data())
    def test_preimage_where_the_image_has_equations(self, f, data):
        # the columns are combinations of fewer vectors than there are rows,
        # so the image is a proper subspace and some targets lie off it
        rows = data.draw(st.integers(2, 6))
        gens = data.draw(sparse_rows(f, rows, max_rows=rows - 1))
        coefficients = data.draw(sparse_rows(f, max(len(gens), 1), max_rows=6))
        m = Matrix.from_columns(f, rows, [sorted(linear(f, gens, c)) if gens else () for c in coefficients])
        assert m.rank() < m.rows
        targets = data.draw(sparse_rows(f, rows, max_rows=3)) + [((k, f.one()),) for k in range(rows)]
        if m.cols:  # and a vector of the image
            targets += [tuple(sorted(linear(f, m.sparse_cols, x))) for x in data.draw(sparse_rows(f, m.cols, 1))]
        for b in targets:
            dense = _dense_solution(m, dense_vec(f, rows, b))
            assert m.preimage_sparse(b) == (None if dense is None else sparse_vec(dense))


def rational_rows(n, max_rows=6):
    """Sparse rows of an n-space over Q as a caller may hand them over: ints,
    integral ``Fraction``s and proper fractions, of either sign, with some
    rows repeated and some repeated up to a negative scalar."""
    small = st.integers(-6, 6).filter(bool)
    value = st.one_of(small, small.map(Fraction), st.builds(Fraction, small, st.integers(2, 6)))
    row = st.dictionaries(st.integers(0, n - 1), value, min_size=1, max_size=min(n, 4)).map(
        lambda r: tuple(sorted(r.items())))

    @st.composite
    def rows(draw):
        out = draw(st.lists(row, max_size=max_rows))
        for r in draw(st.lists(st.sampled_from(out), max_size=3)) if out else []:
            out.append(r if draw(st.booleans()) else tuple((c, -2 * x) for c, x in r))
        return out

    return rows()


def assert_stored_rows(acc: RrefAccumulator) -> None:
    """Every stored row is (pivot entry, entries), zero at every other
    row's pivot: over Q a primitive integer vector with a positive pivot
    entry, over GF(p) a pivot entry of 1 and nonzero canonical entries."""
    f = acc.field
    for p, (lead, row) in acc._stored.items():
        assert type(lead) is int and lead > 0 and p not in row
        assert not set(row) & set(acc._stored)
        if f.p is None:
            assert all(type(x) is int and x for x in row.values())
            assert gcd(lead, *row.values()) == 1
        else:
            assert lead == 1 and all(x and f.is_canonical(x) for x in row.values())


def drawn_rows(f, n):
    """Sparse rows of an n-space: ``rational_rows`` over Q, ``sparse_rows``
    over GF(p)."""
    return rational_rows(n) if f.p is None else sparse_rows(f, n)


class TestIntegerStep:
    """Both fields store each row as (pivot entry, entries) and eliminate by
    one cross-multiplication: over Q the rows are primitive integer vectors
    and over GF(p) their pivot entry is 1.  What the accumulator hands out
    is the canonical RREF."""

    @EVERY_STEP_FIELD
    @given(st.data())
    def test_subspace_is_the_dense_rref(self, f, data):
        n = data.draw(st.integers(1, 7))
        rows = data.draw(drawn_rows(f, n))
        acc = RrefAccumulator(f, n)
        for k, r in enumerate(rows):
            before = _dense_basis(f, n, [dense_vec(f, n, v) for v in rows[:k]]).rows
            assert acc.add(r) == (_dense_basis(f, n, [dense_vec(f, n, v) for v in rows[:k + 1]]).rows > before)
            assert_stored_rows(acc)
        assert acc.subspace().basis == _dense_basis(f, n, [dense_vec(f, n, v) for v in rows])
        assert acc.rank == acc.subspace().dim
        assert canonical_scalars(f, acc.subspace().basis.entries)

    @EVERY_STEP_FIELD
    @given(st.data())
    def test_holding_a_subspace_then_adding(self, f, data):
        n = data.draw(st.integers(1, 7))
        a, b = data.draw(drawn_rows(f, n)), data.draw(drawn_rows(f, n))
        space = Subspace.span_sparse(f, n, a)
        acc = RrefAccumulator._holding(space)
        assert_stored_rows(acc)
        assert acc.subspace() == space
        for r in b:
            acc.add(r)
            assert_stored_rows(acc)
        assert acc.subspace().basis == _dense_basis(f, n, [dense_vec(f, n, v) for v in a + b])

    @EVERY_STEP_FIELD
    @given(st.data())
    def test_permuted_sum_is_the_dense_rref(self, f, data):
        n = data.draw(st.integers(1, 7))
        a = data.draw(drawn_rows(f, n))
        space = Subspace.span_sparse(f, n, a)
        perm = data.draw(st.permutations(range(n)))
        moved = [dense_vec(f, n, [(perm[c], x) for c, x in r]) for r in a]
        assert space.permuted(perm, keep=True).basis == _dense_basis(f, n, [dense_vec(f, n, v) for v in a] + moved)

    def test_rows_are_read_in_canonical_scalars(self):
        acc = RrefAccumulator(QQ, 3)
        acc.add(((0, Fraction(2, 1)), (1, 3)))
        acc.add(((0, -4), (2, Fraction(1, 2))))
        # (2, 3, 0) and 2 (-4, 0, 1/2) + 4 (2, 3, 0) = (0, 12, 1), which
        # (2, 3, 0) meets at column 1: 4 (2, 3, 0) - 3 (0, 12, 1) = (8, 0, -1)
        assert acc._stored == {0: (8, {2: -1}), 1: (12, {2: 1})}
        assert acc.rows == {0: {2: Fraction(-1, 8)}, 1: {2: Fraction(1, 12)}}
        assert acc.rows is acc.rows  # cached until the next add
        acc.add(((1, 1),))
        assert acc.rows == {0: {}, 1: {}, 2: {}} and acc._stored == {p: (1, {}) for p in range(3)}


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestBackSubstitution:
    """A new pivot is back-substituted only when a stored row may hold it."""

    @staticmethod
    def _visits(monkeypatch):
        visits, back = [], linalg._back

        def counted(rows, pivot, e, n, p):
            visits.append(pivot)
            back(rows, pivot, e, n, p)

        monkeypatch.setattr(linalg, "_back", counted)
        return visits

    def test_factoring_a_zero_map_visits_no_row(self, f, monkeypatch):
        visits = self._visits(monkeypatch)
        m = Matrix.zero(f, 3, 400)
        assert m.rank() == 0 and m.kernel() == Subspace.full(f, 400)
        assert visits == []

    def test_a_held_pivot_is_back_substituted(self, f, monkeypatch):
        # column 0 is (1, 1): its factor row holds column 1, the pivot the
        # second column (0, 1) brings
        visits = self._visits(monkeypatch)
        m = mat(f, [[1, 0], [1, 1]])
        assert m.image() == Subspace.full(f, 2) and m.kernel().dim == 0
        assert visits == [1]
        assert m.section() == mat(f, [[1, 0], [-1, 1]])
