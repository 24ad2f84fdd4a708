"""Homology of a Hom-Leibniz algebra with coefficients in a co-representation.

A co-representation holds its two operations as tables like an action, and
caches them with its twist columns in the one sparse form (``sparse_left``,
``sparse_right``, ``sparse_twist``); ``linalg.check_laws`` checks its five
identities, stated as data, on the basis tuples where a term can be
nonzero.

The degree-n chain space is M tensored with n copies of L, basis ordered
row-major over (m, x_1, ..., x_n).  The boundary has three summand
families: the head right-action term, the alternating left-action terms
with sign (-1)^i, and the bracket-insertion terms with sign (-1)^(j+1)
and the twisted coefficient in front.  The signs do not depend on n, so
seen from x_n the boundary splits exactly: d_n(m x_1 ... x_n) is
d_(n-1)(m x_1 ... x_(n-1)) tensored with t(x_n), plus (-1)^n (x_n . m)
t(x_1) ... t(x_(n-1)), plus (-1)^(n+1) t_M(m) tensored with the chains
that put [x_i, x_n] in place i < n.  ``ChainComplex`` builds each degree
once, from its cached degree below (degree 1 is the right action), and
the ``homology`` and ``check-all`` commands compute d^2 from the same
cached columns that give the ranks: its vanishing is checked, never
assumed, and the check would fail loudly under a sign slip in any family.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product as iter_product

from .errors import FieldMismatch, StructureError
from .algebras import HomLeibnizAlgebra
from .linalg import (
    Matrix,
    RrefAccumulator,
    Subspace,
    check_laws,
    contract,
    linear,
    outer,
    sparse_columns,
    vec_is_zero,
    vec_zero,
)
from .report import ValidationReport


@dataclass(frozen=True)
class CoRepresentation:
    """Coefficients for homology: a space with a twist and two operations of
    the algebra on it satisfying the five co-representation identities."""

    algebra: HomLeibnizAlgebra
    space_dim: int
    twist: Matrix
    left: tuple   # left[x][m] in coefficient coordinates
    right: tuple  # right[m][x] in coefficient coordinates

    def __post_init__(self):
        dl, dm = self.algebra.dim, self.space_dim
        if (self.twist.rows, self.twist.cols) != (dm, dm):
            raise StructureError("coefficient twist must be square of the space dimension")
        if len(self.left) != dl or any(len(r) != dm for r in self.left):
            raise StructureError("left operation tensor must be algebra x space")
        if len(self.right) != dm or any(len(r) != dl for r in self.right):
            raise StructureError("right operation tensor must be space x algebra")
        if any(len(v) != dm for table in (self.left, self.right) for row in table for v in row):
            raise StructureError("operation values must be coefficient vectors")
        if self.twist.field != self.algebra.field:
            raise FieldMismatch("coefficient twist over the wrong field")

    @property
    def field(self):
        return self.algebra.field

    # both tables and the twist columns in the one sparse form, built once
    sparse_left = cached_property(lambda self: self.algebra.sparse_of(self.left))
    sparse_right = cached_property(lambda self: self.algebra.sparse_of(self.right))
    sparse_twist = cached_property(lambda self: sparse_columns(self.twist))

    def act_left(self, x, m) -> tuple:
        return contract(self.field, self.sparse_left, x, m, self.space_dim)

    def act_right(self, m, x) -> tuple:
        return contract(self.field, self.sparse_right, m, x, self.space_dim)

    def apply_twist(self, m) -> tuple:
        return self.twist.apply(m)

    def validate(self) -> ValidationReport:
        L, f = self.algebra, self.field
        rep = ValidationReport(subject="hom-co-representation",
                               axiom_status={k: True for k in "abcde"})
        tl, tm, lc = L.sparse_twist, self.sparse_twist, L.sparse_c
        left, right = self.sparse_left, self.sparse_right
        lbl, lbm = L.labels, tuple(f"m{i+1}" for i in range(self.space_dim))
        dl, dm = L.dim, self.space_dim
        # indices (x, m), then (x, m, y)
        check_laws(f, rep, (dl, dm), [
            ((dl, dm), [
                # d) t_M(x.m) = t(x).t_M(m)
                ("d", ((lbl, 0), (lbm, 1)), [(tm, (left, 0, 1))], [(left, (tl, 0), (tm, 1))]),
                # e) t_M(m.x) = t_M(m).t(x)
                ("e", ((lbm, 1), (lbl, 0)), [(tm, (right, 1, 0))], [(right, (tm, 1), (tl, 0))])]),
            ((dl, dm, dl), [
                # a) [x,y].t_M(m) = t(x).(y.m) - t(y).(x.m)
                ("a", ((lbl, 0), (lbl, 2), (lbm, 1)),
                 [(left, (lc, 0, 2), (tm, 1)), (left, (tl, 2), (left, 0, 1))], [(left, (tl, 0), (left, 2, 1))]),
                # b) t_M(m).[x,y] = (y.m).t(x) - t(y).(m.x)
                ("b", ((lbm, 1), (lbl, 0), (lbl, 2)),
                 [(right, (tm, 1), (lc, 0, 2)), (left, (tl, 2), (right, 1, 0))], [(right, (left, 2, 1), (tl, 0))]),
                # c) (m.x).t(y) = - t(y).(m.x)
                ("c", ((lbm, 1), (lbl, 0), (lbl, 2)),
                 [(right, (right, 1, 0), (tl, 2)), (left, (tl, 2), (right, 1, 0))], [])])])
        return rep


def trivial_corep(L: HomLeibnizAlgebra, space_dim: int = 1, twist: Matrix | None = None) -> CoRepresentation:
    """Zero operations; the default twist is the identity (scalar coefficients)."""
    f = L.field
    z = vec_zero(f, space_dim)
    tw = twist if twist is not None else Matrix.identity(f, space_dim)
    return CoRepresentation(
        L, space_dim, tw,
        tuple(tuple(z for _ in range(space_dim)) for _ in range(L.dim)),
        tuple(tuple(z for _ in range(L.dim)) for _ in range(space_dim)))


def adjoint_corep(L: HomLeibnizAlgebra) -> CoRepresentation:
    """The algebra on itself: x.m = -[m, x] from the left, m.x = [m, x]."""
    f = L.field
    left = tuple(tuple(tuple(f.neg(v) for v in L.c[m][x]) for m in range(L.dim))
                 for x in range(L.dim))
    return CoRepresentation(L, L.dim, L.twist, left, L.c)


def chain_dim(L: HomLeibnizAlgebra, M: CoRepresentation, n: int) -> int:
    return M.space_dim * L.dim ** n


def boundary_column(L: HomLeibnizAlgebra, M: CoRepresentation, n: int,
                    m_idx: int, xs: tuple, lower: tuple) -> dict:
    """Sparse image of the basis chain m (x) x_1 (x) ... (x) x_n under the
    degree-n boundary, as {row index: coefficient}.  ``lower`` is the image
    of m (x) x_1 ... x_(n-1) under the degree n-1 boundary, as (row,
    coefficient) pairs; degree 1 ignores it."""
    if n == 1:
        return dict(M.sparse_right[m_idx][xs[0]])
    f = L.field
    zero = f.zero()
    dl = L.dim
    tw = L.sparse_twist
    out: dict[int, object] = {}

    def scatter(sign, head, slots):
        # head is sparse (a coefficient or chain vector), each slot a sparse
        # algebra vector; every combination of their nonzero coordinates
        # adds sign * product at row (head row, slot indices) row-major
        if not head:
            return
        scale = dl ** len(slots)
        for picks in iter_product(*slots):
            coeff, offset = sign, 0
            for idx, x in picks:
                coeff = f.mul(coeff, x)
                offset = offset * dl + idx
            for hm, hv in head:
                key = hm * scale + offset
                cur = f.add(out.get(key, zero), f.mul(hv, coeff))
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)

    *front, last = xs
    twisted = [tw[x] for x in front]
    # the terms that leave x_n alone: d_(n-1) of the front, x_n twisted
    scatter(f.one(), lower, [tw[last]])
    # x_n acting on the left, sign (-1)^n
    left_sign = f.one() if n % 2 == 0 else f.neg(f.one())
    scatter(left_sign, M.sparse_left[last][m_idx], twisted)
    # the brackets [x_i, x_n] in place i < n, sign (-1)^(n+1)
    for i, x in enumerate(front):
        slots = list(twisted)
        slots[i] = L.sparse_c[x][last]
        scatter(f.neg(left_sign), M.sparse_twist[m_idx], slots)
    return out


@dataclass(frozen=True)
class ChainComplex:
    """The chain complex of L with coefficients in M.  Each degree's
    boundary columns are built once, from the cached degree below, the
    first time the degree is asked for; ranks and the squared-boundary
    check both read the cached columns."""

    algebra: HomLeibnizAlgebra
    coeffs: CoRepresentation
    _columns: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def columns(self, n: int) -> tuple:
        """Sparse columns of the degree-n boundary, each a tuple of (row,
        coefficient) pairs; position i holds the image of chain-basis vector i
        (coefficient index outer, then x_1 ... x_n row-major)."""
        if n < 1:
            raise ValueError("the boundary is defined for degree at least 1")
        cols = self._columns.get(n)
        if cols is None:
            L, M = self.algebra, self.coeffs
            # column c extends column c // dim L of the degree below; degree
            # 0 has no boundary, one empty column per coefficient
            lower = self.columns(n - 1) if n > 1 else ((),) * M.space_dim
            basis = iter_product(range(M.space_dim), iter_product(*[range(L.dim)] * n))
            cols = tuple(tuple(boundary_column(L, M, n, m_idx, xs, lower[c // L.dim]).items())
                         for c, (m_idx, xs) in enumerate(basis))
            self._columns[n] = cols  # only a finished tuple is ever stored
        return cols

    def rank(self, n: int) -> int:
        """Rank of the degree-n boundary by sparse elimination of its
        columns; 0 in degree 0, where there is no boundary."""
        if n == 0:
            return 0
        acc = RrefAccumulator(self.algebra.field, chain_dim(self.algebra, self.coeffs, n - 1))
        for col in self.columns(n):
            acc.add(col)
        return acc.rank

    def squares_to_zero(self, n: int) -> bool:
        """Whether the degree-n boundary followed by the degree n-1 one
        vanishes: the lower columns are the sparse columns ``linear`` applies
        to each upper one."""
        lower = self.columns(n - 1)
        return not any(linear(self.algebra.field, lower, col) for col in self.columns(n))

    def homology_dim(self, n: int) -> int:
        """dim H_n = dim C_n - rank d_n - rank d_(n+1)."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        return chain_dim(self.algebra, self.coeffs, n) - self.rank(n) - self.rank(n + 1)


def coinvariants_dim(M: CoRepresentation) -> int:
    """Closed form in degree zero: the space modulo all right-action values."""
    span = Subspace.span(M.field, M.space_dim,
                         [M.right[m][x] for m in range(M.space_dim) for x in range(M.algebra.dim)])
    return M.space_dim - span.dim


def degree_one_trivial_closed_form(L: HomLeibnizAlgebra, M: CoRepresentation) -> int:
    """Closed form in degree one for trivial operations: the chain space
    modulo (twisted coefficients) tensor (brackets)."""
    from .algebras import derived_subspace

    f = L.field
    if any(not vec_is_zero(f, v) for table in (M.left, M.right) for row in table for v in row):
        raise StructureError("closed form requires trivial operations")
    der = derived_subspace(L)
    tm_image = M.twist.image()
    size = M.space_dim * L.dim
    rel = Subspace.span(f, size, [outer(f, u, b, size) for u in tm_image.basis.entries
                                  for b in der.basis.entries])
    return size - rel.dim
