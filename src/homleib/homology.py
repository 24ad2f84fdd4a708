"""Homology of a Hom-Leibniz algebra with coefficients in a co-representation.

A co-representation holds its two operations only as sparse tables, like
an action (``sparse_left[x][m]``, ``sparse_right[m][x]``, each value the
sorted (index, value) pairs of its nonzero coordinates), with its twist's
``sparse_cols``; the adjoint one shares its algebra's ``sparse_c``.
``linalg.check_laws`` checks its five identities, stated as data, on the
basis tuples where a term can be nonzero.

The degree-n chain space is M tensored with n copies of L, basis ordered
row-major over (m, x_1, ..., x_n).  The boundary has three summand
families: the head right-action term, the alternating left-action terms
with sign (-1)^i, and the bracket-insertion terms with sign (-1)^(j+1)
and the twisted coefficient in front.  The signs do not depend on n, so
seen from x = x_n the boundary splits exactly.  Write f for the front
x_1 ... x_(n-1), T(f) for t(x_1) ... t(x_(n-1)) and B^x(f) for the sum
over i < n of the chains that put [x_i, x] in place i of T(f); then

    d_n(m f x) = d_(n-1)(m f) t(x) + (-1)^n (x . m) T(f)
                 + (-1)^(n+1) t_M(m) B^x(f),

three outer products, and both T and B follow one step in the last
front factor: T(f y) = T(f) t(y) and B^x(f y) = B^x(f) t(y) + T(f) [y, x],
from T() = 1 and B^x() = 0.  ``ChainComplex`` builds each degree once,
from its cached degree below (degree 1 is the right action): degree n
forms the T and B of each front of n - 1 factors once, streamed level by
level from T() and B(), and uses them for every coefficient index m.  Over
Q it reads its five tables as the structures clear them (the twists'
``cleared_cols``, the algebra's ``cleared_c`` and the co-representation's
``cleared_left`` and ``cleared_right``), each D times its own, and weighs
the three families of each degree so that its cached columns are one
integer multiple of d_n: they are integral and the elimination meets no
``Fraction``.  The ``homology`` and ``check-all`` commands compute d^2 in
the elimination that gives the rank: d_(n-1) is applied to each row of the
image basis of d_n the elimination holds, and it vanishes on every column
of d_n exactly when it vanishes on those rows.  Its vanishing is checked, never assumed, and
the check would fail loudly under a sign slip in any family.
"""

from __future__ import annotations

from math import lcm

from .errors import FieldMismatch, StructureError
from .algebras import HomLeibnizAlgebra
from .linalg import (
    Matrix,
    RrefAccumulator,
    Subspace,
    check_laws,
    contract,
    is_sparse_vec,
    linear,
    sparse_outer,
    unwrapped,
)
from .report import ValidationReport
from .values import Frozen, cached_property


class CoRepresentation(Frozen):
    """Coefficients for homology: a space with a twist and two operations of
    the algebra on it satisfying the five co-representation identities."""

    algebra: HomLeibnizAlgebra
    space_dim: int
    twist: Matrix
    sparse_left: tuple   # sparse_left[x][m] as sparse coefficient coordinates
    sparse_right: tuple  # sparse_right[m][x] as sparse coefficient coordinates
    __slots__ = ("algebra", "space_dim", "twist", "sparse_left", "sparse_right", "__dict__")

    def __init__(self, algebra: HomLeibnizAlgebra, space_dim: int, twist: Matrix, sparse_left: tuple,
                 sparse_right: tuple):
        dl, dm, left, right = algebra.dim, space_dim, sparse_left, sparse_right
        if (twist.rows, twist.cols) != (dm, dm):
            raise StructureError("coefficient twist must be square of the space dimension")
        if len(left) != dl or any(len(r) != dm for r in left):
            raise StructureError("left operation tensor must be algebra x space")
        if len(right) != dm or any(len(r) != dl for r in right):
            raise StructureError("right operation tensor must be space x algebra")
        if not all(is_sparse_vec(algebra.field, v, dm) for table in (left, right) for row in table for v in row):
            raise StructureError("operation values must be coefficient vectors")
        if twist.field != algebra.field:
            raise FieldMismatch("coefficient twist over the wrong field")
        Frozen.__init__(self, algebra, space_dim, twist, left, right)

    @property
    def field(self):
        return self.algebra.field

    def act_left(self, x, m) -> tuple:
        return contract(self.field, self.sparse_left, x, m, self.space_dim)

    def act_right(self, m, x) -> tuple:
        return contract(self.field, self.sparse_right, m, x, self.space_dim)

    def apply_twist(self, m) -> tuple:
        return self.twist.apply(m)

    # the two operations cleared of denominators, each built once when first read
    cleared_left = cached_property(lambda self: self.algebra.cleared_table(self.sparse_left))
    cleared_right = cached_property(lambda self: self.algebra.cleared_table(self.sparse_right))

    def validate(self) -> ValidationReport:
        L, f = self.algebra, self.field
        rep = ValidationReport(subject="hom-co-representation",
                               axiom_status={k: True for k in "abcde"})
        tl, tm, lc = L.twist.cleared_cols, self.twist.cleared_cols, L.cleared_c
        left, right = self.cleared_left, self.cleared_right
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
    tw = twist if twist is not None else Matrix.identity(L.field, space_dim)
    return CoRepresentation(L, space_dim, tw, (((),) * space_dim,) * L.dim, (((),) * L.dim,) * space_dim)


def adjoint_corep(L: HomLeibnizAlgebra) -> CoRepresentation:
    """The algebra on itself: x.m = -[m, x] from the left, m.x = [m, x],
    on its own sparse table."""
    f, c = L.field, L.sparse_c
    left = tuple(tuple(tuple((k, f.neg(v)) for k, v in c[m][x]) for m in range(L.dim)) for x in range(L.dim))
    return CoRepresentation(L, L.dim, L.twist, left, c)


def chain_dim(L: HomLeibnizAlgebra, M: CoRepresentation, n: int) -> int:
    return M.space_dim * L.dim ** n


def _outer_sum(field, terms) -> tuple:
    """The sum of w (u (x) v) over the terms (u, v, stride, w), u_i v_j
    sitting at i * stride + j and w a nonzero integer weight, as sparse
    pairs.  Products and sums are Python's own; the field's canonical form
    is taken once per coordinate."""
    acc = {}
    for u, v, stride, w in terms:
        for i, a in u:
            i, a = i * stride, a if w == 1 else a * w
            for j, b in v:
                acc[i + j] = acc.get(i + j, 0) + a * b
    canon = field.canon
    return tuple([(k, x) for k, s in acc.items() if (x := canon(s))])


def _fronts(field, tw, c, k: int):
    """(T, (B^x for each x)) of every front of k factors, in row-major
    order, as a chain of k generators, from the twist's sparse columns
    ``tw`` and the sparse bracket ``c``: each front is formed by one step
    from one of k - 1 factors, and no level is held whole."""
    fronts = ((((0, field.one()),), ((),) * len(tw)),)  # T() = 1, each B^x() = 0
    for _ in range(k):
        fronts = _longer_fronts(field, tw, c, fronts)
    return fronts


def _longer_fronts(field, tw, c, fronts):
    """Yield (T, (B^x for each x)) of each front one factor longer than
    those of ``fronts``, front (f, y) at f * dim L + y:
    T(f, y) = T(f) (x) t(y) and B^x(f, y) = B^x(f) (x) t(y) + T(f) (x) [y, x].
    Each front is formed in one pass over plain dicts and lists, with the
    coordinates in the order ``_outer_sum`` gives them.  One outer product
    puts its terms at distinct coordinates, each the product of two nonzero
    scalars, so only a B^x with [y, x] nonzero sums and drops zeros."""
    dl, canon = len(tw), field.canon
    for t, bs in fronts:
        for ty, cy in zip(tw, c):
            longer = []
            for b, cyx in zip(bs, cy):
                if cyx:
                    acc = {i * dl + j: a * v for i, a in b for j, v in ty}
                    for i, a in t:
                        i *= dl
                        for j, v in cyx:
                            acc[i + j] = acc.get(i + j, 0) + a * v
                    longer.append(tuple([(k, x) for k, s in acc.items() if (x := canon(s))]))
                elif b:
                    longer.append(tuple([(i * dl + j, canon(a * v)) for i, a in b for j, v in ty]))
                else:
                    longer.append(())
            yield tuple([(i * dl + j, canon(a * v)) for i, a in t for j, v in ty]), tuple(longer)


class ChainComplex(Frozen):
    """The chain complex of L with coefficients in M.  Over Q it reads the
    five tables (t_L, the bracket, the left and right operations, t_M) as
    the structures clear them, each D times its own (D = 1 over GF(p) and
    on integral data), so its columns are built on integers.  The fronts'
    T of n - 1 factors is a^(n-1) T and B is a^(n-2) b B, a and b the D's of
    t_L and the bracket, so each family of a degree-n column carries one
    scale; the three are weighed to their lcm, and the columns of degree n
    are exactly the integer columns of S_n d_n (``_weights``).  Ranks and the
    squared-boundary check read these integral columns, a positive
    multiple of the boundary not changing either, and ``columns`` divides
    them back.  Each degree's integral columns and rank are built once, the
    columns from the cached degree below and the fronts' T and B.  The
    rank's elimination skips the empty columns, and from degree 2 the d^2
    check applies the lower columns to the image basis it holds, so one
    elimination per degree gives both."""

    algebra: HomLeibnizAlgebra
    coeffs: CoRepresentation
    _columns: dict
    _ranks: dict
    _squares: dict
    __slots__ = ("algebra", "coeffs", "_columns", "_ranks", "_squares", "__dict__")

    def __init__(self, algebra: HomLeibnizAlgebra, coeffs: CoRepresentation):
        Frozen.__init__(self, algebra, coeffs, {}, {}, {})

    @cached_property
    def _tables(self) -> tuple:
        """(t_L, bracket, left, right, t_M), each as (values, D), cleared by its structure."""
        L, M = self.algebra, self.coeffs
        return tuple(map(unwrapped, (L.twist.cleared_cols, L.cleared_c, M.cleared_left, M.cleared_right,
                                     M.twist.cleared_cols)))

    def _weights(self, n: int) -> tuple:
        """(S_n, (w_lower, w_left, w_twist)): the scale of the degree-n
        columns, the right action's D in degree 1, and from degree 2 the
        lcm of its three families' scales S_(n-1) a, l a^(n-1) and
        m b a^(n-2), with each family's weight S_n over its scale, the sign
        included."""
        (_, a), (_, b), (_, l), (_, r), (_, m) = self._tables
        if n == 1:
            return r, ()
        below, sign = self._weights(n - 1)[0], 1 if n % 2 == 0 else -1
        scales = below * a, l * a ** (n - 1), m * b * a ** (n - 2)
        s = lcm(*scales)
        return s, (s // scales[0], sign * s // scales[1], -sign * s // scales[2])

    def columns(self, n: int) -> tuple:
        """Sparse columns of the degree-n boundary, each a tuple of (row,
        coefficient) pairs; position i holds the image of chain-basis vector i
        (coefficient index outer, then x_1 ... x_n row-major).  They are the
        integral columns divided by S_n, the same tuple when S_n = 1."""
        cols, scale = self._integral(n), self._weights(n)[0]
        if scale == 1:
            return cols
        div = self.algebra.field.div
        return tuple(tuple((k, div(x, scale)) for k, x in col) for col in cols)

    def _integral(self, n: int) -> tuple:
        """The sparse columns of S_n d_n, built once from the cleared tables."""
        if n < 1:
            raise ValueError("the boundary is defined for degree at least 1")
        cols = self._columns.get(n)
        if cols is None:
            (tw, _), (c, _), (left, _), (right, _), (tm, _) = self._tables
            if n == 1:  # the right action
                cols = tuple(v for row in right for v in row)
            else:
                # column (m, f, x) is three outer products (see the module
                # docstring); the T and B of each front f of n - 1 factors
                # are formed once and serve every m
                lower, field, dl, dm = self._integral(n - 1), self.algebra.field, len(tw), len(tm)
                size, (w_lower, w_left, w_twist) = dl ** (n - 1), self._weights(n)[1]
                cols = [()] * (dm * size * dl)
                for f, (t, bs) in enumerate(_fronts(field, tw, c, n - 1)):
                    for x, b in enumerate(bs):
                        for m in range(dm):
                            i = m * size + f
                            if lower[i] or left[x][m] or b:  # else the column is empty
                                cols[i * dl + x] = _outer_sum(field, ((lower[i], tw[x], dl, w_lower),
                                                                      (left[x][m], t, size, w_left),
                                                                      (tm[m], b, size, w_twist)))
                cols = tuple(cols)
            self._columns[n] = cols  # only a finished tuple is ever stored
        return cols

    def rank(self, n: int) -> int:
        """Rank of the degree-n boundary by sparse elimination of its
        integral columns, cached; 0 in degree 0, where there is no
        boundary.  From degree 2 the same elimination decides d^2 = 0: the
        held rows are positive multiples of the RREF basis of the image of
        d_n, so d_(n-1) vanishes on every column exactly when it vanishes
        on every row.  The lower integral columns are the sparse columns
        ``linear`` applies to each row; the verdict is cached, the rows are
        not."""
        if n == 0:
            return 0
        if n not in self._ranks:
            field = self.algebra.field
            acc = RrefAccumulator(field, chain_dim(self.algebra, self.coeffs, n - 1))
            for col in self._integral(n):
                if col:
                    acc.add(col)
            if n >= 2:
                lower = self._integral(n - 1)
                self._squares[n] = not any(linear(field, lower, row) for row in acc.stored_rows())
            self._ranks[n] = acc.rank
        return self._ranks[n]

    def squares_to_zero(self, n: int) -> bool:
        """Whether the degree-n boundary followed by the degree n-1 one
        vanishes, as ``rank(n)`` found it on the image basis."""
        if n < 2:
            raise ValueError("d^2 is defined for degree at least 2")
        self.rank(n)
        return self._squares[n]

    def homology_dim(self, n: int) -> int:
        """dim H_n = dim C_n - rank d_n - rank d_(n+1)."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        return chain_dim(self.algebra, self.coeffs, n) - self.rank(n) - self.rank(n + 1)


def coinvariants_dim(M: CoRepresentation) -> int:
    """Closed form in degree zero: the space modulo all right-action values."""
    span = Subspace.span_sparse(M.field, M.space_dim, [v for row in M.sparse_right for v in row])
    return M.space_dim - span.dim


def degree_one_trivial_closed_form(L: HomLeibnizAlgebra, M: CoRepresentation) -> int:
    """Closed form in degree one for trivial operations: the chain space
    modulo (twisted coefficients) tensor (brackets)."""
    from .algebras import derived_subspace

    f = L.field
    if any(v for table in (M.sparse_left, M.sparse_right) for row in table for v in row):
        raise StructureError("closed form requires trivial operations")
    der = derived_subspace(L)
    rel = Subspace.span_sparse(f, M.space_dim * L.dim, [sparse_outer(f, u, b, L.dim)
                                                        for u in M.twist.image().sparse_rows for b in der.sparse_rows])
    return rel.ambient_dim - rel.dim
