"""Hom-Leibniz algebras given by structure constants and a twist map.

An algebra is a coordinate space with a bilinear bracket and a linear
twist whose matrix columns are the images of the basis, both held only in
the sparse form of ``linalg`` (``sparse_c``, ``twist.sparse_cols``) and built
by ``from_sparse``; the dense table (the constructor, and the view ``c``) is
only for the edges.  Brackets, validation, tensor relations and homology
boundaries read the sparse table.
Validation runs ``linalg.check_laws`` on the Hom-Leibniz identity

    [t(x), [y, z]] = [[x, y], t(z)] - [[x, z], t(y)]

and multiplicativity t[x, y] = [t(x), t(y)] on basis tuples, which suffices
by multilinearity.  Each law is data, its terms named by table and index
position, and the checker evaluates it only where a term can be nonzero: a
bracket with sparse support (an abelian or Heisenberg algebra, most
presented tensor products) skips nearly all of its dim^3 triples, with the
report of the full sweep.  Homomorphisms are validated the same way, once
per object.  All values are immutable and all operations pure.
"""

from __future__ import annotations

from itertools import compress

from .errors import (
    BracketNotWellDefined,
    DimensionError,
    FieldMismatch,
    InternalInconsistency,
    NotAlphaStable,
    NotAnIdeal,
    NotEndomorphism,
    ParentMismatch,
    StructureError,
)
from .fields import Field
from .linalg import (
    Matrix,
    QuotientSpace,
    RrefAccumulator,
    Subspace,
    canonical_scalars,
    check_laws,
    cleared,
    contract,
    dense_vec,
    induced_map,
    is_sparse_vec,
    law_rows,
    linear,
    sparse_add,
    sparse_outer,
    sparse_table,
    unit_vec,
)
from .report import ValidationReport
from .values import Frozen, Value, cached_property


def default_labels(dim: int, prefix: str = "e") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


def _checked(field: Field, dim: int, table, twist: Matrix, labels, name: str, value: str, dense: bool) -> tuple:
    """The sparse structure table and the labels of an algebra, checked with
    its twist: each value a coordinate vector with ``dense``, else sorted
    sparse pairs, each coordinate a canonical scalar; ``name`` and ``value``
    name the table and its values in the messages."""
    labels = tuple(labels)
    if len(labels) != dim:
        raise StructureError("label count does not match dimension")
    table = tuple(map(tuple, table))
    if len(table) != dim or any(len(row) != dim for row in table):
        raise StructureError(f"{name} table must be dim x dim")
    if dense and any(len(v) != dim for row in table for v in row):
        raise StructureError(f"{value} values must be coordinate vectors")
    if not (canonical_scalars(field, (v for row in table for v in row)) if dense else
            all(v == () or is_sparse_vec(field, v, dim) for row in table for v in row)):
        raise StructureError(f"{value} coordinates must be canonical scalars of the field")
    if (twist.rows, twist.cols) != (dim, dim):
        raise StructureError("twist matrix must be dim x dim")
    if twist.field != field:
        raise FieldMismatch("twist matrix over the wrong field")
    return sparse_table(table) if dense else table, labels


def _entry_table(field: Field, dim: int, entries: dict, value: str) -> list:
    """The sparse table with the values {(i, j): {k: coeff}}, int coefficients
    read in the field; an index outside range(dim) raises ``DimensionError``.
    A zero scalar is left out, and a coefficient that is no scalar, a bool
    included, is kept for ``_checked`` to refuse."""
    table = [[()] * dim for _ in range(dim)]
    for (i, j), val in entries.items():
        if not (0 <= i < dim and 0 <= j < dim and all(0 <= k < dim for k in val)):
            raise DimensionError(f"{value} indices must lie in range({dim})")
        table[i][j] = tuple(sorted((k, x) for k, c in val.items()
                                   if (x := field.from_int(c) if type(c) is int else c) or not field.is_scalar(x)))
    return table


class HomLeibnizAlgebra(Value):
    """A Hom-Leibniz algebra: its field, dimension, sparse bracket table, twist and basis labels."""

    field: Field
    dim: int
    sparse_c: tuple  # sparse_c[i][j] = [e_i, e_j] as the sorted (index, value) pairs of its nonzero coordinates
    twist: Matrix
    labels: tuple
    __slots__ = ("field", "dim", "sparse_c", "twist", "labels", "__dict__")

    def __init__(self, field: Field, dim: int, c, twist: Matrix, labels):
        """The algebra with the dense table ``c``, c[i][j] the coordinates
        of [e_i, e_j]: the dense edge (tests, benchmarks)."""
        table, labels = _checked(field, dim, c, twist, labels, "structure", "bracket", dense=True)
        Frozen.__init__(self, field, dim, table, twist, labels)

    @staticmethod
    def from_brackets(field: Field, dim: int, brackets: dict, twist=None, labels=None) -> "HomLeibnizAlgebra":
        """Build from sparse bracket data {(i, j): {k: coeff}}."""
        tw = twist if twist is not None else Matrix.identity(field, dim)
        return HomLeibnizAlgebra.from_sparse(field, dim, _entry_table(field, dim, brackets, "bracket"), tw,
                                             labels or default_labels(dim))

    @staticmethod
    def abelian(field: Field, dim: int, twist=None, labels=None) -> "HomLeibnizAlgebra":
        return HomLeibnizAlgebra.from_brackets(field, dim, {}, twist, labels)

    @staticmethod
    def from_sparse(field: Field, dim: int, table, twist: Matrix, labels) -> "HomLeibnizAlgebra":
        """The algebra whose ``sparse_c`` is ``table``, checked and stored as
        given: the one constructor of the library."""
        table, labels = _checked(field, dim, table, twist, labels, "structure", "bracket", dense=False)
        alg = object.__new__(HomLeibnizAlgebra)
        Frozen.__init__(alg, field, dim, table, twist, labels)
        return alg

    # the dense table, built once when read: the dense edge
    c = cached_property(lambda self: tuple(tuple(dense_vec(self.field, self.dim, v) for v in row)
                                           for row in self.sparse_c))

    # the bracket table cleared of denominators, built once when a law reads it
    cleared_c = cached_property(lambda self: cleared(self.field, self.sparse_c, table=True))

    def cleared_table(self, table):
        """A table of values in this algebra cleared (``linalg.cleared``):
        ``cleared_c`` itself when it is the bracket table, so an adjoint
        action or co-representation clears its table once."""
        return self.cleared_c if table is self.sparse_c else cleared(self.field, table, table=True)

    def bracket(self, x, y) -> tuple:
        return contract(self.field, self.sparse_c, x, y, self.dim)

    def bracket_map(self) -> Matrix:
        """The bracket as a linear map on the row-major tensor square:
        e_i (x) e_j goes to c[i][j]."""
        return Matrix.from_columns(self.field, self.dim, [v for row in self.sparse_c for v in row])

    def apply_twist(self, x) -> tuple:
        return self.twist.apply(x)

    def unit(self, i) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def is_abelian(self) -> bool:
        return not any(map(any, self.sparse_c))

    def is_skew(self) -> bool:
        """Bracket skew-symmetry: [x, x] = 0, hence a Hom-Lie algebra.  Only
        the nonempty values are visited: c[i][j] = -c[j][i] holds at a pair
        where both are empty, and is symmetric in i and j."""
        f, c, basis = self.field, self.sparse_c, range(self.dim)
        for i in compress(basis, map(any, c)):
            for j in compress(basis, c[i]):
                if i == j or {k: f.neg(x) for k, x in c[i][j]} != dict(c[j][i]):
                    return False
        return True

    def validate(self) -> ValidationReport:
        rep = ValidationReport(subject="hom-leibniz algebra")
        f, c, tw, lb, n = self.field, self.cleared_c, self.twist.cleared_cols, self.labels, self.dim
        check_laws(f, rep, (), [
            # t[x, y] = [t(x), t(y)]
            ((n, n), [("multiplicativity", ((lb, 0), (lb, 1)), [(tw, (c, 0, 1))], [(c, (tw, 0), (tw, 1))],
                       "twist[{0},{1}] != [twist {0}, twist {1}]")]),
            # [t(x), [y, z]] = [[x, y], t(z)] - [[x, z], t(y)]
            ((n, n, n), [("hom-leibniz identity", ((lb, 0), (lb, 1), (lb, 2)),
                          [(c, (tw, 0), (c, 1, 2)), (c, (c, 0, 2), (tw, 1))], [(c, (c, 0, 1), (tw, 2))])])])
        rep.flags["hom_lie"] = self.is_skew()
        rep.flags["abelian"] = self.is_abelian()
        return rep


class AlgebraHom(Frozen):
    """A linear map between two algebras over one field, as its matrix."""

    source: HomLeibnizAlgebra
    target: HomLeibnizAlgebra
    map: Matrix
    __slots__ = ("source", "target", "map", "__dict__")

    def __init__(self, source: HomLeibnizAlgebra, target: HomLeibnizAlgebra, map: Matrix):
        if (map.rows, map.cols) != (target.dim, source.dim):
            raise DimensionError("homomorphism matrix does not match the algebras")
        if target.field != source.field:
            raise FieldMismatch("target algebra over the wrong field")
        if map.field != source.field:
            raise FieldMismatch("homomorphism matrix over the wrong field")
        Frozen.__init__(self, source, target, map)

    def apply(self, v) -> tuple:
        return self.map.apply(v)

    def validate(self) -> ValidationReport:
        """Bracket preservation and twist compatibility on basis tuples,
        checked once per homomorphism; the report is shared, so callers only
        read it."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        rep = ValidationReport(subject="algebra homomorphism")
        src, tgt = self.source, self.target
        f, lb, sc = src.field, src.labels, src.cleared_c
        cols = self.map.cleared_cols
        n = src.dim
        check_laws(f, rep, (), [
            ((n, n), [("bracket preservation", ((lb, 0), (lb, 1)),
                       [(cols, (sc, 0, 1))], [(tgt.cleared_c, (cols, 0), (cols, 1))])]),
            ((n,), [("twist compatibility", ((lb, 0),),
                     [(cols, (src.twist.cleared_cols, 0))], [(tgt.twist.cleared_cols, (cols, 0))])])])
        return rep

    def is_homomorphism(self) -> bool:
        return self.validate().valid

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        return AlgebraHom(inner.source, self.target, self.map.compose(inner.map))


class IdealHandle(Frozen):
    """A subspace of an algebra over its field, a candidate ideal that ``ideal_witness`` tests."""

    parent: HomLeibnizAlgebra
    space: Subspace
    __slots__ = ("parent", "space", "__dict__")

    def __init__(self, parent: HomLeibnizAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise DimensionError("subspace does not live in the parent algebra")
        if space.field != parent.field:
            raise FieldMismatch("subspace over the wrong field")
        Frozen.__init__(self, parent, space)

    @property
    def dim(self) -> int:
        return self.space.dim

    def ideal_witness(self):
        """None when this is a twist-stable two-sided ideal, else a witness."""
        L, S = self.parent, self.space
        f, c, n = L.field, L.sparse_c, L.dim
        sides = list(zip(zip(*c), c))  # [h, e_j] and [e_j, h]: column j and row j of the table at h
        for h in S.sparse_rows:
            for j, (col, row) in enumerate(sides):
                for tag, v in (("left", linear(f, col, h)), ("right", linear(f, row, h))):
                    if not S.contains_sparse(v):
                        return (tag, dense_vec(f, n, h), L.labels[j], dense_vec(f, n, v))
        for h in S.sparse_rows:
            w = linear(f, L.twist.sparse_cols, h)
            if not S.contains_sparse(w):
                return ("twist", dense_vec(f, n, h), dense_vec(f, n, w))
        return None

    # the witness, found once per handle: a certificate that checks the
    # ideal and then passes the handle on does not check it again
    _witness = cached_property(lambda self: self.ideal_witness())

    def require_ideal(self):
        w = self._witness
        if w is None:
            return self
        if w[0] == "twist":
            raise NotAlphaStable("subspace is not stable under the twist", witness=w)
        raise NotAnIdeal("bracket escapes the subspace", witness=w)


def commutator(h: IdealHandle, k: IdealHandle) -> Subspace:
    """Span of all brackets [h, k] and [k, h] over bases of the two
    subspaces, as ``linalg.law_rows`` data; on one subspace, each ordered
    pair of basis vectors once."""
    if h.parent != k.parent:
        raise ParentMismatch("commutator of ideals of different algebras")
    L = h.parent
    hs, ks, c = h.space.sparse_rows, k.space.sparse_rows, L.cleared_c
    laws = [("[h, k]", (), [(c, (hs, 0), (ks, 1))], [])]
    if h.space != k.space:
        laws.append(("[k, h]", (), [(c, (ks, 1), (hs, 0))], []))
    return Subspace.span_sparse(L.field, L.dim, law_rows(L.field, [((h.dim, k.dim), laws)]))


def derived_subspace(L: HomLeibnizAlgebra) -> Subspace:
    """The span of the brackets of basis vectors, read off ``sparse_c``."""
    return Subspace.span_sparse(L.field, L.dim, [v for row in L.sparse_c for v in row])


def is_perfect(L: HomLeibnizAlgebra) -> bool:
    return derived_subspace(L).dim == L.dim


def center(L: HomLeibnizAlgebra) -> Subspace:
    """Solutions of [x, e_j] = 0 = [e_j, x] for every basis vector e_j: the
    kernel of the map whose column i stacks [e_i, e_j] and then [e_j, e_i]
    over all j."""
    c, n = L.sparse_c, L.dim
    return Matrix.from_columns(L.field, 2 * n * n, [
        [(j * n + k, x) for j in range(n) for k, x in c[i][j]] +
        [(n * n + j * n + k, x) for j in range(n) for k, x in c[j][i]] for i in range(n)]).kernel()


def quotient_algebra(L: HomLeibnizAlgebra, ideal: IdealHandle):
    """The quotient algebra with its induced bracket and twist, plus the projection."""
    if ideal.parent != L:
        raise ParentMismatch("ideal of a different algebra")
    ideal.require_ideal()
    q = QuotientSpace(ideal.space)
    gens = q.coset_basis
    table = tuple(tuple(q.project_sparse(L.sparse_c[a][b]) for b in gens) for a in gens)
    twist = induced_map(L.twist, q, q)
    quot = HomLeibnizAlgebra.from_sparse(L.field, q.dim, table, twist, [L.labels[c] for c in gens])
    proj = AlgebraHom(L, quot, q.projection_map())
    return quot, proj


def certified_quotient(pres: QuotientSpace, left: Matrix, right: Matrix,
                       twist_amb, labels) -> HomLeibnizAlgebra:
    """The algebra on ``pres`` whose bracket factors as the pure tensor
    [x, y] = left(x) (x) right(y) in the row-major ambient space, with the
    twist ``induced_map`` certifies from ``twist_amb`` (a ``Matrix`` or its
    sparse columns), and the quotient generators named by ``labels``.

    A relation row that ``left`` and ``right`` both kill brackets to zero
    with every generator; any other row r must bracket into the relations
    with every generator on both sides (``BracketNotWellDefined``, witness
    (r,)).  Rows, columns and brackets are sparse, and the bracket table is
    the algebra's sparse table.  The projected algebra is then validated.
    """
    f = pres.field
    relations = pres.relations
    twist = induced_map(twist_amb, pres, pres)
    lc, rc, stride = left.sparse_cols, right.sparse_cols, right.rows
    for row in relations.sparse_rows:
        left_r, right_r = linear(f, lc, row), linear(f, rc, row)
        if not (left_r or right_r):
            continue
        for k in range(pres.ambient_dim):
            if not relations.contains_sparse(sparse_outer(f, left_r, rc[k], stride)) or \
               not relations.contains_sparse(sparse_outer(f, lc[k], right_r, stride)):
                raise BracketNotWellDefined("bracket does not preserve the relations",
                                            witness=(dense_vec(f, pres.ambient_dim, row),))
    gens = pres.coset_basis
    table = tuple(tuple(pres.project_sparse(sparse_outer(f, lc[a], rc[b], stride)) if lc[a] and rc[b] else ()
                        for b in gens) for a in gens)
    algebra = HomLeibnizAlgebra.from_sparse(f, pres.dim, table, twist, labels)
    algebra.validate().require(lambda v: InternalInconsistency(
        f"presented algebra fails {v.law} at {v.witness}", witness=v.witness))
    return algebra


class Predicates(Frozen):
    """The perfect, twist-perfect, twist-surjective and abelian flags of an algebra."""

    perfect: bool
    alpha_perfect: bool
    alpha_surjective: bool
    abelian: bool
    __slots__ = ("perfect", "alpha_perfect", "alpha_surjective", "abelian")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def twist_image_bracket_span(L: HomLeibnizAlgebra) -> Subspace:
    """Span of [t(L), t(L)] where t is the twist."""
    img = L.twist.image()
    handle = IdealHandle(L, img)
    return commutator(handle, handle)


def predicates(L: HomLeibnizAlgebra) -> Predicates:
    return Predicates(
        perfect=is_perfect(L),
        alpha_perfect=twist_image_bracket_span(L).dim == L.dim,
        alpha_surjective=L.twist.rank() == L.dim,
        abelian=L.is_abelian(),
    )


def squares_ideal(L: HomLeibnizAlgebra) -> Subspace:
    """Smallest twist-stable two-sided ideal containing all squares [x, x].

    Seeded with the basis squares and the polarized sums [e_i, e_j] + [e_j, e_i]
    (characteristic is never 2), then closed under bracketing with basis
    vectors on both sides and under the twist until the dimension stabilizes.
    """
    f, c = L.field, L.sparse_c

    def seeds():
        for i in range(L.dim):
            yield c[i][i]
            for j in range(i + 1, L.dim):
                yield sparse_add(f, c[i][j], c[j][i], f.one())

    return ideal_closure(L, seeds())


def ideal_closure(L: HomLeibnizAlgebra, seeds) -> Subspace:
    """Smallest twist-stable two-sided ideal containing the seed vectors,
    each given as sparse pairs: each new vector is twisted and bracketed
    with every basis vector on both sides until nothing enlarges the span.
    The basis is canonical RREF."""
    f, c = L.field, L.sparse_c
    # the twist, then [v, e_j] and [e_j, v] (column j and row j of the table), applied to v
    maps = [L.twist.sparse_cols, *(cols for side in zip(zip(*c), c) for cols in side)]
    acc = RrefAccumulator(f, L.dim)
    queue = [v for v in seeds if acc.add(v)]
    while queue:
        v = queue.pop()
        for cols in maps:
            w = linear(f, cols, v)
            if acc.add(w):
                queue.append(w)
    return acc.subspace()


def lieization(L: HomLeibnizAlgebra):
    """Quotient by the squares ideal; the result is a Hom-Lie algebra."""
    return quotient_algebra(L, IdealHandle(L, squares_ideal(L)))


def yau_twist(L: HomLeibnizAlgebra, endo: Matrix) -> HomLeibnizAlgebra:
    """Twist a Leibniz algebra (identity twist) along a bracket endomorphism:
    the new bracket is [x, y]' = [endo(x), endo(y)] and the new twist is endo."""
    if L.twist != Matrix.identity(L.field, L.dim):
        raise StructureError("twisting requires a Leibniz algebra with identity twist")
    if (endo.rows, endo.cols) != (L.dim, L.dim):
        raise DimensionError("endomorphism matrix has the wrong shape")
    AlgebraHom(L, L, endo).validate().require(
        lambda v: NotEndomorphism("map does not preserve the bracket", witness=v.witness))
    return HomLeibnizAlgebra.from_sparse(L.field, L.dim, bracket_table(L, endo, endo, tuple), endo, L.labels)


def bracket_table(L: HomLeibnizAlgebra, left: Matrix, right: Matrix, read) -> tuple:
    """The table of ``read`` at [left(e_i), right(e_j)], column (i, j) of the
    bracket after left (x) right, each value as sorted sparse pairs."""
    cols, n = L.bracket_map().compose(left.kron(right)).sparse_cols, right.cols
    return tuple(tuple(map(read, cols[i * n:(i + 1) * n])) for i in range(left.cols))


def subalgebra(L: HomLeibnizAlgebra, space: Subspace, label_prefix: str = "s"):
    """Materialize a bracket- and twist-closed subspace as a standalone algebra.

    Returns the algebra on the subspace basis together with the inclusion.
    """
    if space.ambient_dim != L.dim:
        raise DimensionError("subspace of a different space")
    if space.field != L.field:
        raise FieldMismatch("subspace over the wrong field")
    f, k = L.field, space.dim
    incl = Matrix.from_columns(f, L.dim, space.sparse_rows)

    def coords(v):
        q = incl.preimage_sparse(v)
        if q is None:
            raise StructureError("subspace is not closed under bracket and twist")
        return q

    table = bracket_table(L, incl, incl, coords)
    twist = Matrix.from_columns(f, k, map(coords, L.twist.compose(incl).sparse_cols))
    sub = HomLeibnizAlgebra.from_sparse(f, k, table, twist, default_labels(k, label_prefix))
    return sub, AlgebraHom(sub, L, incl)


def direct_sum(A: HomLeibnizAlgebra, B: HomLeibnizAlgebra) -> HomLeibnizAlgebra:
    if A.field != B.field:
        raise FieldMismatch("direct sum across different fields")
    f, a, n = A.field, A.dim, A.dim + B.dim

    def up(v):  # a sparse vector of B in the B summand
        return tuple((a + k, x) for k, x in v)

    table = tuple(row + ((),) * B.dim for row in A.sparse_c) + \
        tuple(((),) * a + tuple(map(up, row)) for row in B.sparse_c)
    twist = Matrix.from_columns(f, n, A.twist.sparse_cols + tuple(map(up, B.twist.sparse_cols)))
    labels = tuple(f"{x}.1" for x in A.labels) + tuple(f"{x}.2" for x in B.labels)
    return HomLeibnizAlgebra.from_sparse(f, n, table, twist, labels)
