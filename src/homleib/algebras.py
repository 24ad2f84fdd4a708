"""Hom-Leibniz algebras given by structure constants and a twist map.

An algebra is a coordinate space with a bilinear bracket, stored as the
table c[i][j] = [e_i, e_j] (a coordinate vector), and a linear twist whose
matrix columns are the images of the basis.  Both are cached once in the
sparse form of ``linalg`` (``sparse_c``, ``sparse_twist``), which brackets,
validation, tensor relations and homology boundaries read.  Validation
runs ``linalg.check_laws`` on the Hom-Leibniz identity

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

from dataclasses import dataclass
from functools import cached_property

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
    check_laws,
    contract,
    dense_vec,
    induced_map,
    outer,
    sparse_columns,
    sparse_table,
    sparse_vec,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_zero,
)
from .report import ValidationReport


def default_labels(dim: int, prefix: str = "e") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class HomLeibnizAlgebra:
    field: Field
    dim: int
    c: tuple  # c[i][j] = coordinates of the bracket of basis vectors i, j
    twist: Matrix
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise StructureError("label count does not match dimension")
        if len(self.c) != self.dim or any(len(row) != self.dim for row in self.c):
            raise StructureError("structure table must be dim x dim")
        if any(len(v) != self.dim for row in self.c for v in row):
            raise StructureError("bracket values must be coordinate vectors")
        if (self.twist.rows, self.twist.cols) != (self.dim, self.dim):
            raise StructureError("twist matrix must be dim x dim")
        if self.twist.field != self.field:
            raise FieldMismatch("twist matrix over the wrong field")

    @staticmethod
    def from_brackets(field: Field, dim: int, brackets: dict, twist=None, labels=None) -> "HomLeibnizAlgebra":
        """Build from sparse bracket data {(i, j): {k: coeff}}."""
        table = [[vec_zero(field, dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), val in brackets.items():
            table[i][j] = dense_vec(field, dim, ((k, field.from_int(c) if isinstance(c, int) else c)
                                                 for k, c in val.items()))
        tw = twist if twist is not None else Matrix.identity(field, dim)
        return HomLeibnizAlgebra(field, dim, tuple(tuple(r) for r in table), tw,
                                 tuple(labels) if labels else default_labels(dim))

    @staticmethod
    def abelian(field: Field, dim: int, twist=None, labels=None) -> "HomLeibnizAlgebra":
        return HomLeibnizAlgebra.from_brackets(field, dim, {}, twist, labels)

    # the bracket table and twist columns in the one sparse form, built once
    sparse_c = cached_property(lambda self: sparse_table(self.c))
    sparse_twist = cached_property(lambda self: sparse_columns(self.twist))

    def sparse_of(self, table) -> tuple:
        """The sparse form of a table of bilinear operations on this algebra:
        its own bracket table (the adjoint action or co-representation)
        shares ``sparse_c``, any other table is built anew."""
        return self.sparse_c if table is self.c else sparse_table(table)

    def bracket(self, x, y) -> tuple:
        return contract(self.field, self.sparse_c, x, y, self.dim)

    def bracket_map(self) -> Matrix:
        """The bracket as a linear map on the row-major tensor square:
        e_i (x) e_j goes to c[i][j]."""
        return Matrix.from_columns(self.field, self.dim, [v for row in self.c for v in row])

    def apply_twist(self, x) -> tuple:
        return self.twist.apply(x)

    def unit(self, i) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def is_abelian(self) -> bool:
        return not any(v for row in self.sparse_c for v in row)

    def is_skew(self) -> bool:
        """Bracket skew-symmetry: [x, x] = 0, hence a Hom-Lie algebra."""
        f, c = self.field, self.sparse_c
        for i in range(self.dim):
            if c[i][i]:
                return False
            for j in range(i + 1, self.dim):
                if (c[i][j] or c[j][i]) and {k: f.neg(x) for k, x in c[i][j]} != dict(c[j][i]):
                    return False
        return True

    def validate(self) -> ValidationReport:
        rep = ValidationReport(subject="hom-leibniz algebra")
        f, c, tw, lb, n = self.field, self.sparse_c, self.sparse_twist, self.labels, self.dim
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

    def require_valid(self):
        self.validate().require(lambda v: StructureError(f"invalid algebra: {v.law} fails at {v.witness}"))
        return self


@dataclass(frozen=True)
class AlgebraHom:
    source: HomLeibnizAlgebra
    target: HomLeibnizAlgebra
    map: Matrix

    def __post_init__(self):
        if (self.map.rows, self.map.cols) != (self.target.dim, self.source.dim):
            raise DimensionError("homomorphism matrix does not match the algebras")
        if self.target.field != self.source.field:
            raise FieldMismatch("target algebra over the wrong field")
        if self.map.field != self.source.field:
            raise FieldMismatch("homomorphism matrix over the wrong field")

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
        f, lb, sc = src.field, src.labels, src.sparse_c
        cols = sparse_columns(self.map)
        n = src.dim
        check_laws(f, rep, (), [
            ((n, n), [("bracket preservation", ((lb, 0), (lb, 1)),
                       [(cols, (sc, 0, 1))], [(tgt.sparse_c, (cols, 0), (cols, 1))])]),
            ((n,), [("twist compatibility", ((lb, 0),),
                     [(cols, (src.sparse_twist, 0))], [(tgt.sparse_twist, (cols, 0))])])])
        return rep

    def is_homomorphism(self) -> bool:
        return self.validate().valid

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        return AlgebraHom(inner.source, self.target, self.map.compose(inner.map))


@dataclass(frozen=True)
class IdealHandle:
    parent: HomLeibnizAlgebra
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.parent.dim:
            raise DimensionError("subspace does not live in the parent algebra")

    @property
    def dim(self) -> int:
        return self.space.dim

    def ideal_witness(self):
        """None when this is a twist-stable two-sided ideal, else a witness."""
        L, S = self.parent, self.space
        for h in S.basis.entries:
            for j in range(L.dim):
                e = L.unit(j)
                for tag, v in (("left", L.bracket(h, e)), ("right", L.bracket(e, h))):
                    if not S.contains(v):
                        return (tag, h, L.labels[j], v)
        for h in S.basis.entries:
            w = L.apply_twist(h)
            if not S.contains(w):
                return ("twist", h, w)
        return None

    # the witness, found once per handle: a certificate that checks the
    # ideal and then passes the handle on does not check it again
    _witness = cached_property(lambda self: self.ideal_witness())

    def is_ideal(self) -> bool:
        return self._witness is None

    def require_ideal(self):
        w = self._witness
        if w is None:
            return self
        if w[0] == "twist":
            raise NotAlphaStable("subspace is not stable under the twist", witness=w)
        raise NotAnIdeal("bracket escapes the subspace", witness=w)


def commutator(h: IdealHandle, k: IdealHandle) -> Subspace:
    """Span of all brackets [h, k] and [k, h] over bases of the two subspaces."""
    if h.parent != k.parent:
        raise ParentMismatch("commutator of ideals of different algebras")
    L = h.parent
    vecs = []
    for a in h.space.basis.entries:
        for b in k.space.basis.entries:
            vecs.append(L.bracket(a, b))
            vecs.append(L.bracket(b, a))
    return Subspace.span(L.field, L.dim, vecs)


def derived_subspace(L: HomLeibnizAlgebra) -> Subspace:
    full = IdealHandle(L, Subspace.full(L.field, L.dim))
    return commutator(full, full)


def center(L: HomLeibnizAlgebra) -> Subspace:
    """Solutions of [x, e_j] = 0 = [e_j, x] for every basis vector e_j."""
    f = L.field
    rows = []
    for j in range(L.dim):
        for k in range(L.dim):
            rows.append(tuple(L.c[i][j][k] for i in range(L.dim)))
            rows.append(tuple(L.c[j][i][k] for i in range(L.dim)))
    if not rows:
        return Subspace.full(f, L.dim)
    return Matrix(f, len(rows), L.dim, tuple(rows)).kernel()


def quotient_algebra(L: HomLeibnizAlgebra, ideal: IdealHandle):
    """The quotient algebra with its induced bracket and twist, plus the projection."""
    if ideal.parent != L:
        raise ParentMismatch("ideal of a different algebra")
    ideal.require_ideal()
    q = QuotientSpace(ideal.space)
    reps = [q.lift_unit(k) for k in range(q.dim)]
    table = tuple(tuple(q.project(L.bracket(ra, rb)) for rb in reps) for ra in reps)
    twist = induced_map(L.twist, q, q)
    labels = tuple(L.labels[c] for c in q.coset_basis)
    quot = HomLeibnizAlgebra(L.field, q.dim, table, twist, labels)
    proj = AlgebraHom(L, quot, q.projection_map())
    return quot, proj


def certified_quotient(pres: QuotientSpace, left: Matrix, right: Matrix,
                       twist_amb: Matrix, labels) -> HomLeibnizAlgebra:
    """The algebra on ``pres`` whose bracket factors as the pure tensor
    [x, y] = left(x) (x) right(y) in the row-major ambient space, with the
    twist ``induced_map`` certifies from ``twist_amb``, and the quotient
    generators named by ``labels``.

    A relation row that ``left`` and ``right`` both kill brackets to zero
    with every generator; any other row r must bracket into the relations
    with every generator on both sides (``BracketNotWellDefined``, witness
    (r,)).  The projected algebra is then validated.
    """
    f = pres.field
    ambient = pres.ambient_dim
    relations = pres.relations
    twist = induced_map(twist_amb, pres, pres)
    for r in relations.basis.entries:
        left_r, right_r = left.apply(r), right.apply(r)
        if vec_is_zero(f, left_r) and vec_is_zero(f, right_r):
            continue
        for k in range(ambient):
            if not relations.contains(outer(f, left_r, right.col(k), ambient)) or \
               not relations.contains(outer(f, left.col(k), right_r, ambient)):
                raise BracketNotWellDefined("bracket does not preserve the relations", witness=(r,))
    gens = [(left.col(a), right.col(a)) for a in pres.coset_basis]
    table = tuple(tuple(pres.project(outer(f, x, y, ambient)) for _, y in gens) for x, _ in gens)
    algebra = HomLeibnizAlgebra(f, pres.dim, table, twist, tuple(labels))
    algebra.validate().require(lambda v: InternalInconsistency(
        f"presented algebra fails {v.law} at {v.witness}", witness=v.witness))
    return algebra


@dataclass(frozen=True)
class Predicates:
    perfect: bool
    alpha_perfect: bool
    alpha_surjective: bool
    abelian: bool

    def to_dict(self) -> dict:
        return {
            "perfect": self.perfect,
            "alpha_perfect": self.alpha_perfect,
            "alpha_surjective": self.alpha_surjective,
            "abelian": self.abelian,
        }


def twist_image_bracket_span(L: HomLeibnizAlgebra) -> Subspace:
    """Span of [t(L), t(L)] where t is the twist."""
    img = L.twist.image()
    handle = IdealHandle(L, img)
    return commutator(handle, handle)


def predicates(L: HomLeibnizAlgebra) -> Predicates:
    return Predicates(
        perfect=derived_subspace(L).dim == L.dim,
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
    f = L.field

    def seeds():
        for i in range(L.dim):
            yield L.c[i][i]
            for j in range(i + 1, L.dim):
                yield vec_add(f, L.c[i][j], L.c[j][i])

    return ideal_closure(L, seeds())


def ideal_closure(L: HomLeibnizAlgebra, seeds) -> Subspace:
    """Smallest twist-stable two-sided ideal containing the seed vectors:
    each new vector is bracketed with every basis vector on both sides and
    twisted until nothing enlarges the span.  The basis is canonical RREF."""
    acc = RrefAccumulator(L.field, L.dim)
    queue = []

    def push(v):
        if acc.add(sparse_vec(v)):
            queue.append(v)

    for v in seeds:
        push(v)
    while queue:
        v = queue.pop()
        push(L.apply_twist(v))
        for j in range(L.dim):
            e = L.unit(j)
            push(L.bracket(v, e))
            push(L.bracket(e, v))
    return Subspace(acc.basis_matrix())


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
    cols = [endo.col(j) for j in range(L.dim)]
    table = tuple(tuple(L.bracket(cols[i], cols[j]) for j in range(L.dim)) for i in range(L.dim))
    return HomLeibnizAlgebra(L.field, L.dim, table, endo, L.labels)


def subalgebra(L: HomLeibnizAlgebra, space: Subspace, label_prefix: str = "s"):
    """Materialize a bracket- and twist-closed subspace as a standalone algebra.

    Returns the algebra on the subspace basis together with the inclusion.
    """
    if space.ambient_dim != L.dim:
        raise DimensionError("subspace of a different space")
    f = L.field
    basis = list(space.basis.entries)
    k = len(basis)

    def coords(v):
        q = space.coordinates(v)
        if q is None:
            raise StructureError("subspace is not closed under bracket and twist")
        return q

    table = tuple(tuple(coords(L.bracket(a, b)) for b in basis) for a in basis)
    twist_cols = [coords(L.apply_twist(a)) for a in basis]
    labels = default_labels(k, label_prefix)
    sub = HomLeibnizAlgebra(f, k, table, Matrix.from_columns(f, k, twist_cols), labels)
    incl = AlgebraHom(sub, L, space.basis.transpose())
    return sub, incl


def direct_sum(A: HomLeibnizAlgebra, B: HomLeibnizAlgebra) -> HomLeibnizAlgebra:
    if A.field != B.field:
        raise FieldMismatch("direct sum across different fields")
    f = A.field
    n = A.dim + B.dim

    def emb_a(v):
        return tuple(v) + vec_zero(f, B.dim)

    def emb_b(v):
        return vec_zero(f, A.dim) + tuple(v)

    table = [[vec_zero(f, n) for _ in range(n)] for _ in range(n)]
    for i in range(A.dim):
        for j in range(A.dim):
            table[i][j] = emb_a(A.c[i][j])
    for i in range(B.dim):
        for j in range(B.dim):
            table[A.dim + i][A.dim + j] = emb_b(B.c[i][j])
    twist_cols = [emb_a(A.twist.col(j)) for j in range(A.dim)]
    twist_cols += [emb_b(B.twist.col(j)) for j in range(B.dim)]
    labels = tuple(f"{x}.1" for x in A.labels) + tuple(f"{x}.2" for x in B.labels)
    return HomLeibnizAlgebra(f, n, tuple(tuple(r) for r in table), Matrix.from_columns(f, n, twist_cols), labels)
