"""Exact linear algebra on one elimination engine: subspaces, kernels,
images, preimages, quotient spaces and induced maps.

Everything is immutable after construction and all arithmetic is exact;
equality of values is field equality, never approximate.  A dense vector is
a plain tuple of scalars, a sparse one the (index, value) pairs of its
nonzero coordinates, the indices increasing.  A ``Matrix`` is the one
linear-map type: it holds its field, its shape and its columns in the
sparse form, column j the image of basis vector j, so equal maps compare
and hash equal as data, and its shape is the only record of the map's
domain and codomain.  ``Matrix.from_columns`` is its one constructor; the
dense grid, ``Matrix(field, rows, cols, entries)`` or ``from_rows`` and the
``entries`` and ``col`` views, is only for the edges (documents, output,
tests).  Its kernels (``apply``, ``compose``, ``add``, ``transpose``,
``section``) run on the sparse columns.  A ``Subspace`` holds its
field, its ambient dimension and the sparse rows of its canonical reduced
row echelon form, pivots first and in increasing column order, so equal
subspaces compare and hash equal as data and every reported basis is
deterministic; its dense ``basis`` is a view built only when read, at the
edges (output, tests).  A quotient's ambient dimension is its relations'.

``RrefAccumulator`` is the one elimination engine, a sparse incremental
RREF that takes each vector as its sparse pairs: it builds every span
(``Subspace.span`` of dense vectors checks their length and passes them to
``Subspace.span_sparse``), hands its rows to a ``Subspace`` with
``subspace()``, and each ``Matrix`` eliminates once through it: the RREF of
[M^T | I] gives its image and kernel, each in its canonical RREF, its rank,
its preimages and its section.  It runs one step in both fields: each row
is stored as its pivot entry and its other entries, integers, and
``_reduce`` reduces a vector by one cross-multiplication per pivot
(``_axpy``), mod p over GF(p), where every pivot entry is 1.  So over Q no
``Fraction`` arises until a subspace is handed out or a residue returned.

Every structure in the library is a bilinear map on coordinate spaces, and
one small vector-kernel layer serves them all, with the maps between
presentations:

* each structure holds its tables only in sparse form, each value
  table[i][j] as its nonzero (k, value) pairs: algebras, actions and
  co-representations store only that form (``sparse_table`` converts a
  dense table at the edges), and a map, a twist included, holds its
  columns in that form as ``Matrix.sparse_cols``;
* ``linear`` applies sparse columns to a sparse vector, the one
  contraction kernel; ``contract``, a sparse table at two dense vectors for
  the dense edge methods, is ``linear`` of the flat table at their tensor;
* over Q each structure clears its denominators once: ``cleared`` gives a
  table or a map's columns as a ``Cleared`` pair, the integers D times
  the structure's own and D, the lcm of their denominators, and the
  structures keep it as a cached property (``Matrix.cleared_cols`` and the
  algebras', actions' and co-representations' ``cleared_*``); over GF(p)
  and on integral data D is 1 and the values are the structure's own;
* a law, or a family of relations, is data: signed lists of multilinear
  terms, bilinear and linear, in such tables on basis indices, each index
  named once per term, each table and leg a ``Cleared`` pair or plain
  values (D = 1).  One engine scatters each term from the nonzero
  coordinates of its two legs into the signed sums of the instances they
  meet at, so its cost follows those coordinates and an instance no term
  reaches is never formed; it multiplies by no factor that is 1, nor over
  Q -1, and skips a law whose two sides hold the same terms.  A term's
  scale is the product of its table's and its legs' D, a law's K the lcm
  of its terms' scales, and each term is weighed by K over its scale, so
  every instance's sum is K times its true sum.  ``check_laws``, the one
  identity checker, records each instance whose sum is nonzero;
  ``law_rows``, the one relation generator, yields each sum as a sparse
  row, K times the instance's; ``law_columns`` returns every instance's
  sum, divided by K, in ``check_laws``' order, as the sparse columns of a
  map (an action's);
* ``tensor_table`` states a row-major block of pure tensors as a sparse
  table, so a relation term u (x) v is a bilinear term; ``sparse_outer``
  is the pure tensor of two sparse vectors in such a block, and
  ``Matrix.kron`` is the map u (x) v -> f(u) (x) g(v);
* ``unit_vec`` is a basis vector; ``sparse_vec`` and ``dense_vec`` convert
  between the dense and the sparse form of a vector, ``is_sparse_vec``
  tells whether a value is in the sparse form and ``canonical_scalars``
  whether dense vectors hold only canonical scalars;
* ``_reduce`` is the one reduction: ``RrefAccumulator.add`` runs it on its
  rows, and ``_residue`` on a subspace's rows or a map's factor, in the
  same form, then divides its scale out, so the residue is v's own in
  canonical scalars; ``contains``, ``reduce``, ``coordinates``, ``project``
  and the sparse ``contains_sparse`` and ``project_sparse`` read
  ``Subspace.residue``.  ``Matrix.preimage_sparse`` is the residue of
  (v | 0) on the factor, read off its I block and rechecked, and
  ``preimage`` is its dense form; they and ``coordinates`` return None off
  the image or subspace, and each caller raises its own error;
* ``induced_map`` is the one descent certificate, and every map out of a
  presentation is one: it checks that the ambient map, a ``Matrix`` or
  its sparse columns, carries each sparse relation row into the target's
  relations, raising ``error(r, w)`` (both dense, formed only then) for
  the first row r whose image w does not, then projects each coset
  generator's column.  A map into a plain space has the relation-free target
  ``quotient(field, n, ())``;
* ``exact`` is the one test of im f = ker g, by a composite and two ranks,
  and ``snake`` is the snake lemma of both exactness certificates: handed
  only the map of rows, its two rows and three columns, it reads every
  kernel, image and cokernel off those maps, forms the connecting map and
  the maps induced on the cokernels, and decides every joint from ker alpha
  to coker gamma by ``exact``.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import DimensionError, FieldMismatch, NotWellDefined, StructureError
from .fields import Field
from .values import Frozen, Value, cached_property


def unit_vec(field: Field, n: int, i: int) -> tuple:
    return dense_vec(field, n, ((i, field.one()),))


def sparse_vec(v) -> tuple:
    """The nonzero coordinates of a dense vector as (index, value) pairs."""
    return tuple([(k, x) for k, x in enumerate(v) if x])


def dense_vec(field: Field, n: int, pairs) -> tuple:
    """The length-n vector with the given (index, value) pairs, zero elsewhere."""
    v = [field.zero()] * n
    for k, x in pairs:
        v[k] = x
    return tuple(v)


def sparse_table(table) -> tuple:
    """A table of values on basis pairs, each as its nonzero (k, value) pairs."""
    return tuple(tuple(sparse_vec(v) for v in row) for row in table)


def is_sparse_vec(field: Field, v, dim: int) -> bool:
    """Whether v is a vector of a dim-space in the one sparse form: a tuple
    of (index, value) pairs, the indices increasing in 0 .. dim - 1 and
    every value a nonzero scalar of the field in its canonical form."""
    last = -1
    for pair in v if type(v) is tuple else [None]:
        if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not int \
                or not last < pair[0] < dim or not pair[1] or not field.is_canonical(pair[1]):
            return False
        last = pair[0]
    return True


def canonical_scalars(field: Field, vectors) -> bool:
    """Whether every nonzero coordinate of the dense vectors is a scalar of
    the field in its canonical form."""
    return all(map(field.is_canonical, filter(None, chain.from_iterable(vectors))))


def linear(field: Field, cols, u) -> list:
    """The linear map with sparse columns ``cols`` at the sparse vector u."""
    zero = field.zero()
    out = {}
    for i, a in u:
        for k, t in cols[i]:
            out[k] = field.add(out.get(k, zero), field.mul(a, t))
    return [(k, x) for k, x in out.items() if x]


def sparse_add(field: Field, u, v, c) -> list:
    """u + c v for sparse vectors u and v, as its nonzero (k, value) pairs."""
    return linear(field, (u, v), ((0, field.one()), (1, c)))


def contract(field: Field, table, x, y, dim: int) -> tuple:
    """The sum of x_i y_j table[i][j] at dense x, y, as a dense length-dim
    vector: ``linear`` of the flattened table at the pure tensor x (x) y."""
    cols = [*chain.from_iterable(table)]
    return dense_vec(field, dim, linear(field, cols, sparse_outer(field, sparse_vec(x), sparse_vec(y), len(y))))


def tensor_table(field: Field, rows: int, cols: int, offset: int = 0) -> tuple:
    """A row-major block of pure tensors as a sparse table: the term
    (table, u, v) is u (x) v, with e_a (x) e_b at offset + a * cols + b."""
    one = field.one()
    return tuple(tuple(((offset + a * cols + b, one),) for b in range(cols)) for a in range(rows))


_UNIT = ((0, 0, 1),)  # the placed second leg of a linear term: the constant 1, the one of both fields, at no position


class Cleared(NamedTuple):
    """A table or a map's columns over Q cleared of denominators: ``values``
    is D times the structure's own, integral, and ``scale`` is D > 1."""

    values: tuple
    scale: int


def cleared(field: Field, values, table: bool = False):
    """Sparse columns, or with ``table`` a sparse table, cleared of their
    denominators: a ``Cleared`` pair of the values times D, the lcm of their
    denominators (``Field.clearing``), and D.  Over GF(p), and on integral
    data, D is 1 and ``values`` itself is returned, not copied."""
    vectors = chain.from_iterable(values) if table else values
    d = field.clearing(x for v in vectors for _, x in v)
    if d == 1:
        return values

    def scaled(v):
        return tuple([(k, field.mul(d, x)) for k, x in v])

    return Cleared(tuple(tuple(map(scaled, row)) for row in values) if table else tuple(map(scaled, values)), d)


def unwrapped(values) -> tuple:
    """A table or vectors as (values, D): a ``Cleared`` pair's, or plain
    values with D = 1."""
    return values if type(values) is Cleared else (values, 1)


def _scale(term) -> int:
    """A term's scale: the product of the D's of its table and its legs."""
    s = term[0].scale if type(term[0]) is Cleared else 1
    for leg in term[1:]:
        if type(leg[0]) is Cleared:
            s *= leg[0].scale
    return s


def _law_scale(law) -> int:
    """A law's K: the lcm of its terms' scales, 1 for a law with none."""
    return lcm(*map(_scale, chain(law[2], law[3])))


def _cancels(plus, minus) -> bool:
    """Whether ``plus`` and ``minus`` hold equal terms, compared by value,
    the same number of times, so that every instance of the law is zero."""
    rest = list(minus)
    for term in plus:
        if term not in rest:
            return False
        rest.remove(term)
    return not rest


def _law_sums(field: Field, k: int, groups):
    """The one law engine, (sums, at).  ``sums`` yields, for each group of
    ``check_laws`` data in turn, the signed sums, plus less minus, of its
    instances where a term can be nonzero, each K times the true sum (K the
    law's ``_law_scale``), as {key: {column: value}} with coordinates that
    may be zero; at(key) is the instance's (idx, law).  Keys sort as
    ``check_laws`` runs, by outer tuple (the first k indices), group, inner
    tuple and law: a key is that position in mixed radix, so it is linear
    in the indices, index position p weighing ``weights[p]``.

    Every law is multilinear: the two legs of each term name each position
    of the index tuple once between them, else ``ValueError``, checked in
    a law that cancels too.  So a term is scattered from its legs: each
    leg's nonzero coordinates are listed once per call with their offsets,
    the weighted sums of the leg's indices, and each pair of coordinates,
    one per leg, adds its product to the sum at the key o1 + o2.  A linear
    term is a bilinear one whose second leg is the constant 1.  A
    ``Cleared`` table or leg is read as its integers, D times the
    structure's own, so a term's product is s times the true one, s the
    term's ``_scale``; a term with s < K has its left leg's coordinates
    multiplied by K / s once.  Cleared pairs arise over Q only (``cleared``
    hands a GF(p) table back as it is), so K is found over Q only, and a
    law whose K is 1 (all its parts plain) is scattered as it is given,
    with nothing extra run.  A factor that is the field's one is not
    multiplied, nor over Q one that is -1, which exchanges add and sub
    instead, so a basis-vector leg or a ``tensor_table`` costs no product
    in any basis and a change of basis by signs costs none either.  A law
    whose two sides cancel term by term (``_cancels``) is zero everywhere
    and is skipped."""
    one, zero, mul = field.one(), field.zero(), field.mul
    minus_one = -1 if field.is_canonical(-1) else None  # over Q; over GF(p) no factor is skipped as -1
    adding, subtracting = (field.add, field.sub), (field.sub, field.add)  # a term's op, and its op at a factor -1
    nq = span = 1
    for dims, laws in groups:
        nq, span = max(nq, len(laws)), max(span, prod(dims[k:]))
    placed, wrapped = {}, {}

    def place(vectors, pos, weights):  # (offset, index, value) for each nonzero coordinate of a leg
        n = len(pos)
        key = (id(vectors), weights[pos[0]]) if n == 1 else \
            (id(vectors), weights[pos[0]], weights[pos[1]]) if n else id(vectors)
        got = placed.get(key)
        if got is None:
            if n == 2:
                _, w, z = key
                got = [(w * x + z * y, a, c) for x, row in enumerate(vectors) for y, v in enumerate(row) for a, c in v]
            elif n:
                w = key[1]
                got = [(w * x, a, c) for x, v in enumerate(vectors) for a, c in v]
            else:
                got = [(0, a, c) for a, c in vectors]
            placed[key] = got
        return got

    def scatter(g, dims, laws):
        out = {}
        weights = [prod(dims[p + 1:k]) * len(groups) * span * nq if p < k else prod(dims[p + 1:]) * nq
                   for p in range(len(dims))]
        whole, legal = [*range(len(dims))], set()  # the positions, and the leg positions found to name each once
        for q, law in enumerate(laws):
            name, plus, minus = law[0], law[2], law[3]
            cancels, base, big = _cancels(plus, minus), g * span * nq + q, 1
            for term in chain(plus, minus) if minus_one and not cancels else ():  # K, over Q only
                if type(term[0]) is Cleared or type(term[1][0]) is Cleared or \
                        len(term) == 3 and type(term[2][0]) is Cleared:
                    big = lcm(big, _scale(term))
            for ops, terms in ((adding, plus), (subtracting, minus)):
                for term in terms:
                    table, u, v = term if len(term) == 3 else (*term, None)
                    pu, pv = u[1:], v[1:] if v else ()
                    if (pos := pu + pv) not in legal:
                        if sorted(pos) != whole:
                            raise ValueError(f"law {name!r}: a term's legs name the positions {sorted(pos)}, "
                                             f"not each of {whole} once")
                        legal.add(pos)
                    if cancels:
                        continue
                    u, v, factor = u[0], v and v[0], 1
                    if big != 1:  # a part is cleared: read the integers, and weigh the term by K / s
                        factor = big // _scale(term)
                        table, u, v = [x.values if type(x) is Cleared else x for x in (table, u, v)]
                    left = place(u, pu, weights)
                    if not left:
                        continue
                    if v is None:  # a linear term as a bilinear one, its columns one per row, wrapped once a call
                        right = _UNIT
                        table = wrapped.get(id(table)) or wrapped.setdefault(id(table), [(col,) for col in table])
                    else:
                        right = place(v, pv, weights)
                    if factor != 1:
                        left = [(o1, a, mul(factor, x)) for o1, a, x in left]
                    for o1, a, x in left:
                        o1 += base
                        line = table[a]
                        if x is minus_one:
                            x, same, swapped = one, ops[1], ops[0]
                        else:
                            same, swapped = ops
                        for o2, b, y in right:
                            cell = line[b]
                            if cell:
                                acc = out.get(o1 + o2)
                                if acc is None:
                                    acc = out[o1 + o2] = {}
                                if y is minus_one:
                                    y, op, other = one, swapped, same
                                else:
                                    op, other = same, swapped
                                c = y if x is one else x if y is one else mul(x, y)
                                for col, z in cell:
                                    if z is minus_one:
                                        acc[col] = other(acc.get(col, zero), c)
                                    else:
                                        z = z if c is one else c if z is one else mul(c, z)
                                        acc[col] = op(acc.get(col, zero), z)
        return out

    def at(key):
        key, q = divmod(key, nq)
        key, inner = divmod(key, span)
        outer, g = divmod(key, len(groups))
        dims, laws = groups[g]
        flat, idx = outer * prod(dims[k:]) + inner, []
        for d in reversed(dims):
            flat, x = divmod(flat, d)
            idx.append(x)
        return tuple(reversed(idx)), laws[q]

    return (scatter(g, dims, laws) for g, (dims, laws) in enumerate(groups)), at


def check_laws(field: Field, report, outer_dims: tuple, groups) -> None:
    """Record in ``report`` every violated instance of a family of laws.

    A law is data, (name, witness, plus, minus[, detail]), stated on an index
    tuple idx.  ``plus`` and ``minus`` are lists of terms, (cols, u) for the
    linear map with sparse columns cols at u and (table, u, v) for the
    bilinear map with ``sparse_table`` table at u and v, each leg (vectors,
    p[, r]) naming vectors[idx[p]][idx[r]]; a table or a leg's vectors may
    be a ``Cleared`` pair, read as the structure's own values.  The witness
    is a tuple of (labels, p), naming labels[idx[p]], and ``detail`` a
    format string over the witness.  An instance is recorded exactly when
    its signed sum, plus less minus, is nonzero, which the engine's K times
    that sum is too.  Every law is multilinear: a term whose legs
    leave a position of the index tuple free or name one twice raises
    ``ValueError``, also in a law whose sides cancel term by term.

    The records are in loop order: row-major over the index tuples of
    ``outer_dims``, inside that each (dims, laws) group in turn, row-major
    over the index tuples below ``dims`` that extend the outer one, and at
    each over its laws in order.  Only the instances where a term can be
    nonzero are evaluated (``_law_sums``), so the report is the full grid's:
    a linear term can be nonzero only if cols[a] is nonempty for some a in
    supp u, and a bilinear one only if table[a][b] is for some (a, b) in
    supp u x supp v."""
    sums, at = _law_sums(field, len(outer_dims), groups)
    for key in sorted(key for group in sums for key, row in group.items() if any(row.values())):
        idx, (name, witness, _, _, *detail) = at(key)
        labels = tuple(lb[idx[p]] for lb, p in witness)
        report.record(name, labels, *(d.format(*labels) for d in detail))


def law_rows(field: Field, groups):
    """Yield the rows of a family of relations stated as ``check_laws``
    data, with no outer loop: each group runs in full, in turn.  A row is
    K times the signed sum of an instance where a term can be nonzero, K
    the law's (``_law_scale``, integral rows on ``Cleared`` tables), as the
    sorted (column, value) pairs of its nonzero coordinates, so the rows
    span what the instances span; an instance whose
    terms cancel yields an empty row, and a law that cancels term by term
    none.  A relation's terms are pure tensors (``tensor_table``), so an
    instance is skipped exactly when each of its terms has an empty leg."""
    for group in _law_sums(field, 0, groups)[0]:
        for key in sorted(group):
            yield tuple(sorted([(k, x) for k, x in group[key].items() if x]))


def law_columns(field: Field, outer_dims: tuple, groups) -> list:
    """The sums of every instance of ``check_laws`` data, in its loop order,
    as the sorted sparse columns of a map, an instance no term reaches an
    empty column: the engine's sums, each divided by its law's K once
    through the field.  The groups share their inner size (the product of
    the dims after ``outer_dims``) and number of laws, else ``ValueError``,
    so the instances are the columns 0, 1, ... with none left out."""
    k = len(outer_dims)
    if len({(prod(dims[k:]), len(laws)) for dims, laws in groups}) > 1:
        raise ValueError("law columns need groups of one inner size and one number of laws")
    cols = [()] * (prod(outer_dims) * sum(prod(dims[k:]) * len(laws) for dims, laws in groups))
    scales = [[_law_scale(law) for law in laws] for _, laws in groups]
    nq = max([len(laws) for _, laws in groups] + [1])  # a key's law is key % nq
    for group, ks in zip(_law_sums(field, k, groups)[0], scales):
        for key, col in group.items():
            d = ks[key % nq]
            cols[key] = tuple(sorted([(c, x if d == 1 else field.div(x, d)) for c, x in col.items() if x]))
    return cols


def sparse_outer(field: Field, u, v, stride: int, offset: int = 0) -> list:
    """The pure tensor u (x) v of sparse vectors as sparse pairs: u_i v_j
    sits at offset + i * stride + j, stride being the second leg's length."""
    mul = field.mul
    return [(offset + i * stride + j, mul(x, y)) for i, x in u for j, y in v]


class Matrix(Value):
    """A matrix and the linear map it gives: column j is the image of basis
    vector j, so a map from an n-space to an m-space is m x n.  It holds
    each column in the one sparse form, the (index, value) pairs of its
    nonzero coordinates with the indices increasing, so equal maps compare
    and hash equal; its dense ``entries`` are a view, built when read.  Its
    rank, image, kernel, preimages and section read one factorization, the
    RREF of its columns beside the identity, kept as the accumulator stores
    it, built once; a preimage is a residue on it, and its image and kernel
    are each divided out of it once, when first asked for."""

    field: Field
    rows: int
    cols: int
    sparse_cols: tuple
    __slots__ = ("field", "rows", "cols", "sparse_cols", "__dict__")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        """The map with the dense grid ``entries``, a tuple of rows: the
        dense edge (documents, tests).  Every coordinate, zero or not, is a
        scalar of the field (``Field.is_scalar``), else ``StructureError``:
        over Q an integral ``Fraction`` is kept as given."""
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionError("entry grid does not match declared shape")
        if not all(map(field.is_scalar, chain.from_iterable(entries))):
            raise StructureError("map coordinates must be canonical scalars of the field")
        columns = tuple(map(sparse_vec, zip(*entries))) if rows else ((),) * cols
        Frozen.__init__(self, field, rows, cols, columns)
        self.__dict__["entries"] = entries

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        """The map with the dense rows ``rows``, each int read in the field;
        any other value, a bool included, is checked as ``Matrix`` checks it."""
        rows = tuple(tuple(field.from_int(x) if type(x) is int else x for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def from_columns(field: Field, rows: int, columns) -> "Matrix":
        """The map into a ``rows``-space whose column j has the (index,
        value) pairs columns[j]: the indices increasing within range(rows)
        (else ``DimensionError``), the values nonzero scalars of the field
        by ``Field.is_scalar`` (else ``StructureError``)."""
        columns = tuple(map(tuple, columns))
        for col in columns:
            last = -1
            for k, x in col:
                if not last < k < rows:
                    raise DimensionError(f"column indices must increase within range({rows})")
                if not field.is_scalar(x) or not x:
                    raise StructureError("map coordinates must be canonical scalars of the field")
                last = k
        m = object.__new__(Matrix)
        Frozen.__init__(m, field, rows, len(columns), columns)
        return m

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix.from_columns(field, rows, ((),) * cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.from_columns(field, n, [((i, field.one()),) for i in range(n)])

    # the dense grid of rows, built once when read: the dense edge
    entries = cached_property(lambda self: tuple(dense_vec(self.field, self.cols, r)
                                                 for r in self.transpose().sparse_cols))

    # the columns cleared of denominators, built once when a law reads them
    cleared_cols = cached_property(lambda self: cleared(self.field, self.sparse_cols))

    def col(self, j) -> tuple:
        return dense_vec(self.field, self.rows, self.sparse_cols[j])

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.rows)]
        for j, col in enumerate(self.sparse_cols):
            for k, x in col:
                out[k].append((j, x))
        return Matrix.from_columns(self.field, self.cols, out)

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} does not match {self.cols} columns")
        return dense_vec(self.field, self.rows, linear(self.field, self.sparse_cols, sparse_vec(v)))

    def compose(self, inner: "Matrix") -> "Matrix":
        """self after inner."""
        if self.field != inner.field:
            raise FieldMismatch("matrix product across different fields")
        if self.cols != inner.rows:
            raise DimensionError("composition shapes disagree")
        f, cols = self.field, self.sparse_cols
        return Matrix.from_columns(f, self.rows, [sorted(linear(f, cols, c)) for c in inner.sparse_cols])

    def kron(self, other: "Matrix") -> "Matrix":
        """The map u (x) v -> self(u) (x) other(v) of row-major tensor spaces."""
        f = self.field
        return Matrix.from_columns(f, self.rows * other.rows, [
            sparse_outer(f, u, v, other.rows) for u in self.sparse_cols for v in other.sparse_cols])

    def add(self, other: "Matrix") -> "Matrix":
        return self._sum(other, self.field.one())

    def sub(self, other: "Matrix") -> "Matrix":
        return self._sum(other, self.field.neg(self.field.one()))

    def _sum(self, other: "Matrix", c) -> "Matrix":
        """self + c other."""
        if self.field != other.field:
            raise FieldMismatch("matrix sum across different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sum")
        f = self.field
        return Matrix.from_columns(f, self.rows, [sorted(sparse_add(f, u, v, c))
                                                  for u, v in zip(self.sparse_cols, other.sparse_cols)])

    def is_zero(self) -> bool:
        return not any(self.sparse_cols)

    @cached_property
    def _factor(self) -> dict:
        """The RREF of [M^T | I], built once, as the accumulator's stored
        rows, pivot column -> (pivot entry, the row's other entries): row j
        is column j of M, extended by 1 at rows + j.

        A row whose pivot lies in M^T is, divided by its pivot entry, a row
        of the image's canonical RREF, and its I block the combination of
        columns that gives it; a row whose pivot lies in the I block is zero
        in M^T, and its I block a row of the kernel's canonical RREF."""
        f, m = self.field, self.rows
        acc = RrefAccumulator(f, m + self.cols)
        for j, col in enumerate(self.sparse_cols):
            acc.add(col + ((m + j, f.one()),))
        return acc._stored

    def _block(self, lo: int, hi: int) -> Subspace:
        """The factor's rows with pivot in lo .. hi - 1, read there in canonical scalars."""
        f, one = self.field, self.field.one()
        return Subspace(f, hi - lo, tuple(
            ((q - lo, one), *sorted((c - lo, x if d == 1 else f.div(x, d)) for c, x in r.items() if c < hi))
            for q, (d, r) in sorted(self._factor.items()) if lo <= q < hi))

    def rank(self) -> int:
        return sum(1 for p in self._factor if p < self.rows)

    def image(self) -> Subspace:
        return self._image

    def kernel(self) -> Subspace:
        return self._kernel

    _image = cached_property(lambda self: self._block(0, self.rows))
    _kernel = cached_property(lambda self: self._block(self.rows, self.rows + self.cols))

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def preimage(self, v) -> tuple | None:
        """The exact solution of self.x = v that is zero at the kernel's
        pivots, rechecked, or None off the image."""
        if len(v) != self.rows:
            raise DimensionError(f"vector length {len(v)} does not match {self.rows} rows")
        x = self.preimage_sparse(sparse_vec(v))
        return None if x is None else dense_vec(self.field, self.cols, x)

    def preimage_sparse(self, pairs) -> tuple | None:
        """``preimage`` of the sparse vector with nonzero coordinates
        ``pairs``, as the sorted pairs of its nonzero coordinates: the
        residue of (v | 0) on the factor's rows is (v - M x | -x), x the
        image rows' I blocks weighted by v at their pivots, so x is zero at
        the kernel's pivots."""
        f, m, v = self.field, self.rows, dict(pairs)
        x = tuple(sorted((c - m, f.neg(y)) for c, y in _residue(f, self._factor, v).items() if c >= m))
        return x if dict(linear(f, self.sparse_cols, x)) == v else None

    def section(self) -> "Matrix":
        """A right inverse on the image: columns are the preimages of e_k.

        Deterministic (zero at the kernel's pivots).  Raises if not surjective.
        """
        one, cols = self.field.one(), []
        for k in range(self.rows):
            x = self.preimage_sparse(((k, one),))
            if x is None:
                raise NotWellDefined(f"no preimage for coordinate {k}; map is not surjective")
            cols.append(x)
        return Matrix.from_columns(self.field, self.cols, cols)


def _axpy(w: dict, a: int, r: dict, d: int, p: int | None) -> int:
    """The integer vector w, whose entry a at the pivot of the stored row r
    with pivot entry d > 0 is already taken out, less its part along r, in
    place and fraction-free: w becomes (d/g) w - (a/g) r, g = gcd(a, d),
    each entry reduced mod p when p is set.  Over GF(p) d is 1, so this is
    w - a r.  Returns d/g, the factor w was scaled by."""
    g = 1 if d == 1 else gcd(a, d)
    s, m = d // g, a // g
    if s != 1:
        for c in w:
            w[c] *= s
    for c, x in r.items():
        y = w.get(c, 0) - m * x
        if p is not None:
            y %= p
        if y:
            w[c] = y
        else:
            del w[c]
    return s


def _reduce(field: Field, rows: dict, w: dict) -> int:
    """Reduce w, {column: value}, in place by the stored rows, pivot ->
    (pivot entry, entries): its denominators cleared by ``Field.clearing``,
    one ``_axpy`` per stored pivot in its support.  Returns the scale s, so
    w ends as s (v less its part along the rows), v as it was handed in.

    The pivots are found once, as the key views' intersection, and taken
    in its order, which need not be w's.  Any order gives the same result:
    each stored row is zero at every other pivot, so a step takes out its
    own pivot, adds none and only scales w's entries at the others, and s
    comes out as the lcm over the pivots of d / gcd(a, d), d the row's
    pivot entry and a w's cleared entry there (1 over GF(p))."""
    p, s = field.p, 1
    if p is None and not {int}.issuperset(map(type, w.values())):
        s = field.clearing(w.values())
        for c, x in w.items():
            w[c] = field.mul(s, x)
    for q in w.keys() & rows.keys():
        d, r = rows[q]
        s *= _axpy(w, w.pop(q), r, d, p)
    return s


def _residue(field: Field, rows: dict, pairs) -> dict:
    """The sparse vector with nonzero coordinates ``pairs`` less its part
    along the stored rows, as {column: value} in canonical scalars:
    ``_reduce``, then one division by its scale, none when it is 1."""
    w = dict(pairs)
    if not w:
        return w
    s = _reduce(field, rows, w)
    return w if s == 1 else {c: field.div(x, s) for c, x in w.items()}


def _normal(p: int | None, lead: int, w: dict) -> tuple:
    """The row with pivot entry ``lead`` and other entries w as it is
    stored, (pivot entry, entries): over GF(p) scaled to a pivot entry of
    1, over Q divided by its content with the pivot entry made positive."""
    if p is not None:
        if lead == 1:
            return 1, w
        inv = pow(lead, -1, p)
        return 1, {c: x * inv % p for c, x in w.items()}
    g = gcd(lead, *w.values())
    if lead < 0:
        g = -g
    return (lead, w) if g == 1 else (lead // g, {c: x // g for c, x in w.items()})


def _back(rows: dict, pivot: int, e: int, n: dict, p: int | None) -> None:
    """Reduce each stored row holding the new row's pivot by that row, (e,
    n), through ``_axpy``, and normalise it again."""
    for q, (lead, row) in rows.items():
        b = row.pop(pivot, None)
        if b is not None:
            rows[q] = _normal(p, lead * _axpy(row, b, n, e, p), row)


class RrefAccumulator:
    """Incremental reduced row echelon span builder.

    ``add`` takes a vector as the (column, value) pairs of its nonzero
    coordinates, reduces it against the stored rows and reports whether it
    enlarged the span.  Every row is stored by its pivot as (pivot entry,
    {column: value} of its other entries), integers in both fields, and is
    zero at every other row's pivot, so the rows are always the reduced row
    echelon form of the vectors added, up to a positive factor each.  A
    vector is reduced by ``_reduce``, fraction-free (Bareiss, Math. Comp.
    22, 1968); a new row is normalised by ``_normal``, over GF(p) to
    a pivot entry of 1 and over Q to a primitive integer vector with a
    positive pivot entry, and a stored row holding the new pivot is reduced
    the same way by ``_back``.  A new pivot is back-substituted only when
    some stored row may hold it: the columns the rows hold are recorded as
    they grow.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._stored, self._held = {}, set()

    @property
    def rank(self) -> int:
        return len(self._stored)

    @classmethod
    def _holding(cls, space: Subspace) -> "RrefAccumulator":
        """An accumulator holding the stored rows of ``space``, copied as they are."""
        acc = cls(space.field, space.ambient_dim)
        acc._stored = {q: (d, dict(r)) for q, (d, r) in space._stored.items()}
        acc._held = {c for _, r in acc._stored.values() for c in r}  # a superset of the columns the rows hold
        return acc

    def add(self, v) -> bool:
        rows, p, w = self._stored, self.field.p, dict(v)
        _reduce(self.field, rows, w)
        if not w:
            return False
        pivot = min(w)
        lead, row = _normal(p, w.pop(pivot), w)
        if pivot in self._held:
            _back(rows, pivot, lead, row, p)
        self._held.update(row)
        rows[pivot] = lead, row
        return True

    def add_rows(self, rows) -> None:
        """Add sparse rows in order; an empty row, and a row equal to one
        earlier in ``rows``, adds nothing and is not eliminated."""
        for row in dict.fromkeys(map(tuple, rows)):
            if row:
                self.add(row)

    def stored_rows(self):
        """The stored rows as sparse vectors, each its (column, value) pairs
        with the pivot first: the RREF of the vectors added up to a positive
        factor per row, as stored, with no division."""
        return (((q, d), *r.items()) for q, (d, r) in self._stored.items())

    def subspace(self) -> Subspace:
        """The span of the vectors added, its rows sorted by pivot and each
        by column, each stored row divided by its pivot entry."""
        f, one = self.field, self.field.one()
        return Subspace(f, self.ambient_dim, tuple(
            ((q, one), *sorted(r.items() if d == 1 else ((c, f.div(x, d)) for c, x in r.items())))
            for q, (d, r) in sorted(self._stored.items())))


class Subspace(Value):
    """A subspace of a coordinate space, held as the sparse rows of its
    canonical RREF: each row the sorted (column, value) pairs of its nonzero
    coordinates, its pivot first, the pivots increasing."""

    field: Field
    ambient_dim: int
    sparse_rows: tuple
    __slots__ = ("field", "ambient_dim", "sparse_rows", "__dict__")

    def __init__(self, field: Field, ambient_dim: int, sparse_rows: tuple):
        if not all(sparse_rows):
            raise StructureError("a subspace row must have a nonzero coordinate")
        # the first pivot is the least column of any row
        if sparse_rows and (sparse_rows[0][0][0] < 0 or max(r[-1][0] for r in sparse_rows) >= ambient_dim):
            raise DimensionError(f"a column index outside ambient dimension {ambient_dim}")
        Frozen.__init__(self, field, ambient_dim, sparse_rows)

    # the rows as the accumulator stores them, built once when first reduced against: each row times the
    # lcm of its denominators, the one primitive integer row with a positive pivot entry (over GF(p), itself)
    _stored = cached_property(lambda self: {
        r[0][0]: (d, row if d == 1 else {c: self.field.mul(d, x) for c, x in row.items()})
        for r in self.sparse_rows for row in [dict(r[1:])] for d in [self.field.clearing(row.values())]})

    # the basis rows as a dense matrix, built once when read
    basis = cached_property(lambda self: Matrix.from_columns(self.field, self.ambient_dim,
                                                             self.sparse_rows).transpose())

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError(f"vector length {len(v)} in ambient dimension {ambient_dim}")
            rows.append(sparse_vec(v))
        return Subspace.span_sparse(field, ambient_dim, rows)

    @staticmethod
    def span_sparse(field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of sparse rows, each the (column, value) pairs of the
        nonzero coordinates of a vector; an empty row, and a row equal to
        one already added, adds nothing and is not eliminated."""
        acc = RrefAccumulator(field, ambient_dim)
        acc.add_rows(rows)
        return acc.subspace()

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, tuple(((i, field.one()),) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.sparse_rows)

    def pivots(self) -> tuple:
        return tuple(r[0][0] for r in self.sparse_rows)

    def residue(self, pairs) -> dict:
        """The sparse vector v with nonzero coordinates ``pairs`` less its
        part in this subspace, as {column: value}: ``_residue`` on the stored
        rows.  A reduced row is zero at every other pivot, so only the
        pivots in v's support are touched."""
        return _residue(self.field, self._stored, pairs)

    def contains_sparse(self, pairs) -> bool:
        return not self.residue(pairs)

    def _sparse(self, v) -> tuple:
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} in ambient dimension {self.ambient_dim}")
        return sparse_vec(v)

    def reduce(self, v) -> tuple:
        """Canonical representative of v modulo this subspace (zeros at pivots)."""
        return dense_vec(self.field, self.ambient_dim, self.residue(self._sparse(v)).items())

    def contains(self, v) -> bool:
        return self.contains_sparse(self._sparse(v))

    def coordinates(self, v) -> tuple | None:
        """Coordinates of v in the basis rows, or None when v lies outside."""
        return None if self.residue(self._sparse(v)) else tuple(v[p] for p in self.pivots())

    def _same_space(self, other: "Subspace", what: str) -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{what} across different fields")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(f"{what} in different ambient spaces")

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_space(other, "subspace containment")
        return all(self.contains_sparse(r) for r in other.sparse_rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._same_space(other, "subspace sum")
        acc = RrefAccumulator._holding(self)
        acc.add_rows(other.sparse_rows)
        return acc.subspace()

    def permuted(self, perm, keep: bool = False) -> "Subspace":
        """The image under the coordinate permutation e_c -> e_perm[c], or
        with ``keep`` its sum with this subspace: the permuted basis rows
        reduced into a canonical RREF, with ``keep`` against this subspace's
        own rows, which are reduced already."""
        acc = RrefAccumulator._holding(self) if keep else RrefAccumulator(self.field, self.ambient_dim)
        acc.add_rows(sorted((perm[c], x) for c, x in r) for r in self.sparse_rows)
        return acc.subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_space(other, "intersection")
        f = self.field
        h = self.dim
        # kernel elements (a, b) of the stacked bases give a.H + b.K = 0, so
        # a.H lies in both row spaces
        stacked = Matrix.from_columns(f, self.ambient_dim, self.sparse_rows + other.sparse_rows)
        return Subspace.span_sparse(f, self.ambient_dim, [linear(f, self.sparse_rows, [(i, x) for i, x in w if i < h])
                                                          for w in stacked.kernel().sparse_rows])


class QuotientSpace(Frozen):
    """Ambient space modulo a relation subspace, with canonical coordinates.

    Quotient coordinates are the non-pivot columns of the relation RREF in
    increasing order: the class of a vector is its residue read there.
    """

    relations: Subspace
    coset_basis: tuple
    _at: dict  # coset column -> quotient coordinate
    __slots__ = ("relations", "coset_basis", "_at")

    def __init__(self, relations: Subspace):
        pivots = set(relations.pivots())
        coset_basis = tuple(c for c in range(relations.ambient_dim) if c not in pivots)
        Frozen.__init__(self, relations, coset_basis, {c: k for k, c in enumerate(coset_basis)})

    @property
    def ambient_dim(self) -> int:
        return self.relations.ambient_dim

    @property
    def field(self) -> Field:
        return self.relations.field

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.relations.dim

    def project_sparse(self, pairs) -> tuple:
        """The class of a sparse vector as the sorted nonzero (k, value)
        pairs of its quotient coordinates: its residue, read at the coset
        generators."""
        at = self._at
        return tuple(sorted((at[c], x) for c, x in self.relations.residue(pairs).items()))

    def project(self, v) -> tuple:
        return dense_vec(self.field, self.dim, self.project_sparse(self.relations._sparse(v)))

    def projection_map(self) -> Matrix:
        one = self.field.one()
        return Matrix.from_columns(self.field, self.dim, [
            self.project_sparse(((j, one),)) for j in range(self.ambient_dim)])


def quotient(field: Field, ambient_dim: int, relations) -> QuotientSpace:
    return QuotientSpace(Subspace.span(field, ambient_dim, relations))


def _not_well_defined(r, w):
    return NotWellDefined("map does not descend to the quotient", witness=(r, w))


def induced_map(f, src: QuotientSpace, dst: QuotientSpace,
                error=_not_well_defined) -> Matrix:
    """The map on quotient coordinates, provided f (a ``Matrix`` or its
    sparse columns) carries relations into relations: column k is the class
    of f at the k-th coset generator of ``src``.  The first relation row r
    whose image w leaves the relations of ``dst`` raises ``error(r, w)``."""
    cols = f.sparse_cols if isinstance(f, Matrix) else f
    if len(cols) != src.ambient_dim or isinstance(f, Matrix) and f.rows != dst.ambient_dim:
        raise DimensionError("map does not connect the two ambient spaces")
    field = dst.field
    for row in src.relations.sparse_rows:
        w = linear(field, cols, row)
        if w and not dst.relations.contains_sparse(w):
            raise error(dense_vec(field, src.ambient_dim, row), dense_vec(field, dst.ambient_dim, w))
    return Matrix.from_columns(field, dst.dim, [dst.project_sparse(cols[c]) for c in src.coset_basis])


def exact(f: Matrix, g: Matrix) -> bool:
    """Whether im f = ker g for f: A -> B and g: B -> C: g after f is zero and
    rank f + rank g = dim B, an inclusion and a dimension count, so no kernel
    basis is formed."""
    return g.compose(f).is_zero() and f.rank() + g.rank() == f.rows


class Snake(NamedTuple):
    """``snake``'s verdicts and maps, from ker alpha to coker gamma."""

    lands: bool               # the images lie in ker beta
    exact_ker_beta: bool      # and span ker beta & ker g
    into_ker_gamma: bool      # g carries ker beta into ker gamma
    delta: Matrix | None      # ker gamma -> coker alpha, None when a lift fails
    exact_ker_gamma: bool     # g(ker beta) = ker delta
    coker_f: Matrix | None    # F, induced by f', None when it does not descend
    coker_g: Matrix | None    # G, induced by g', likewise
    exact_coker_alpha: bool   # im delta = ker F
    exact_coker_beta: bool    # im F = ker G
    onto_coker_gamma: bool    # G is onto


def snake(f: Matrix, g: Matrix, lower_f: Matrix, lower_g: Matrix, alpha: Matrix, beta: Matrix,
          gamma: Matrix) -> Snake:
    """The snake lemma on the map of rows A -> B -> C (f, g) into
    A' -> B' -> C' (``lower_f``, ``lower_g``) with columns alpha, beta, gamma,
    every term read off those seven maps: the kernels are the columns'
    kernels, f carries the basis rows of ker alpha into B, and each cokernel
    is its column's codomain modulo the column's image.  delta lifts each
    basis row of ker gamma through g, sends it along beta and reads its
    preimage through f' in coker alpha.  Every joint is ``exact``, an
    inclusion and a dimension count; at ker beta and ker gamma, once the
    images lie in ker beta and g carries ker beta into ker gamma, the maps
    there are read in those kernels' bases, a vector at the kernel's
    pivots."""
    field = beta.field
    middle, kernel = beta.kernel(), gamma.kernel()
    coker_alpha, coker_beta, coker_gamma = (QuotientSpace(m.image()) for m in (alpha, beta, gamma))

    def at(space, vectors):  # vectors of ``space`` as the columns of their coordinates
        return Matrix.from_columns(field, space.dim, [[(i, v[p]) for i, p in enumerate(space.pivots()) if p in v]
                                                      for v in map(dict, vectors)])

    def descend(m, src, dst):
        try:
            return induced_map(m, src, dst)
        except NotWellDefined:
            return None

    images = [linear(field, f.sparse_cols, r) for r in alpha.kernel().sparse_rows]
    onward = [sorted(linear(field, g.sparse_cols, r)) for r in middle.sparse_rows]  # g on ker beta
    lands = all(middle.contains_sparse(c) for c in images)
    into_kernel = all(kernel.contains_sparse(c) for c in onward)
    lifts = [g.preimage_sparse(r) for r in kernel.sparse_rows]
    reads = [None if x is None else lower_f.preimage_sparse(linear(field, beta.sparse_cols, x)) for x in lifts]
    delta = None if None in reads else Matrix.from_columns(field, coker_alpha.dim,
                                                           map(coker_alpha.project_sparse, reads))
    big_f, big_g = descend(lower_f, coker_alpha, coker_beta), descend(lower_g, coker_beta, coker_gamma)
    return Snake(lands, lands and exact(at(middle, images), Matrix.from_columns(field, g.rows, onward)), into_kernel,
                 delta, into_kernel and delta is not None and exact(at(kernel, onward), delta), big_f, big_g,
                 None not in (delta, big_f) and exact(delta, big_f), None not in (big_f, big_g) and exact(big_f, big_g),
                 big_g is not None and big_g.is_surjective())
