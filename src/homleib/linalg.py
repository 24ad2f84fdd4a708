"""Exact linear algebra on one elimination engine: subspaces, kernels,
images, preimages, quotient spaces and induced maps.

Everything is immutable after construction and all arithmetic is exact;
equality of values is field equality, never approximate.  Vectors are plain
tuples of scalars, matrices are tuples of row tuples.  A ``Matrix`` is the
one linear-map type: column j is the image of basis vector j, and its shape
is the only record of the map's domain and codomain.  Subspace bases are
kept in canonical reduced row echelon form with pivots in increasing column
order, so equal subspaces compare equal as data and every reported basis is
deterministic; a subspace's ambient dimension is its basis's column count,
and a quotient's is its relations'.

``RrefAccumulator`` is the one elimination engine, a sparse incremental
RREF that takes each vector as the (column, value) pairs of its nonzero
coordinates: it builds every span (``Subspace.span`` of dense vectors,
``Subspace.span_sparse`` of sparse rows), and each ``Matrix`` factors once
through it (the RREF of [M | I]) for its rank, kernel, preimages and
section.

Every structure in the library is a bilinear map on coordinate spaces, and
one small vector-kernel layer serves them all, with the maps between
presentations:

* each structure caches its tables (brackets, actions, products) once in
  sparse form: ``sparse_table`` keeps the nonzero (k, value) pairs of each
  value table[i][j], ``sparse_columns`` those of each column of a twist;
* ``contract`` contracts a sparse table at two dense vectors, and
  ``linear`` applies sparse columns to a sparse vector;
* a law, or a family of relations, is data: signed lists of bilinear and
  linear terms in such tables on basis indices.  From that data one rule
  finds the instances where a term can be nonzero, by sparsity, and one
  evaluator forms each instance's signed sum, multiplying by no factor that
  is the field's one.  ``check_laws``, the one identity checker, records
  each instance whose sum is nonzero; ``law_rows``, the one relation
  generator, yields each sum as a sparse row;
* ``tensor_table`` states a row-major block of pure tensors as a sparse
  table, so a relation term u (x) v is a bilinear term; ``outer`` embeds a
  dense pure tensor in such a block, and ``Matrix.kron`` is the map
  u (x) v -> f(u) (x) g(v) of two maps;
* ``unit_vec`` is a basis vector; ``sparse_vec`` and ``dense_vec`` convert
  between a dense vector and its nonzero (index, value) pairs;
* ``Subspace.coordinates`` reads a vector's coordinates off the RREF basis
  and ``Matrix.preimage`` reads a solution off the factor and rechecks
  it; both return None for a vector outside the subspace or image, and each
  caller raises its own error;
* ``induced_map`` is the one descent certificate, and every map out of a
  presentation is one: it checks that the ambient map carries each relation
  row into the target's relations, raising ``error(r, w)`` for the first row
  r whose image w does not, then projects the image of each coset
  generator.  A map into a plain space has the relation-free target
  ``quotient(field, n, ())``;
* ``connecting_map`` is the snake map of an exactness certificate: lift
  along a row map, push down a column map, read in the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from itertools import product
from math import prod
from operator import mul, or_

from .errors import DimensionError, FieldMismatch, NotWellDefined
from .fields import Field


def vec_zero(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def vec_add(field: Field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field: Field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field: Field, c, v):
    return tuple(field.mul(c, a) for a in v)


def vec_is_zero(field: Field, v) -> bool:
    return not any(v)


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


def sparse_columns(m: Matrix) -> tuple:
    """The columns of a matrix, each as its nonzero (k, value) pairs."""
    return tuple(sparse_vec(c) for c in m.transpose().entries)


def linear(field: Field, cols, u) -> list:
    """The linear map with sparse columns ``cols`` at the sparse vector u."""
    zero = field.zero()
    out = {}
    for i, a in u:
        for k, t in cols[i]:
            out[k] = field.add(out.get(k, zero), field.mul(a, t))
    return [(k, x) for k, x in out.items() if x]


def contract(field: Field, table, x, y, dim: int) -> tuple:
    """The sum of x_i y_j table[i][j] at dense x, y, as a dense length-dim vector."""
    out = [field.zero()] * dim
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    coeff = field.mul(xi, yj)
                    for k, t in row[j]:
                        out[k] = field.add(out[k], field.mul(coeff, t))
    return tuple(out)


def tensor_table(field: Field, rows: int, cols: int, offset: int = 0) -> tuple:
    """A row-major block of pure tensors as a sparse table: the term
    (table, u, v) is u (x) v, with e_a (x) e_b at offset + a * cols + b."""
    one = field.one()
    return tuple(tuple(((offset + a * cols + b, one),) for b in range(cols)) for a in range(rows))


def _term(term) -> tuple:
    """A term of a law as (table, u, p, r, v, q, s): its first leg is
    u[idx[p]], or u[idx[p]][idx[r]] where r is not None, and v, q, s its
    second leg the same way (v None for a linear term)."""
    table, (u, p, *r), *v = term
    (v, q, *s), = v or [(None, None)]
    return table, u, p, *(r or [None]), v, q, *(s or [None])


def _evaluator(field: Field):
    """row(plus, minus, idx): the signed sum, plus less minus, of ``_term``
    terms at idx, as coordinates that may hold zeros.  Each coordinate pair
    of a term adds (or subtracts) one product, and a factor that is the
    field's one is not multiplied, so a basis-vector leg or a
    ``tensor_table`` costs no product."""
    one, zero, mul, add, sub = field.one(), field.zero(), field.mul, field.add, field.sub

    def times(a, b):
        return b if a is one else a if b is one else mul(a, b)

    def row(plus, minus, idx):
        out = {}
        for op, terms in ((add, plus), (sub, minus)):
            for table, u, p, r, v, q, s in terms:
                u = u[idx[p]] if r is None else u[idx[p]][idx[r]]
                if v is None:
                    for a, x in u:
                        for k, t in table[a]:
                            out[k] = op(out.get(k, zero), times(x, t))
                    continue
                v = v[idx[q]] if s is None else v[idx[q]][idx[s]]
                for a, x in u:
                    line = table[a]
                    for b, y in v:
                        coeff = times(x, y)
                        for k, t in line[b]:
                            out[k] = op(out.get(k, zero), times(coeff, t))
        return out
    return row


def _instances(outer_dims: tuple, groups):
    """(idx, law) for each instance of the laws of ``groups`` where a term
    can be nonzero, in the order of ``check_laws``."""
    legs = {}
    runs = [_support(len(outer_dims), dims, laws, legs) for dims, laws in groups]
    for idx in product(*map(range, outer_dims)):
        for run in runs:
            yield from run(idx)


def check_laws(field: Field, report, outer_dims: tuple, groups) -> None:
    """Record in ``report`` every violated instance of a family of laws.

    A law is data, (name, witness, plus, minus[, detail]), stated on an index
    tuple idx.  ``plus`` and ``minus`` are lists of terms, (cols, u) for the
    linear map with sparse columns cols at u and (table, u, v) for the
    bilinear map with ``sparse_table`` table at u and v, each leg (vectors,
    p[, r]) naming vectors[idx[p]][idx[r]]; the witness is a tuple of
    (labels, p), naming labels[idx[p]], and ``detail`` a format string over
    the witness.  An instance is recorded exactly when its signed sum, plus
    less minus, is nonzero.

    The outer loop runs row-major over the index tuples of ``outer_dims``;
    inside it each (dims, laws) group runs in turn, row-major over the index
    tuples below ``dims`` that extend the outer one, and at each over its
    laws in order.  Only the instances where a term can be nonzero are
    evaluated, so the report is the full grid's: a linear term can be
    nonzero only if cols[a] is nonempty for some a in supp u, and a bilinear
    one only if table[a][b] is for some (a, b) in supp u x supp v."""
    row = _evaluator(field)
    for jdx, (name, witness, plus, minus, detail) in _instances(outer_dims, groups):
        if any(row(plus, minus, jdx).values()):
            labels = tuple(lb[jdx[p]] for lb, p in witness)
            report.record(name, labels, detail.format(*labels))


def law_rows(field: Field, groups):
    """Yield the rows of a family of relations stated as ``check_laws``
    data, with no outer loop: each group runs in full, in turn.  A row is
    the signed sum of an instance where a term can be nonzero, as the sorted
    (column, value) pairs of its nonzero coordinates; an instance whose
    terms cancel yields an empty row.  A relation's terms are pure tensors
    (``tensor_table``), so an instance is skipped exactly when each of its
    terms has an empty leg."""
    row = _evaluator(field)
    for jdx, (_, _, plus, minus, _) in _instances((), groups):
        yield tuple(sorted((k, x) for k, x in row(plus, minus, jdx).items() if x))


_MASK_BITS = 1 << 16  # the most index tuples one support bitmask covers


def _support(k: int, dims, laws, legs):
    """The instances of one ``check_laws`` group where a term can be nonzero,
    at an outer index tuple of length k: (idx, law) in order, the law with
    its terms in the form of ``_term``.  A set of index tuples is a bitmask
    over the trailing indices, at most ``_MASK_BITS`` of them, for one value
    of the leading ones at a time; ``legs`` keeps the masks of each leg, by
    group shape, for the whole call."""
    cut = 0
    while prod(dims[cut:]) > _MASK_BITS:
        cut += 1
    n = max(k, cut)  # the length of the index tuples a bitmask is read at
    spans = [prod(dims[p:]) for p in range(len(dims) + 1)]  # spans[p + 1]: the stride of index p
    full = (1 << spans[cut]) - 1
    if not full:
        return lambda outer: ()
    at = [None] * cut  # at[p][x]: where trailing index p is x
    for p in range(cut, len(dims)):
        run = spans[p + 1]
        base = full // ((1 << run * dims[p]) - 1) * ((1 << run) - 1)
        at.append([base << x * run for x in range(dims[p])])

    def where(idx, vectors, *pos):  # [(a, where a is in the support of the leg's vector)] at idx
        key = (dims, id(vectors), *pos)
        if key in legs:
            return legs[key]
        if min(pos) < cut:  # fix the leading indices at idx; not kept, as idx moves on
            key = None
            if len(pos) == 2 and pos[1] < cut:  # the column at the leading index
                vectors, pos = [row[idx[pos[1]]] for row in vectors], pos[:1]
            if pos[0] < cut:  # the vector, or the row, at the leading index
                vectors, pos = vectors[idx[pos[0]]], pos[1:]
            if not pos:
                return [(a, full) for a, _ in vectors]
        out, p, r = {}, at[pos[0]], at[pos[-1]]
        for x, y, vec in [(x, x, v) for x, v in enumerate(vectors) if v] if len(pos) == 1 else \
                [(x, y, v) for x, row in enumerate(vectors) for y, v in enumerate(row) if v]:
            here = p[x] & r[y]
            for a, _ in vec:
                out[a] = out.get(a, 0) | here
        if key:
            legs[key] = out.items()
        return out.items()

    def mask(idx, terms):  # where a term can be nonzero; a linear term is
        bits = 0           # a bilinear one with a constant second leg
        for table, u, *v in terms:
            left = where(idx, *u)
            if left:
                for b, there in where(idx, *v[0]) if v else [(None, full)]:
                    for a, here in left:
                        if table[a] if b is None else table[a][b]:
                            bits |= here & there
        return bits

    def law(q):  # law q with its terms in the form of ``_term``, built once
        if compiled[q] is None:
            name, witness, plus, minus, *detail = laws[q]
            compiled[q] = name, witness, [*map(_term, plus)], [*map(_term, minus)], "".join(detail)
        return compiled[q]

    terms, compiled, memo, rest = [law[2] + law[3] for law in laws], [None] * len(laws), [None], []
    heads, strides, block = list(product(*map(range, dims[k:cut]))), spans[cut + 1:n + 1], (1 << spans[n]) - 1

    def run(outer):
        for head in heads:
            idx = outer + head
            if memo[0] != idx[:cut]:
                masks = [mask(idx, t) for t in terms]
                memo[:] = idx[:cut], masks, reduce(or_, masks, 0)
            shift = sum(map(mul, idx[cut:], strides))
            union = memo[2] >> shift & block
            if union:
                live = [(bits >> shift, q) for q, bits in enumerate(memo[1]) if bits >> shift & union]
                if not rest:
                    rest.extend(product(*map(range, dims[n:])))
                while union:
                    low = union & -union
                    union ^= low
                    jdx = (*idx, *rest[low.bit_length() - 1])
                    for bits, q in live:
                        if bits & low:
                            yield jdx, law(q)
    return run


def outer(field: Field, u, v, size: int, offset: int = 0) -> tuple:
    """The pure tensor u (x) v in a coordinate space of the given size:
    u_i v_j sits at offset + i * len(v) + j, every other coordinate is zero."""
    out = [field.zero()] * size
    stride = len(v)
    for i, ui in enumerate(u):
        if not ui:
            continue
        base = offset + i * stride
        for j, vj in enumerate(v):
            if vj:
                out[base + j] = field.mul(ui, vj)
    return tuple(out)


@dataclass(frozen=True)
class Matrix:
    """A matrix and the linear map it gives: column j is the image of basis
    vector j, so a map from an n-space to an m-space is m x n.  Its rank,
    kernel, preimages and section read one factorization, built once."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = tuple(tuple(field.from_int(x) if isinstance(x, int) else x for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def from_columns(field: Field, rows: int, columns) -> "Matrix":
        """The map with the given columns, each of length ``rows``."""
        columns = list(columns)
        return Matrix(field, rows, len(columns), tuple(zip(*columns)) if columns else ((),) * rows)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, tuple((field.zero(),) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n, tuple(unit_vec(field, n, i) for i in range(n)))

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.field, self.cols, self.entries)

    def apply(self, v) -> tuple:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} does not match {self.cols} columns")
        f = self.field
        out = [f.zero()] * self.rows
        for j, c in enumerate(v):
            if not c:
                continue
            for i in range(self.rows):
                e = self.entries[i][j]
                if e:
                    out[i] = f.add(out[i], f.mul(e, c))
        return tuple(out)

    def compose(self, inner: "Matrix") -> "Matrix":
        """self after inner."""
        if self.field != inner.field:
            raise FieldMismatch("matrix product across different fields")
        if self.cols != inner.rows:
            raise DimensionError("composition shapes disagree")
        f = self.field
        cols = inner.transpose().entries
        out = []
        for r in self.entries:
            row = []
            for c in cols:
                acc = f.zero()
                for a, b in zip(r, c):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Matrix(f, self.rows, inner.cols, tuple(out))

    def kron(self, other: "Matrix") -> "Matrix":
        """The map u (x) v -> self(u) (x) other(v) of row-major tensor spaces."""
        f = self.field
        size = self.rows * other.rows
        return Matrix.from_columns(f, size, [outer(f, u, v, size) for u in self.transpose().entries
                                             for v in other.transpose().entries])

    def add(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrix sum across different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in sum")
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      tuple(vec_add(f, r, s) for r, s in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        g = other.field
        return self.add(Matrix(g, other.rows, other.cols,
                               tuple(vec_scale(g, g.neg(g.one()), r) for r in other.entries)))

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.entries)

    @cached_property
    def _factor(self) -> dict:
        """The RREF of [M | I], built once, as pivot column -> sparse row.

        A row whose pivot lies in M is a row of the RREF of M, and its I block
        holds the row operations that produced it; a row whose pivot lies in
        the I block is an equation of the image."""
        f = self.field
        n = self.cols
        acc = RrefAccumulator(f, n + self.rows)
        for i, r in enumerate(self.entries):
            acc.add(sparse_vec(r) + ((n + i, f.one()),))
        return acc.rows

    def rank(self) -> int:
        return sum(1 for p in self._factor if p < self.cols)

    def image(self) -> Subspace:
        return Subspace.span(self.field, self.rows, self.transpose().entries)

    def kernel(self) -> Subspace:
        """Spanned by one solution per free column of M: 1 there, minus that
        column of the RREF at the pivots."""
        f = self.field
        n = self.cols
        solved = [(p, row) for p, row in self._factor.items() if p < n]
        basis = []
        for c in range(n):
            if c in self._factor:
                continue
            v = [f.zero()] * n
            v[c] = f.one()
            for p, row in solved:
                if c in row:
                    v[p] = f.neg(row[c])
            basis.append(tuple(v))
        return Subspace.span(f, n, basis)

    def is_surjective(self) -> bool:
        return self.rank() == self.rows

    def is_injective(self) -> bool:
        return self.rank() == self.cols

    def preimage(self, v) -> tuple | None:
        """The exact solution of self.x = v with free variables zero,
        rechecked, or None off the image."""
        if len(v) != self.rows:
            raise DimensionError(f"vector length {len(v)} does not match {self.rows} rows")
        f = self.field
        n = self.cols
        x = [f.zero()] * n
        for p, row in self._factor.items():
            s = f.zero()
            for c, e in row.items():
                if c >= n and v[c - n]:
                    s = f.add(s, f.mul(e, v[c - n]))
            if p < n:
                x[p] = s
            elif s:
                return None
        x = tuple(x)
        return x if self.apply(x) == tuple(v) else None

    def section(self) -> "Matrix":
        """A right inverse on the image: columns are the preimages of e_k.

        Deterministic (free variables zero).  Raises if not surjective.
        """
        f = self.field
        cols = []
        for k in range(self.rows):
            x = self.preimage(unit_vec(f, self.rows, k))
            if x is None:
                raise NotWellDefined(f"no preimage for coordinate {k}; map is not surjective")
            cols.append(x)
        return Matrix.from_columns(f, self.cols, cols)


class RrefAccumulator:
    """Incremental reduced row echelon span builder.

    Rows are kept fully reduced against each other at all times, stored
    sparsely as {column: value}.  ``add`` takes a vector as the (column,
    value) pairs of its nonzero coordinates, reduces it and reports whether
    it enlarged the span.  The rows are always the reduced row echelon form
    of the vectors added.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: dict[int, dict[int, object]] = {}  # pivot col -> sparse row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, sv: dict) -> dict:
        f = self.field
        zero = f.zero()
        for c in sorted(sv):
            if c not in self.rows:
                continue
            coef = sv.get(c, zero)
            if not coef:
                continue
            for cc, val in self.rows[c].items():
                nv = f.sub(sv.get(cc, zero), f.mul(coef, val))
                if not nv:
                    sv.pop(cc, None)
                else:
                    sv[cc] = nv
        return sv

    def add(self, v) -> bool:
        f = self.field
        zero = f.zero()
        sv = self._reduce(dict(v))
        if not sv:
            return False
        pivot = min(sv)
        inv = f.inv(sv[pivot])
        sv = {c: f.mul(inv, x) for c, x in sv.items()}
        # back-substitute the new pivot into existing rows
        for row in self.rows.values():
            coef = row.get(pivot)
            if coef is None:
                continue
            for cc, val in sv.items():
                nv = f.sub(row.get(cc, zero), f.mul(coef, val))
                if not nv:
                    row.pop(cc, None)
                else:
                    row[cc] = nv
        self.rows[pivot] = sv
        return True

    def basis_matrix(self) -> Matrix:
        rows = tuple(dense_vec(self.field, self.ambient_dim, self.rows[pc].items())
                     for pc in sorted(self.rows))
        return Matrix(self.field, len(rows), self.ambient_dim, rows)


@dataclass(frozen=True)
class Subspace:
    """A subspace of a coordinate space, held as a canonical RREF basis."""

    basis: Matrix  # rows = basis vectors, reduced echelon, no zero rows
    # cached echelon data; identity is determined by the basis alone
    _pivots: tuple = dc_field(init=False, compare=False, repr=False)
    _sparse_rows: tuple = dc_field(init=False, compare=False, repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    def __post_init__(self):
        pivots = []
        sparse = []
        for r in self.basis.entries:
            support = sparse_vec(r)
            sparse.append(support)
            pivots.append(support[0][0] if support else -1)
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_sparse_rows", tuple(sparse))

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors) -> "Subspace":
        acc = RrefAccumulator(field, ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError(f"vector length {len(v)} in ambient dimension {ambient_dim}")
            acc.add(sparse_vec(v))
        return Subspace(acc.basis_matrix())

    @staticmethod
    def span_sparse(field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of sparse rows, each the (column, value) pairs of the
        nonzero coordinates of a vector; an empty row adds nothing."""
        acc = RrefAccumulator(field, ambient_dim)
        for row in rows:
            if row:
                acc.add(row)
        return Subspace(acc.basis_matrix())

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix(field, 0, ambient_dim, ()))

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(field, ambient_dim))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple:
        return self._pivots

    def _eliminate(self, v):
        """(c, w) with v = sum of c_k basis_k + w and w zero at every pivot."""
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} in ambient dimension {self.ambient_dim}")
        f = self.field
        w = list(v)
        coords = []
        for support, p in zip(self._sparse_rows, self._pivots):
            c = w[p]
            coords.append(c)
            if c:
                for j, x in support:
                    w[j] = f.sub(w[j], f.mul(c, x))
        return coords, w

    def reduce(self, v) -> tuple:
        """Canonical representative of v modulo this subspace (zeros at pivots)."""
        return tuple(self._eliminate(v)[1])

    def contains(self, v) -> bool:
        return not any(self._eliminate(v)[1])

    def coordinates(self, v) -> tuple | None:
        """Coordinates of v in the basis rows, or None when v lies outside."""
        coords, w = self._eliminate(v)
        return None if any(w) else tuple(coords)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace sum in different ambient spaces")
        return Subspace.span(self.field, self.ambient_dim,
                             list(self.basis.entries) + list(other.basis.entries))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("intersection in different ambient spaces")
        f = self.field
        h = self.dim
        # kernel elements (a, b) of the stacked bases give a.H + b.K = 0, so
        # a.H lies in both row spaces
        stacked = Matrix.from_columns(f, self.ambient_dim, self.basis.entries + other.basis.entries)
        combine = self.basis.transpose()
        return Subspace.span(f, self.ambient_dim,
                             [combine.apply(w[:h]) for w in stacked.kernel().basis.entries])


def connecting_map(kernel: Subspace, row: Matrix, column: Matrix, read,
                   target_dim: int) -> Matrix | None:
    """The connecting map on ``kernel``: each basis vector is lifted through
    ``row.preimage``, sent along ``column`` and read off by ``read`` (a
    function returning target coordinates or None).  None when some lift or
    read fails."""
    cols = []
    for v in kernel.basis.entries:
        x = row.preimage(v)
        q = None if x is None else read(column.apply(x))
        if q is None:
            return None
        cols.append(q)
    return Matrix.from_columns(kernel.field, target_dim, cols)


def _expand_kernel(mapping: Matrix, space: Subspace) -> Subspace:
    """The kernel of a map defined on coordinates in the basis of ``space``,
    as a subspace of the ambient space of ``space``."""
    f = space.field
    combine = space.basis.transpose()
    return Subspace.span(f, space.ambient_dim,
                         [combine.apply(w) for w in mapping.kernel().basis.entries])


@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo a relation subspace, with canonical coordinates.

    Quotient coordinates are the non-pivot columns of the relation RREF in
    increasing order; ``lift`` places coordinates there and zeros at pivots,
    so project(lift(q)) = q exactly.
    """

    relations: Subspace
    coset_basis: tuple = dc_field(init=False)

    @property
    def ambient_dim(self) -> int:
        return self.relations.ambient_dim

    def __post_init__(self):
        pivots = set(self.relations.pivots())
        object.__setattr__(self, "coset_basis",
                           tuple(c for c in range(self.ambient_dim) if c not in pivots))

    @property
    def field(self) -> Field:
        return self.relations.field

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.relations.dim

    def project(self, v) -> tuple:
        w = self.relations.reduce(v)
        return tuple(w[c] for c in self.coset_basis)

    def lift(self, q) -> tuple:
        if len(q) != self.dim:
            raise DimensionError("coordinate vector does not match quotient dimension")
        return dense_vec(self.field, self.ambient_dim, zip(self.coset_basis, q))

    def lift_unit(self, k) -> tuple:
        return unit_vec(self.field, self.ambient_dim, self.coset_basis[k])

    def projection_map(self) -> Matrix:
        f = self.field
        cols = [self.project(unit_vec(f, self.ambient_dim, j)) for j in range(self.ambient_dim)]
        return Matrix.from_columns(f, self.dim, cols)


def quotient(field: Field, ambient_dim: int, relations) -> QuotientSpace:
    return QuotientSpace(Subspace.span(field, ambient_dim, relations))


def _not_well_defined(r, w):
    return NotWellDefined("map does not descend to the quotient", witness=(r, w))


def induced_map(f: Matrix, src: QuotientSpace, dst: QuotientSpace,
                error=_not_well_defined) -> Matrix:
    """The map on quotient coordinates, provided f carries relations into
    relations: column k is the class of f at the k-th coset generator of
    ``src``.  The first relation row r whose image w leaves the relations of
    ``dst`` raises ``error(r, w)``."""
    if (f.rows, f.cols) != (dst.ambient_dim, src.ambient_dim):
        raise DimensionError("map does not connect the two ambient spaces")
    for r in src.relations.basis.entries:
        w = f.apply(r)
        if not dst.relations.contains(w):
            raise error(r, w)
    cols = [dst.project(f.apply(src.lift_unit(k))) for k in range(src.dim)]
    return Matrix.from_columns(f.field, dst.dim, cols)
