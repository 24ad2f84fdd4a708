"""Hom-associative algebras and their degree-one Hochschild invariants.

An algebra caches its product table and twist columns in sparse form
(``sparse_p``, ``sparse_twist``); validation runs ``linalg.check_laws`` on
multiplicativity and Hom-associativity, stated as data, over the basis
tuples where a side can be nonzero, in order.

From an algebra A with product p and twist t, the degree-three Hochschild
boundary sends a (x) b (x) c to  ab (x) t(c) - t(a) (x) bc + ca (x) t(b).
The quotient of A (x) A by its image carries a Hom-Leibniz bracket
(commutator in each leg) and a map phi onto the commutator subspace [A, A];
the kernel of phi is the first Hochschild homology.  The Milnor-type
variant divides A (x) A by two further commutator-shaped families, stated
as ``linalg.law_rows`` data on pure tensors.  The boundary itself stays a
map with one column per basis triple, zero columns included.  The
exact-sequence certificate ties all of these together through three tensor
products and a snake construction, with every joint checked by exact rank
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import AlphaIdentityFails, FieldMismatch, InternalInconsistency, NotWellDefined, StructureError
from .actions import HomAction, MutualActions, bracket_mutual, induced_action
from .algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    certified_quotient,
    commutator,
    derived_subspace,
    ideal_closure,
    quotient_algebra,
    subalgebra,
)
from .fields import Field
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    _expand_kernel,
    check_laws,
    connecting_map,
    contract,
    dense_vec,
    induced_map,
    law_rows,
    outer,
    quotient,
    sparse_columns,
    sparse_table,
    tensor_table,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
    vec_zero,
)
from .report import ExactnessReport, ValidationReport
from .tensorprod import build_tensor, factor_maps, induced_tensor_map


@dataclass(frozen=True)
class HomAssociativeAlgebra:
    field: Field
    dim: int
    p: tuple  # p[i][j] = coordinates of the product of basis vectors i, j
    twist: Matrix
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise StructureError("label count does not match dimension")
        if len(self.p) != self.dim or any(len(row) != self.dim for row in self.p):
            raise StructureError("product table must be dim x dim")
        if any(len(v) != self.dim for row in self.p for v in row):
            raise StructureError("product values must be coordinate vectors")
        if (self.twist.rows, self.twist.cols) != (self.dim, self.dim):
            raise StructureError("twist matrix must be dim x dim")
        if self.twist.field != self.field:
            raise FieldMismatch("twist matrix over the wrong field")

    @staticmethod
    def from_products(field: Field, dim: int, products: dict, twist=None, labels=None) -> "HomAssociativeAlgebra":
        table = [[vec_zero(field, dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), val in products.items():
            table[i][j] = dense_vec(field, dim, ((k, field.from_int(c) if isinstance(c, int) else c)
                                                 for k, c in val.items()))
        tw = twist if twist is not None else Matrix.identity(field, dim)
        labels = tuple(labels) if labels else tuple(f"a{i + 1}" for i in range(dim))
        return HomAssociativeAlgebra(field, dim, tuple(tuple(r) for r in table), tw, labels)

    def unit(self, i) -> tuple:
        return unit_vec(self.field, self.dim, i)

    # the product table and twist columns in the one sparse form, built once
    sparse_p = cached_property(lambda self: sparse_table(self.p))
    sparse_twist = cached_property(lambda self: sparse_columns(self.twist))

    def product(self, x, y) -> tuple:
        return contract(self.field, self.sparse_p, x, y, self.dim)

    def commutator_vec(self, x, y) -> tuple:
        f = self.field
        return vec_sub(f, self.product(x, y), self.product(y, x))

    def apply_twist(self, x) -> tuple:
        return self.twist.apply(x)

    def is_commutative(self) -> bool:
        return all(self.p[i][j] == self.p[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def validate(self) -> ValidationReport:
        """The twist and hom-associativity laws on all basis tuples, checked
        once per algebra; the report is shared, so callers only read it."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        rep = ValidationReport(subject="hom-associative algebra")
        f, p, tw, lb, n = self.field, self.sparse_p, self.sparse_twist, self.labels, self.dim
        check_laws(f, rep, (n, n), [
            # t(xy) = t(x) t(y)
            ((n, n), [("multiplicativity", ((lb, 0), (lb, 1)), [(tw, (p, 0, 1))], [(p, (tw, 0), (tw, 1))])]),
            # t(x) (yz) = (xy) t(z)
            ((n, n, n), [("hom-associativity", ((lb, 0), (lb, 1), (lb, 2)),
                          [(p, (tw, 0), (p, 1, 2))], [(p, (p, 0, 1), (tw, 2))])])])
        rep.flags["commutative"] = self.is_commutative()
        return rep

    def require_valid(self) -> "HomAssociativeAlgebra":
        self.validate().require(
            lambda v: StructureError(f"invalid hom-associative algebra: {v.law} at {v.witness}"))
        return self


def yau_twist_assoc(A: HomAssociativeAlgebra, endo: Matrix) -> HomAssociativeAlgebra:
    """Twist an associative algebra (identity twist) along an algebra
    endomorphism: the new product is endo applied to the old product."""
    if A.twist != Matrix.identity(A.field, A.dim):
        raise StructureError("twisting requires an associative algebra with identity twist")
    # endo preserves the product exactly when it is a multiplicative twist of it
    for v in HomAssociativeAlgebra(A.field, A.dim, A.p, endo, A.labels).validate().violations:
        if v.law == "multiplicativity":
            raise StructureError(f"map is not an algebra endomorphism at {v.witness}")
    table = tuple(tuple(endo.apply(A.p[i][j]) for j in range(A.dim)) for i in range(A.dim))
    return HomAssociativeAlgebra(A.field, A.dim, table, endo, A.labels)


def to_leibniz(A: HomAssociativeAlgebra) -> HomLeibnizAlgebra:
    """The commutator algebra: bracket xy - yx with the same twist."""
    table = tuple(tuple(A.commutator_vec(A.unit(i), A.unit(j)) for j in range(A.dim))
                  for i in range(A.dim))
    return HomLeibnizAlgebra(A.field, A.dim, table, A.twist, A.labels)


def hochschild_boundary(A: HomAssociativeAlgebra) -> Matrix:
    """The degree-three boundary A (x) A (x) A -> A (x) A, columns over basis
    triples in row-major order."""
    f = A.field
    size = A.dim * A.dim
    shapes = _boundary_shapes(A, A.p, lambda u, v: outer(f, u, v, size))
    return Matrix.from_columns(f, size, shapes)


def _boundary_shapes(A: HomAssociativeAlgebra, table, tens):
    """p(a,b) (x) t(c) - t(a) (x) p(b,c) + p(c,a) (x) t(b) over basis triples
    (a, b, c) in row-major order, for the bilinear map p with values
    table[i][j] on basis pairs and the pure-tensor embedding ``tens``."""
    f = A.field
    n = A.dim
    tw = [A.apply_twist(A.unit(i)) for i in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = vec_sub(f, tens(table[a][b], tw[c]), tens(tw[a], table[b][c]))
                yield vec_add(f, v, tens(table[c][a], tw[b]))


@dataclass(frozen=True)
class HochschildModule:
    parent: HomAssociativeAlgebra
    commutator_algebra: HomLeibnizAlgebra   # A with the commutator bracket
    boundary: Matrix                        # degree-three Hochschild boundary
    presentation: QuotientSpace             # A (x) A modulo the boundary image
    algebra: HomLeibnizAlgebra              # the quotient with its bracket and twist
    phi: Matrix                             # quotient -> A, class of a (x) b to ab - ba
    commutator_space: Subspace              # [A, A] inside A

    @property
    def first_homology_dim(self) -> int:
        return self.algebra.dim - self.commutator_space.dim

    def first_homology(self) -> Subspace:
        return self.phi.kernel()


def hochschild_module(A: HomAssociativeAlgebra) -> HochschildModule:
    """The quotient of A (x) A by the boundary image, as a Hom-Leibniz algebra
    with the commutator-by-commutator bracket, plus the evaluation onto the
    commutator subspace.  Well-definedness of bracket, twist and evaluation
    on the quotient is certified."""
    f = A.field
    n = A.dim
    size = n * n
    lb = to_leibniz(A)
    b3 = hochschild_boundary(A)
    pres = QuotientSpace(b3.image())
    fold = lb.bracket_map()
    # phi is the fold on classes, so the fold must kill the boundary image;
    # the bracket factors through it on both legs
    phi = induced_map(fold, pres, quotient(f, n, ()), lambda r, w: InternalInconsistency(
        "evaluation does not kill the boundary image"))
    labels = [f"{A.labels[g // n]}#{A.labels[g % n]}" for g in pres.coset_basis]
    algebra = certified_quotient(pres, fold, fold, A.twist.kron(A.twist), labels)
    comm_space = derived_subspace(lb)
    if phi.image() != comm_space:
        raise InternalInconsistency("evaluation image differs from the commutator subspace")
    return HochschildModule(A, lb, b3, pres, algebra, phi, comm_space)


def cyclic_identity_holds(h: HochschildModule) -> bool:
    """[a,b] (x) t(c) - t(a) (x) [b,c] + [c,a] (x) t(b) lies in the boundary
    image, for all basis triples."""
    A = h.parent
    f = A.field
    size = A.dim * A.dim
    shapes = _boundary_shapes(A, h.commutator_algebra.c, lambda u, v: outer(f, u, v, size))
    return all(h.presentation.relations.contains(v) for v in shapes)


def boundary_ideal_agreement(A: HomAssociativeAlgebra) -> AlgebraHom:
    """The boundary quotient arises from the tensor square of the commutator
    algebra by dividing out the two-sided twist-stable ideal generated by
    the boundary-shaped elements  ab * t(c) - t(a) * bc + ca * t(b)
    instantiated through both generator blocks; this builds both sides and
    returns the verified isomorphism.

    The description holds on noncommutative instances.  A commutative
    algebra has an abelian commutator algebra with trivial adjoint actions,
    its tensor square splits into two unidentified copies, and the quotient
    stays strictly bigger than the boundary quotient; that mismatch raises
    here and is expected.
    """
    f = A.field
    n = A.dim
    h = hochschild_module(A)
    t = build_tensor(MutualActions.adjoint(h.commutator_algebra))
    T = t.algebra

    # ideal generated by the boundary shapes, through both generator blocks,
    # inside the tensor square
    shapes = zip(_boundary_shapes(A, A.p, t.embed_mn), _boundary_shapes(A, A.p, t.embed_nm))
    ideal = ideal_closure(T, (t.presentation.project(v) for pair in shapes for v in pair))

    quot, _ = quotient_algebra(T, IdealHandle(T, ideal))
    if quot.dim != h.algebra.dim:
        raise InternalInconsistency(
            "tensor-square quotient has a different dimension than the boundary quotient")

    # generator comparison: both tensor blocks evaluate to plain tensor
    # classes, and both are row-major in (first leg, second leg) like A (x) A
    on_square = induced_map(Matrix.from_columns(f, n * n, Matrix.identity(f, n * n).entries * 2),
                            t.presentation, h.presentation)
    iso = AlgebraHom(quot, h.algebra, induced_map(
        on_square, QuotientSpace(ideal), quotient(f, h.algebra.dim, ()),
        lambda r, w: InternalInconsistency("comparison does not kill the boundary ideal")))
    iso.validate().require(
        lambda v: InternalInconsistency("comparison map is not a homomorphism", witness=v.witness))
    if not (iso.map.is_injective() and iso.map.is_surjective()):
        raise InternalInconsistency("comparison map is not bijective")
    return iso


def alpha_identity_witness(A: HomAssociativeAlgebra):
    """None when commutators of A with the image of (twist - identity)
    vanish, else a witnessing pair of basis indices."""
    f = A.field
    shift = A.twist.sub(Matrix.identity(f, A.dim))
    img = shift.image()
    for i in range(A.dim):
        ei = A.unit(i)
        for w in img.basis.entries:
            if not vec_is_zero(f, A.commutator_vec(ei, w)):
                return (A.labels[i], w)
    return None


def alpha_identity_holds(A: HomAssociativeAlgebra) -> bool:
    return alpha_identity_witness(A) is None


def milnor_relations(h: HochschildModule) -> Subspace:
    """Boundary image plus t(a) (x) [b,c] and [a,b] (x) t(c) over basis
    triples (a, b, c), as ``linalg.law_rows`` data."""
    A, lb = h.parent, h.commutator_algebra
    f, n, tw, c = A.field, A.dim, A.sparse_twist, lb.sparse_c
    tens = tensor_table(f, n, n)
    rows = law_rows(f, [((n, n, n), [("t(a) (x) [b,c]", (), [(tens, (tw, 0), (c, 1, 2))], []),
                                     ("[a,b] (x) t(c)", (), [(tens, (c, 0, 1), (tw, 2))], [])])])
    return h.presentation.relations.add(Subspace.span_sparse(f, n * n, rows))


@dataclass(frozen=True)
class FirstHomologies:
    hh1_alpha_dim: int
    hh1_milnor_dim: int
    alpha_identity_holds: bool
    quotient_dim: int
    commutator_dim: int

    def to_dict(self) -> dict:
        return {
            "hh1_alpha_dim": self.hh1_alpha_dim,
            "hh1_milnor_dim": self.hh1_milnor_dim,
            "alpha_identity_holds": self.alpha_identity_holds,
            "commutator_quotient_dim": self.quotient_dim,
            "commutator_dim": self.commutator_dim,
        }


def first_homologies(h: HochschildModule) -> FirstHomologies:
    A = h.parent
    milnor = A.dim * A.dim - milnor_relations(h).dim
    return FirstHomologies(
        hh1_alpha_dim=h.first_homology_dim,
        hh1_milnor_dim=milnor,
        alpha_identity_holds=alpha_identity_holds(A),
        quotient_dim=h.algebra.dim,
        commutator_dim=h.commutator_space.dim,
    )


def action_on_quotient(h: HochschildModule) -> HomAction:
    """The commutator algebra acting on the quotient algebra:
        a . (x # y) = [a,x] # t(y) - [a,y] # t(x)
        (x # y) . a = [x,a] # t(y) + t(x) # [y,a]
    certified to descend and to satisfy the action identities."""
    A = h.parent
    lb = h.commutator_algebra
    f = A.field
    n = A.dim
    size = n * n
    tw = [A.apply_twist(A.unit(i)) for i in range(n)]

    def columns(a):
        # both actions of the actor basis vector a on A (x) A
        return ([vec_sub(f, outer(f, lb.c[a][x], tw[y], size), outer(f, lb.c[a][y], tw[x], size))
                 for x in range(n) for y in range(n)],
                [vec_add(f, outer(f, lb.c[x][a], tw[y], size), outer(f, tw[x], lb.c[y][a], size))
                 for x in range(n) for y in range(n)])

    action = induced_action(lb, h.algebra, h.presentation, columns, lambda r, w: InternalInconsistency(
        "action does not descend to the quotient"))
    action.validate().require(
        lambda v: InternalInconsistency(f"quotient action identity {v.law} fails at {v.witness}"))
    return action


def action_of_quotient(h: HochschildModule) -> HomAction:
    """The quotient algebra acting on the commutator algebra through the
    evaluation: (x # y) . a = [[x,y], a] and a . (x # y) = [a, [x,y]]."""
    lb = h.commutator_algebra
    left = tuple(
        tuple(lb.bracket(h.phi.col(k), lb.unit(j)) for j in range(lb.dim))
        for k in range(h.algebra.dim))
    right = tuple(
        tuple(lb.bracket(lb.unit(j), h.phi.col(k)) for k in range(h.algebra.dim))
        for j in range(lb.dim))
    return HomAction(h.algebra, lb, left, right)


def sequence_check(h: HochschildModule) -> ExactnessReport:
    """Five-joint exactness certificate for the degree-one Hochschild
    comparison sequence of the algebra A = ``h.parent``

        A*H -> Ker(A*Q -> Q) -> Ker(A*C -> C) -> H -> Milnor -> C/[A,C] -> 0

    where Q is the boundary quotient algebra, H the kernel of its evaluation
    (the first Hochschild homology, an abelian algebra), C the commutator
    subalgebra, and Milnor the Milnor-type quotient.  Requires the
    twist-identity condition, checked before anything is read from ``h``;
    certifies the two cokernel identifications and every joint by exact
    ranks.
    """
    A = h.parent
    A.require_valid()
    f = A.field
    n = A.dim
    wit = alpha_identity_witness(A)
    if wit is not None:
        raise AlphaIdentityFails(
            f"commutator of {wit[0]} with a twist-shift value is nonzero", witness=wit)
    rep = ExactnessReport(subject="hochschild comparison sequence")
    lb = h.commutator_algebra
    rep.dims["quotient algebra"] = h.algebra.dim
    rep.dims["commutator subspace"] = h.commutator_space.dim
    rep.dims["first homology"] = h.first_homology_dim

    ma_q = MutualActions(action_on_quotient(h), action_of_quotient(h))
    rep.check("mutual actions compatible", ma_q.is_compatible())
    t_aq = build_tensor(ma_q)
    rep.dims["tensor with quotient"] = t_aq.algebra.dim

    # commutator subalgebra with its bracket actions
    C_sub, incl_c = subalgebra(lb, h.commutator_space, "c")
    id_a = AlgebraHom(lb, lb, Matrix.identity(f, lb.dim))
    t_ac = build_tensor(bracket_mutual(lb, (lb, id_a), (C_sub, incl_c)))
    rep.dims["tensor with commutator"] = t_ac.algebra.dim

    # first homology as an abelian algebra with restricted twist, trivial actions
    H_space = h.first_homology()
    hdim = H_space.dim
    h_twist_cols = []
    for v in H_space.basis.entries:
        q = H_space.coordinates(h.algebra.apply_twist(v))
        if q is None:
            raise InternalInconsistency("twist does not preserve the first homology")
        h_twist_cols.append(q)
    H_alg = HomLeibnizAlgebra(
        f, hdim,
        tuple(tuple(vec_zero(f, hdim) for _ in range(hdim)) for _ in range(hdim)),
        Matrix.from_columns(f, hdim, h_twist_cols),
        tuple(f"z{i + 1}" for i in range(hdim)))
    ma_h = MutualActions.trivial(lb, H_alg)
    t_ah = build_tensor(ma_h)
    rep.dims["tensor with first homology"] = t_ah.algebra.dim

    # row maps: include the homology, then evaluate through phi
    incl_h = AlgebraHom(H_alg, h.algebra, H_space.basis.transpose())
    rep.check("homology includes as a homomorphism", incl_h.is_homomorphism())

    def in_c(v, message):
        q = incl_c.map.preimage(v)
        if q is None:
            raise InternalInconsistency(message)
        return q

    phi_cols = [in_c(v, "evaluation leaves the commutator subalgebra") for v in h.phi.transpose().entries]
    phi_hom = AlgebraHom(h.algebra, C_sub, Matrix.from_columns(f, C_sub.dim, phi_cols))
    rep.check("evaluation is a homomorphism onto the commutator subalgebra",
              phi_hom.is_homomorphism())
    big_f = induced_tensor_map(id_a, incl_h, t_ah, t_aq)
    big_g = induced_tensor_map(id_a, phi_hom, t_aq, t_ac)
    rep.check("tensored evaluation surjective", big_g.map.is_surjective())
    rep.check("tensor row exact in the middle", big_f.map.image() == big_g.map.kernel())

    # columns: evaluation of each tensor product onto its second factor
    col_q = factor_maps(t_aq, second_only=True)
    col_c = factor_maps(t_ac, second_only=True)
    col_h = factor_maps(t_ah, second_only=True)
    rep.check("column over the homology tensor vanishes", col_h.map.is_zero())
    rep.check("column vanishes on the included homology tensor",
              col_q.map.compose(big_f.map).is_zero())

    # cokernel identifications
    im_col_q_ambient = Subspace.span(
        f, n * n,
        [h.presentation.lift(v) for v in t_aq.eval_n.transpose().entries])
    milnor = milnor_relations(h)
    extra = im_col_q_ambient.add(h.presentation.relations)
    rep.check("middle cokernel matches the Milnor-type homology", extra == milnor)
    im_col_c = col_c.map.image()
    two_sided = commutator(IdealHandle(lb, h.commutator_space),
                           IdealHandle(lb, Subspace.full(f, lb.dim)))
    two_sided_in_c = Subspace.span(
        f, C_sub.dim, [in_c(v, "vector does not lie in the subalgebra")
                       for v in two_sided.basis.entries])
    rep.check("right cokernel matches the commutator quotient", im_col_c == two_sided_in_c)
    coker_c = QuotientSpace(im_col_c)
    rep.dims["commutator modulo inner"] = coker_c.dim

    # snake joints
    k_q = col_q.map.kernel()
    k_c = col_c.map.kernel()
    rep.dims["kernel over quotient tensor"] = k_q.dim
    rep.dims["kernel over commutator tensor"] = k_c.dim

    # joint 1: image of the homology tensor inside the quotient-tensor kernel
    im_f_cols = big_f.map.transpose().entries
    rep.check("homology tensor lands in the kernel", all(k_q.contains(c) for c in im_f_cols))
    im_f = Subspace.span(f, t_aq.algebra.dim, im_f_cols)
    rep.check("exact at the quotient-tensor kernel",
              im_f == k_q.intersect(big_g.map.kernel()))

    # joint 2: image of the kernel over the quotient tensor in the next kernel
    im_k_cols = [big_g.map.apply(v) for v in k_q.basis.entries]
    rep.check("kernels map onward", all(k_c.contains(c) for c in im_k_cols))

    # connecting map into the homology
    delta = connecting_map(k_c, big_g.map, col_q.map, H_space.coordinates, hdim)
    rep.check("connecting lifts exist", delta is not None)
    if delta is None:
        return rep
    im_k = Subspace.span(f, t_ac.algebra.dim, im_k_cols)
    ker_delta = _expand_kernel(delta, k_c)
    rep.check("exact at the commutator-tensor kernel", im_k == ker_delta)

    # map from the homology into the Milnor quotient
    milnor_q = QuotientSpace(milnor)
    to_milnor_cols = [milnor_q.project(h.presentation.lift(v)) for v in H_space.basis.entries]
    to_milnor = Matrix.from_columns(f, milnor_q.dim, to_milnor_cols)
    im_delta = delta.image()
    ker_to_milnor = to_milnor.kernel()
    rep.check("exact at the first homology", im_delta == ker_to_milnor)

    # map from the Milnor quotient onto the commutator cokernel, induced by
    # the commutator fold into the commutator subalgebra; the Milnor
    # relations must evaluate into the inner commutators for it to descend
    fold_c = Matrix.from_columns(f, C_sub.dim, [in_c(v, "vector does not lie in the subalgebra")
                                                for row in lb.c for v in row])
    try:
        to_coker = induced_map(fold_c, milnor_q, coker_c)
    except NotWellDefined:
        to_coker = None
    rep.check("commutator map descends to the Milnor quotient", to_coker is not None)
    if to_coker is None:
        return rep
    # exactness at the Milnor term
    im_to_m = to_milnor.image()
    ker_to_c = to_coker.kernel()
    rep.check("exact at the Milnor-type homology", im_to_m == ker_to_c)
    rep.check("onto the commutator cokernel", to_coker.rank() == coker_c.dim)
    return rep
