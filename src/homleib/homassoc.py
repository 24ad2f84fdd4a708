"""Hom-associative algebras and their degree-one Hochschild invariants.

An algebra holds its product table and twist columns only in sparse form
(``sparse_p``, ``twist.sparse_cols``), built by ``from_sparse`` with the dense
table and its view ``p`` only at the edges; validation runs ``check_laws`` on
multiplicativity and Hom-associativity, stated as data, over the basis
tuples where a side can be nonzero, in order.

From an algebra A with product p and twist t, the degree-three Hochschild
boundary sends a (x) b (x) c to  ab (x) t(c) - t(a) (x) bc + ca (x) t(b).
The quotient of A (x) A by its image carries a Hom-Leibniz bracket
(commutator in each leg) and a map phi onto the commutator subspace [A, A];
the kernel of phi is the first Hochschild homology.  The Milnor-type
variant divides A (x) A by two further commutator-shaped families.  The
boundary family and the Milnor families are ``linalg.law_rows`` data on
pure tensors, and every reader spans or tests their rows.  The
exact-sequence certificate ties all of these together through three tensor
products and a snake construction, with every joint checked by exact rank
arithmetic.
"""

from __future__ import annotations

from .errors import AlphaIdentityFails, InternalInconsistency, StructureError
from .actions import HomAction, MutualActions, bracket_mutual, induced_action
from .algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    _checked,
    _entry_table,
    IdealHandle,
    bracket_table,
    certified_quotient,
    commutator,
    default_labels,
    derived_subspace,
    subalgebra,
)
from .fields import Field
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    check_laws,
    cleared,
    contract,
    dense_vec,
    exact,
    induced_map,
    law_columns,
    law_rows,
    linear,
    quotient,
    snake,
    sparse_add,
    tensor_table,
    unit_vec,
)
from .report import ExactnessReport, ValidationReport
from .values import Frozen, Value, cached_property
from .tensorprod import build_tensor, induced_tensor_map


class HomAssociativeAlgebra(Value):
    """A Hom-associative algebra: its field, dimension, sparse product table, twist and basis labels."""

    field: Field
    dim: int
    sparse_p: tuple  # sparse_p[i][j] = e_i e_j as the sorted (index, value) pairs of its nonzero coordinates
    twist: Matrix
    labels: tuple
    __slots__ = ("field", "dim", "sparse_p", "twist", "labels", "__dict__")

    def __init__(self, field: Field, dim: int, p, twist: Matrix, labels):
        """The algebra with the dense table ``p``, p[i][j] the coordinates
        of e_i e_j: the dense edge (tests, benchmarks)."""
        table, labels = _checked(field, dim, p, twist, labels, "product", "product", dense=True)
        Frozen.__init__(self, field, dim, table, twist, labels)

    @staticmethod
    def from_products(field: Field, dim: int, products: dict, twist=None, labels=None) -> "HomAssociativeAlgebra":
        """Build from sparse product data {(i, j): {k: coeff}}."""
        tw = twist if twist is not None else Matrix.identity(field, dim)
        return HomAssociativeAlgebra.from_sparse(field, dim, _entry_table(field, dim, products, "product"), tw,
                                                 labels or default_labels(dim, "a"))

    @staticmethod
    def from_sparse(field: Field, dim: int, table, twist: Matrix, labels) -> "HomAssociativeAlgebra":
        """The algebra whose ``sparse_p`` is ``table``, checked and stored as
        given: the one constructor of the library."""
        table, labels = _checked(field, dim, table, twist, labels, "product", "product", dense=False)
        alg = object.__new__(HomAssociativeAlgebra)
        Frozen.__init__(alg, field, dim, table, twist, labels)
        return alg

    # the dense table, built once when read: the dense edge
    p = cached_property(lambda self: tuple(tuple(dense_vec(self.field, self.dim, v) for v in row)
                                           for row in self.sparse_p))

    # the product table cleared of denominators, built once when a law reads it
    cleared_p = cached_property(lambda self: cleared(self.field, self.sparse_p, table=True))

    def unit(self, i) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def product(self, x, y) -> tuple:
        return contract(self.field, self.sparse_p, x, y, self.dim)

    def apply_twist(self, x) -> tuple:
        return self.twist.apply(x)

    def is_commutative(self) -> bool:
        return all(self.sparse_p[i][j] == self.sparse_p[j][i] for i in range(self.dim) for j in range(i))

    def validate(self) -> ValidationReport:
        """The twist and hom-associativity laws on all basis tuples, checked
        once per algebra; the report is shared, so callers only read it."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        rep = ValidationReport(subject="hom-associative algebra")
        f, p, tw, lb, n = self.field, self.cleared_p, self.twist.cleared_cols, self.labels, self.dim
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
    for v in HomAssociativeAlgebra.from_sparse(A.field, A.dim, A.sparse_p, endo, A.labels).validate().violations:
        if v.law == "multiplicativity":
            raise StructureError(f"map is not an algebra endomorphism at {v.witness}")
    table = tuple(tuple(tuple(sorted(linear(A.field, endo.sparse_cols, v))) for v in row) for row in A.sparse_p)
    return HomAssociativeAlgebra.from_sparse(A.field, A.dim, table, endo, A.labels)


def to_leibniz(A: HomAssociativeAlgebra) -> HomLeibnizAlgebra:
    """The commutator algebra: bracket xy - yx with the same twist, read
    off the sparse product table."""
    f, p = A.field, A.sparse_p
    minus = f.neg(f.one())
    table = tuple(tuple(tuple(sorted(sparse_add(f, p[i][j], p[j][i], minus))) for j in range(A.dim))
                  for i in range(A.dim))
    return HomLeibnizAlgebra.from_sparse(f, A.dim, table, A.twist, A.labels)


def boundary_rows(A: HomAssociativeAlgebra, table):
    """Yield the boundary family
        p(a,b) (x) t(c) - t(a) (x) p(b,c) + p(c,a) (x) t(b)
    over basis triples (a, b, c) as ``linalg.law_rows`` rows in A (x) A, for
    the bilinear table p, sparse or ``Cleared``.  The image of the
    degree-three Hochschild boundary is the span of the rows with p the
    product."""
    f, n, tw = A.field, A.dim, A.twist.cleared_cols
    tens = tensor_table(f, n, n)
    law = ("boundary", (), [(tens, (table, 0, 1), (tw, 2)), (tens, (table, 2, 0), (tw, 1))],
           [(tens, (tw, 0), (table, 1, 2))])
    return law_rows(f, [((n, n, n), [law])])


class HochschildModule(Frozen):
    """The boundary quotient of A (x) A with its bracket, the map phi to A and [A, A]."""

    parent: HomAssociativeAlgebra
    commutator_algebra: HomLeibnizAlgebra   # A with the commutator bracket
    presentation: QuotientSpace             # A (x) A modulo the boundary image
    algebra: HomLeibnizAlgebra              # the quotient with its bracket and twist
    phi: Matrix                             # quotient -> A, class of a (x) b to ab - ba
    commutator_space: Subspace              # [A, A] inside A
    __slots__ = ("parent", "commutator_algebra", "presentation", "algebra", "phi", "commutator_space")

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
    lb = to_leibniz(A)
    pres = QuotientSpace(Subspace.span_sparse(f, n * n, boundary_rows(A, A.cleared_p)))
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
    return HochschildModule(A, lb, pres, algebra, phi, comm_space)


def cyclic_identity_holds(h: HochschildModule) -> bool:
    """[a,b] (x) t(c) - t(a) (x) [b,c] + [c,a] (x) t(b) lies in the boundary
    image, for all basis triples."""
    A, rel = h.parent, h.presentation.relations
    return all(rel.contains_sparse(r) for r in boundary_rows(A, h.commutator_algebra.cleared_c))


def alpha_identity_witness(A: HomAssociativeAlgebra):
    """None when commutators of A with the image of (twist - identity)
    vanish, else a witnessing pair of basis indices."""
    f, p = A.field, A.sparse_p
    img = A.twist.sub(Matrix.identity(f, A.dim)).image()
    # e_i w and w e_i: row i and column i of the product table at w
    for i, (row, col) in enumerate(zip(p, zip(*p))):
        for w in img.sparse_rows:
            if sparse_add(f, linear(f, row, w), linear(f, col, w), f.neg(f.one())):
                return (A.labels[i], dense_vec(f, A.dim, w))
    return None


def alpha_identity_holds(A: HomAssociativeAlgebra) -> bool:
    return alpha_identity_witness(A) is None


def milnor_relations(h: HochschildModule) -> Subspace:
    """Boundary image plus t(a) (x) [b,c] and [a,b] (x) t(c) over basis
    triples (a, b, c), as ``linalg.law_rows`` data."""
    A, lb = h.parent, h.commutator_algebra
    f, n, tw, c = A.field, A.dim, A.twist.cleared_cols, lb.cleared_c
    tens = tensor_table(f, n, n)
    rows = law_rows(f, [((n, n, n), [("t(a) (x) [b,c]", (), [(tens, (tw, 0), (c, 1, 2))], []),
                                     ("[a,b] (x) t(c)", (), [(tens, (c, 0, 1), (tw, 2))], [])])])
    return h.presentation.relations.add(Subspace.span_sparse(f, n * n, rows))


class FirstHomologies(Frozen):
    """The dimensions of the first Hochschild homologies and the twist-identity flag."""

    hh1_alpha_dim: int
    hh1_milnor_dim: int
    alpha_identity_holds: bool
    quotient_dim: int
    commutator_dim: int
    __slots__ = ("hh1_alpha_dim", "hh1_milnor_dim", "alpha_identity_holds", "quotient_dim", "commutator_dim")

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
    each ``linalg.law_columns`` data over (a, x, y), certified to descend
    and to satisfy the action identities."""
    A, lb = h.parent, h.commutator_algebra
    f, n, c, tw = A.field, A.dim, lb.cleared_c, A.twist.cleared_cols
    tens, axy = tensor_table(f, n, n), (n, n, n)
    left = law_columns(f, (n,), [(axy, [("a.(x#y)", (), [(tens, (c, 0, 1), (tw, 2))], [(tens, (c, 0, 2), (tw, 1))])])])
    right = law_columns(f, (n,), [(axy, [("(x#y).a", (), [(tens, (c, 1, 0), (tw, 2)), (tens, (tw, 1), (c, 2, 0))],
                                          [])])])
    action = induced_action(lb, h.algebra, h.presentation, left, right, lambda r, w: InternalInconsistency(
        "action does not descend to the quotient"))
    action.validate().require(
        lambda v: InternalInconsistency(f"quotient action identity {v.law} fails at {v.witness}"))
    return action


def action_of_quotient(h: HochschildModule) -> HomAction:
    """The quotient algebra acting on the commutator algebra through the
    evaluation: (x # y) . a = [[x,y], a] and a . (x # y) = [a, [x,y]]."""
    lb = h.commutator_algebra
    I = Matrix.identity(lb.field, lb.dim)
    return HomAction(h.algebra, lb, bracket_table(lb, h.phi, I, tuple), bracket_table(lb, I, h.phi, tuple))


def sequence_check(h: HochschildModule) -> ExactnessReport:
    """Exactness certificate for the degree-one Hochschild comparison
    sequence of the algebra A = ``h.parent``

        A*H -> Ker(A*Q -> Q) -> Ker(A*C -> C) -> H -> Milnor -> C/[A,C] -> 0

    where Q is the boundary quotient algebra, H the kernel of its evaluation
    (the first Hochschild homology, an abelian algebra), C the commutator
    subalgebra, and Milnor the Milnor-type quotient.  It is the snake
    sequence of the tensored evaluation A*H -> A*Q -> A*C over H -> Q -> C:
    one ``linalg.snake``, handed those two rows and the three evaluations
    onto the second factor and nothing else, decides its five joints, and
    the report certifies that the cokernels it divides by are H (the column
    over A*H vanishes), the Milnor-type quotient and C/[A,C].  Requires the
    twist-identity condition, checked before anything is read from ``h``.
    """
    A = h.parent
    A.require_valid()
    f = A.field
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

    # first homology: H = ker phi brackets to zero, as the quotient bracket
    # factors through phi, and the twist keeps H, as phi commutes with the
    # twist on a multiplicative A
    H_alg, incl_h = subalgebra(h.algebra, h.first_homology(), "z")
    t_ah = build_tensor(MutualActions.trivial(lb, H_alg))
    rep.dims["tensor with first homology"] = t_ah.algebra.dim

    # row maps: include the homology, then evaluate through phi
    rep.check("homology includes as a homomorphism", incl_h.is_homomorphism())

    phi_cols = [incl_c.map.preimage_sparse(c) for c in h.phi.sparse_cols]
    if None in phi_cols:
        raise InternalInconsistency("evaluation leaves the commutator subalgebra")
    phi_hom = AlgebraHom(h.algebra, C_sub, Matrix.from_columns(f, C_sub.dim, phi_cols))
    rep.check("evaluation is a homomorphism onto the commutator subalgebra",
              phi_hom.is_homomorphism())
    big_f = induced_tensor_map(id_a, incl_h, t_ah, t_aq)
    big_g = induced_tensor_map(id_a, phi_hom, t_aq, t_ac)
    rep.check("tensored evaluation surjective", big_g.map.is_surjective())
    rep.check("tensor row exact in the middle", exact(big_f.map, big_g.map))

    # columns: evaluation of each tensor product onto its second factor
    col_q, col_c, col_h = t_aq.into_n, t_ac.into_n, t_ah.into_n
    rep.check("column over the homology tensor vanishes", col_h.map.is_zero())
    rep.check("column vanishes on the included homology tensor",
              col_q.map.compose(big_f.map).is_zero())

    # cokernel identifications: the Milnor relations and the boundary
    # relations of Q hold the boundary image, so projecting into Q compares
    # them; the bracket actions on C hold [A, C] and [C, A] in C, so the
    # second compares them with the column image in A's coordinates
    milnor = milnor_relations(h)
    rep.check("middle cokernel matches the Milnor-type homology", col_q.map.image() == Subspace.span_sparse(
        f, h.algebra.dim, map(h.presentation.project_sparse, milnor.sparse_rows)))
    two_sided = commutator(IdealHandle(lb, h.commutator_space), IdealHandle(lb, Subspace.full(f, lb.dim)))
    rep.check("right cokernel matches the commutator quotient",
              incl_c.map.compose(col_c.map).image() == two_sided)
    rep.dims["commutator modulo inner"] = col_c.map.rows - col_c.map.image().dim
    rep.dims["kernel over quotient tensor"] = col_q.map.kernel().dim
    rep.dims["kernel over commutator tensor"] = col_c.map.kernel().dim

    # the snake along the tensored evaluation over H -> Q -> C, whose column
    # cokernels are H, the Milnor quotient as identified above, and C/[A,C]
    s = snake(big_f.map, big_g.map, incl_h.map, phi_hom.map, col_h.map, col_q.map, col_c.map)
    rep.check("homology tensor lands in the kernel", s.lands)
    rep.check("exact at the quotient-tensor kernel", s.exact_ker_beta)
    rep.check("kernels map onward", s.into_ker_gamma)
    rep.check("connecting lifts exist", s.delta is not None)
    if s.delta is None:
        return rep
    rep.check("exact at the commutator-tensor kernel", s.exact_ker_gamma)
    rep.check("exact at the first homology", s.exact_coker_alpha)
    rep.check("commutator map descends to the Milnor quotient", s.coker_g is not None)
    if s.coker_g is None:
        return rep
    rep.check("exact at the Milnor-type homology", s.exact_coker_beta)
    rep.check("onto the commutator cokernel", s.onto_coker_gamma)
    return rep
