"""Central and twist-central extensions, their classification, and the
universal constructions built from tensor squares.

An extension is a surjective homomorphism onto the base together with its
kernel.  It is central when the kernel brackets to zero with the whole
total algebra on both sides, and twist-central when the twist image of the
kernel does.  The universal central extension of a perfect algebra is its
tensor square under adjoint actions, mapping a generator x*y to [x, y];
the kernel dimension doubles as the second homology, which is certified
against the chain-complex computation in the test suite rather than taken
on faith.
"""

from __future__ import annotations

from enum import Enum

from .errors import (
    BaseMismatch,
    InternalInconsistency,
    KernelMismatch,
    NotAlphaPerfect,
    NotCentral,
    NotPerfect,
    NotSurjective,
)
from .algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    certified_quotient,
    commutator,
    default_labels,
    is_perfect,
    twist_image_bracket_span,
)
from .actions import MutualActions
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    induced_map,
    law_rows,
    linear,
    quotient,
    snake,
    tensor_table,
)
from .report import ExactnessReport
from .tensorprod import (
    TensorProduct,
    build_tensor,
    ideal_sequence_certificate,
)
from .values import Frozen


class ExtensionKind(Enum):
    CENTRAL = "central"
    ALPHA_CENTRAL_ONLY = "alpha-central-only"
    NEITHER = "neither"


class Extension(Frozen):
    """An extension of ``base`` by ``kernel``: the total algebra and its projection."""

    total: HomLeibnizAlgebra
    base: HomLeibnizAlgebra
    proj: AlgebraHom
    kernel: Subspace
    __slots__ = ("total", "base", "proj", "kernel")

    @staticmethod
    def from_projection(proj: AlgebraHom) -> "Extension":
        if not proj.map.is_surjective():
            raise NotSurjective("projection is not onto the base")
        proj.validate().require(
            lambda v: InternalInconsistency(f"projection fails {v.law} at {v.witness}"))
        ker = proj.map.kernel()
        IdealHandle(proj.source, ker).require_ideal()
        return Extension(proj.source, proj.target, proj, ker)


def classify_extension(e: Extension) -> ExtensionKind:
    """Central when the kernel is bracket-inert in the total algebra on both
    sides; twist-central-only when only its twist image is."""
    K = e.total
    full = IdealHandle(K, Subspace.full(K.field, K.dim))
    ker_handle = IdealHandle(K, e.kernel)
    if commutator(ker_handle, full).dim == 0:
        return ExtensionKind.CENTRAL
    twisted = Subspace.span_sparse(K.field, K.dim, [linear(K.field, K.twist.sparse_cols, r)
                                                    for r in e.kernel.sparse_rows])
    if commutator(IdealHandle(K, twisted), full).dim == 0:
        return ExtensionKind.ALPHA_CENTRAL_ONLY
    return ExtensionKind.NEITHER


class UniversalCentralExtension(Frozen):
    """The universal central extension as a tensor square, with the dimension of its kernel."""

    tensor: TensorProduct
    extension: Extension
    kernel_dim: int
    __slots__ = ("tensor", "extension", "kernel_dim")


def universal_central_extension(L: HomLeibnizAlgebra) -> UniversalCentralExtension:
    """The tensor square of a perfect algebra over itself, with x*y -> [x, y]."""
    if not is_perfect(L):
        raise NotPerfect("the algebra does not equal its own bracket span")
    t = build_tensor(MutualActions.adjoint(L))
    ext = Extension.from_projection(t.into_m)
    if classify_extension(ext) is not ExtensionKind.CENTRAL:
        raise InternalInconsistency("tensor square projection is not central")
    return UniversalCentralExtension(t, ext, ext.kernel.dim)


def lift_against(uce: UniversalCentralExtension, other: Extension,
                 perturbation: Matrix | None = None) -> AlgebraHom:
    """The unique lift of the universal extension through another central
    extension of the same base.

    Preimages of base elements are chosen through a deterministic section;
    ``perturbation`` adds a kernel-valued linear shift to that section, which
    must not change the result (uniqueness on perfect totals).
    """
    if other.base != uce.extension.base:
        raise BaseMismatch("extensions do not share a base")
    if classify_extension(other) is not ExtensionKind.CENTRAL:
        raise NotCentral("lifting target is not a central extension")
    L = uce.extension.base
    Kp = other.total
    f = L.field
    section = other.proj.map.section()
    if perturbation is not None:
        if not all(other.kernel.contains(perturbation.col(j)) for j in range(perturbation.cols)):
            raise KernelMismatch("perturbation must take values in the kernel")
        section = section.add(perturbation)
    t = uce.tensor
    # x*y in either block of the tensor square of the base goes to the
    # bracket of the chosen preimages; both blocks are row-major in (x, y)
    brackets = Kp.bracket_map().compose(section.kron(section)).sparse_cols
    lift = AlgebraHom(t.algebra, Kp, induced_map(
        brackets * 2, t.presentation, quotient(f, Kp.dim, ()),
        lambda r, w: InternalInconsistency("lift does not kill the tensor relations", witness=(r,))))
    lift.validate().require(
        lambda v: InternalInconsistency("lift is not a homomorphism", witness=v.witness))
    if other.proj.map.compose(lift.map) != uce.extension.proj.map:
        raise InternalInconsistency("lift does not commute over the base")
    return lift


class AlphaUniversalCentralExtension(Frozen):
    """The universal twist-central extension: tensor square, extension, presentation and the isomorphism."""

    tensor: TensorProduct          # tensor square of the algebra, the twist image
    extension: Extension           # onto the original algebra
    presented: HomLeibnizAlgebra   # quotient presentation on the plain tensor space
    iso: AlgebraHom                # tensor square -> presentation, verified bijective
    __slots__ = ("tensor", "extension", "presented", "iso")


def universal_alpha_central_extension(L: HomLeibnizAlgebra) -> AlphaUniversalCentralExtension:
    """Universal twist-central extension of a twist-perfect algebra.

    Built as the tensor square of the twist image, which is L itself:
    L = [t(L), t(L)] = t([L, L]) lies in t(L), so L is perfect and this is
    the universal central extension's own square.  It is compared against
    the quotient presentation of the plain tensor space by the
    homology-style relation family, with the comparison map certified to be
    a bijective homomorphism.
    """
    if twist_image_bracket_span(L).dim != L.dim:
        raise NotAlphaPerfect("the twist image does not bracket onto the whole algebra")
    uce = universal_central_extension(L)
    presented, iso = _presented_alpha_uce(L, uce.tensor)
    return AlphaUniversalCentralExtension(uce.tensor, uce.extension, presented, iso)


def _presented_alpha_uce(L, t):
    """Quotient of the plain tensor space of L by the span of
        -[x1,x2] (x) t(x3) + [x1,x3] (x) t(x2) + t(x1) (x) [x2,x3]
    over basis triples, as ``linalg.law_rows`` data, with bracket
    u (x) v, u' (x) v' -> [u,v] (x) [u',v']."""
    f, k = L.field, L.dim
    ambient = k * k
    br, tw, tens = L.cleared_c, L.twist.cleared_cols, tensor_table(f, k, k)
    rows = law_rows(f, [((k, k, k), [("alpha relation", (),
                                      [(tens, (br, 0, 2), (tw, 1)), (tens, (tw, 0), (br, 1, 2))],
                                      [(tens, (br, 0, 1), (tw, 2))])])])
    pres = QuotientSpace(Subspace.span_sparse(f, ambient, rows))
    # the bracket factors through folding both legs; folding a relation
    # instance gives the Hom-Leibniz identity, so a valid algebra's fold
    # kills every relation
    fold = L.bracket_map()
    presented = certified_quotient(pres, fold, fold, L.twist.kron(L.twist), default_labels(pres.dim, "u"))

    # generator comparison: a*b in either block of the tensor square -> a (x) b;
    # both blocks are row-major in (first leg, second leg), like the plain space
    comp_amb = Matrix.identity(f, ambient).sparse_cols * 2
    comp = AlgebraHom(t.algebra, presented, induced_map(comp_amb, t.presentation, pres))
    comp.validate().require(
        lambda v: InternalInconsistency("comparison map is not a homomorphism", witness=v.witness))
    if not (comp.map.is_injective() and comp.map.is_surjective()):
        raise InternalInconsistency("comparison map is not bijective")
    return presented, comp


def six_term_check(L: HomLeibnizAlgebra, ideal_space: Subspace) -> ExactnessReport:
    """Four-term exactness certificate attached to an ideal of a perfect
    algebra:

        Ker(L*M -> M) -> Ker(L*L -> L) -> Ker(Q*Q -> Q) -> M/[L,M] -> 0

    with Q the quotient algebra.  The middle kernels realize the second
    homology of L and Q; the connecting map lifts through the tensor row and
    evaluates the commutator map.  One ``linalg.snake`` decides every joint,
    handed the map of rows L*M -> L*L -> Q*Q over M -> L -> Q and nothing
    else: its first map is the twisted second block of sigma, its columns
    the evaluations onto the second factor.  Its cokernels are the ones this
    certifies: L*M acts on M by brackets, so the column over L*M sends l*m
    to [l, m] and m*l to [m, l] and its cokernel is M/[L,M]; L and Q are
    perfect, so the columns over L*L and Q*Q are onto and their cokernels
    are zero.  The ideal is checked first, once: a subspace that is not a
    twist-stable two-sided ideal raises before a non-perfect algebra does.
    """
    ideal = IdealHandle(L, ideal_space).require_ideal()
    if not is_perfect(L):
        raise NotPerfect("six-term certificate requires a perfect algebra")
    f = L.field
    data = ideal_sequence_certificate(L, ideal)
    rep = ExactnessReport(subject="six-term sequence")
    for item in data.report.items:
        rep.check(f"row: {item.name}", item.ok)

    # on the zero ideal Q*Q is L*L itself, and its map is read once
    psi_ll, psi_qq, alpha = data.t_ll.into_m.map, data.t_qq.into_m.map, data.t_lm.into_n.map
    rep.dims["kernel over ideal tensor"] = alpha.kernel().dim
    rep.dims["second homology of the algebra"] = psi_ll.kernel().dim
    rep.dims["second homology of the quotient"] = psi_qq.kernel().dim

    # commutativity of the square the snake construction uses
    rep.check("projection commutes over the tensor row",
              data.proj.map.compose(psi_ll) == psi_qq.compose(data.tau.map))
    rep.dims["ideal modulo commutator"] = alpha.rows - alpha.image().dim

    twisted_incl = Matrix.from_columns(f, data.sigma.rows, data.sigma.sparse_cols[data.t_ml.algebra.dim:])
    s = snake(twisted_incl, data.tau.map, data.incl.map, data.proj.map, alpha, psi_ll, psi_qq)
    rep.check("first map lands in the middle kernel", s.lands)
    rep.check("second map lands in the quotient kernel", s.into_ker_gamma)
    rep.check("exact at the second homology of the algebra", s.exact_ker_beta)

    # the big column's image equals the two-sided commutator: values of the
    # evaluation on the ideal tensor, then twisted values on the swapped one
    two_sided = commutator(ideal, IdealHandle(L, Subspace.full(f, L.dim)))
    psi_big_cols = data.incl.map.compose(data.t_ml.eval_m).sparse_cols + \
        L.twist.compose(data.t_lm.eval_m).sparse_cols
    im_psi = Subspace.span_sparse(f, L.dim, psi_big_cols)
    rep.check("column image equals the two-sided commutator", im_psi == two_sided)

    rep.check("connecting map lifts exist", s.delta is not None)
    if s.delta is not None:
        rep.check("exact at the second homology of the quotient", s.exact_ker_gamma)
        rep.check("connecting map onto the ideal cokernel", s.exact_coker_alpha)
    return rep
