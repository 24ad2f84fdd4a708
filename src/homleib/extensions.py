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

from dataclasses import dataclass
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
    predicates,
    subalgebra,
    twist_image_bracket_span,
)
from .actions import MutualActions
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    _expand_kernel,
    connecting_map,
    induced_map,
    law_rows,
    quotient,
    tensor_table,
)
from .report import ExactnessReport
from .tensorprod import (
    TensorProduct,
    build_tensor,
    commutator_map,
    factor_maps,
    ideal_sequence_certificate,
)


class ExtensionKind(Enum):
    CENTRAL = "central"
    ALPHA_CENTRAL_ONLY = "alpha-central-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class Extension:
    total: HomLeibnizAlgebra
    base: HomLeibnizAlgebra
    proj: AlgebraHom
    kernel: Subspace

    @staticmethod
    def from_projection(proj: AlgebraHom, kernel: Subspace | None = None) -> "Extension":
        if not proj.map.is_surjective():
            raise NotSurjective("projection is not onto the base")
        proj.validate().require(
            lambda v: InternalInconsistency(f"projection fails {v.law} at {v.witness}"))
        ker = proj.map.kernel()
        if kernel is not None and kernel != ker:
            raise KernelMismatch("declared kernel differs from the kernel of the projection")
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
    twisted = Subspace.span(K.field, K.dim,
                            [K.apply_twist(v) for v in e.kernel.basis.entries])
    if commutator(IdealHandle(K, twisted), full).dim == 0:
        return ExtensionKind.ALPHA_CENTRAL_ONLY
    return ExtensionKind.NEITHER


@dataclass(frozen=True)
class UniversalCentralExtension:
    tensor: TensorProduct
    extension: Extension
    kernel_dim: int


def universal_central_extension(L: HomLeibnizAlgebra) -> UniversalCentralExtension:
    """The tensor square of a perfect algebra over itself, with x*y -> [x, y]."""
    if not predicates(L).perfect:
        raise NotPerfect("the algebra does not equal its own bracket span")
    t = build_tensor(MutualActions.adjoint(L))
    psi = commutator_map(t)
    ext = Extension.from_projection(psi)
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
        if not all(other.kernel.contains(v) for v in perturbation.transpose().entries):
            raise KernelMismatch("perturbation must take values in the kernel")
        section = section.add(perturbation)
    t = uce.tensor
    # x*y in either block of the tensor square of the base goes to the
    # bracket of the chosen preimages; both blocks are row-major in (x, y)
    s = section.transpose().entries
    brackets = [Kp.bracket(u, v) for u in s for v in s]
    amb = Matrix.from_columns(f, Kp.dim, brackets + brackets)
    lift = AlgebraHom(t.algebra, Kp, induced_map(
        amb, t.presentation, quotient(f, Kp.dim, ()),
        lambda r, w: InternalInconsistency("lift does not kill the tensor relations", witness=(r,))))
    lift.validate().require(
        lambda v: InternalInconsistency("lift is not a homomorphism", witness=v.witness))
    if other.proj.map.compose(lift.map) != uce.extension.proj.map:
        raise InternalInconsistency("lift does not commute over the base")
    return lift


@dataclass(frozen=True)
class AlphaUniversalCentralExtension:
    tensor: TensorProduct          # tensor square of the twist image subalgebra
    extension: Extension           # onto the original algebra
    presented: HomLeibnizAlgebra   # quotient presentation on the plain tensor space
    iso: AlgebraHom                # tensor square -> presentation, verified bijective


def universal_alpha_central_extension(L: HomLeibnizAlgebra) -> AlphaUniversalCentralExtension:
    """Universal twist-central extension of a twist-perfect algebra.

    Built as the tensor square of the twist image subalgebra; compared
    against the quotient presentation of the plain tensor space by the
    homology-style relation family, with the comparison map certified to be
    a bijective homomorphism.
    """
    if twist_image_bracket_span(L).dim != L.dim:
        raise NotAlphaPerfect("the twist image does not bracket onto the whole algebra")
    A, incl = subalgebra(L, L.twist.image(), "a")
    t = build_tensor(MutualActions.adjoint(A))
    psi_a = commutator_map(t)
    proj = AlgebraHom(t.algebra, L, incl.map.compose(psi_a.map))
    ext = Extension.from_projection(proj)
    if classify_extension(ext) is not ExtensionKind.CENTRAL:
        raise InternalInconsistency("twist tensor square projection is not central")

    presented, iso = _presented_alpha_uce(A, t)
    return AlphaUniversalCentralExtension(t, ext, presented, iso)


def _presented_alpha_uce(A, t):
    """Quotient of the plain tensor space of the twist image A by the span of
        -[x1,x2] (x) t(x3) + [x1,x3] (x) t(x2) + t(x1) (x) [x2,x3]
    over basis triples, as ``linalg.law_rows`` data, with bracket
    u (x) v, u' (x) v' -> [u,v] (x) [u',v'].  A is all of L on L's own
    basis, since the twist image holds [t(L), t(L)] = L, so A's brackets and
    twist are L's, in the same coordinates."""
    f, k = A.field, A.dim
    ambient = k * k
    br, tw, tens = A.sparse_c, A.sparse_twist, tensor_table(f, k, k)
    rows = law_rows(f, [((k, k, k), [("alpha relation", (),
                                      [(tens, (br, 0, 2), (tw, 1)), (tens, (tw, 0), (br, 1, 2))],
                                      [(tens, (br, 0, 1), (tw, 2))])])])
    pres = QuotientSpace(Subspace.span_sparse(f, ambient, rows))
    # the bracket factors through folding both legs; folding a relation
    # instance gives the Hom-Leibniz identity, so a valid algebra's fold
    # kills every relation
    fold = A.bracket_map()
    presented = certified_quotient(pres, fold, fold, A.twist.kron(A.twist), default_labels(pres.dim, "u"))

    # generator comparison: a*b in either block of the tensor square -> a (x) b;
    # both blocks are row-major in (first leg, second leg), like the plain space
    comp_amb = Matrix.from_columns(f, ambient, Matrix.identity(f, ambient).entries * 2)
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
    evaluates the commutator map.  Every joint is certified by exact ranks,
    together with the commutation and identification facts the construction
    depends on.  The ideal is checked first, once: a subspace that is not
    a twist-stable two-sided ideal raises before a non-perfect algebra does.
    """
    ideal = IdealHandle(L, ideal_space).require_ideal()
    if not predicates(L).perfect:
        raise NotPerfect("six-term certificate requires a perfect algebra")
    f = L.field
    data = ideal_sequence_certificate(L, ideal)
    rep = ExactnessReport(subject="six-term sequence")
    for item in data.report.items:
        rep.check(f"row: {item.name}", item.ok, item.detail)

    psi_ll = commutator_map(data.t_ll)
    psi_qq = commutator_map(data.t_qq)
    # the column over L*M evaluates into the ideal (second factor)
    into_ideal = factor_maps(data.t_lm, second_only=True)
    k1 = into_ideal.map.kernel()
    k2 = psi_ll.map.kernel()
    k3 = psi_qq.map.kernel()
    rep.dims["kernel over ideal tensor"] = k1.dim
    rep.dims["second homology of the algebra"] = k2.dim
    rep.dims["second homology of the quotient"] = k3.dim

    # commutativity of the square the snake construction uses
    left_sq = data.proj.map.compose(psi_ll.map)
    right_sq = psi_qq.map.compose(data.tau.map)
    rep.check("projection commutes over the tensor row", left_sq == right_sq)

    # first map: include the ideal tensor into the square, then twist; that
    # is the second block of the row's left map
    zeros = (f.zero(),) * data.t_ml.algebra.dim
    t1_cols = [data.sigma.apply(zeros + v) for v in k1.basis.entries]
    rep.check("first map lands in the middle kernel",
              all(k2.contains(c) for c in t1_cols))
    im1 = Subspace.span(f, data.t_ll.algebra.dim, t1_cols)

    # second map: the quotient-induced tensor map, restricted to kernels
    t2_cols = [data.tau.map.apply(v) for v in k2.basis.entries]
    rep.check("second map lands in the quotient kernel",
              all(k3.contains(c) for c in t2_cols))

    rep.check("exact at the second homology of the algebra",
              im1 == k2.intersect(data.tau.map.kernel()))

    # cokernel target: ideal modulo the two-sided commutator with the algebra
    two_sided = commutator(ideal, IdealHandle(L, Subspace.full(f, L.dim)))
    in_m = [data.incl.map.preimage(v) for v in two_sided.basis.entries]
    if any(q is None for q in in_m):
        raise InternalInconsistency("commutator with the algebra leaves the ideal")
    coker_q = quotient(f, data.incl.source.dim, in_m)
    rep.dims["ideal modulo commutator"] = coker_q.dim

    # the big column's image equals that two-sided commutator: values of the
    # evaluation on the ideal tensor, then twisted values on the swapped one
    psi_big_cols = []
    for v in data.t_ml.eval_m.transpose().entries:
        psi_big_cols.append(data.incl.map.apply(v))
    for v in data.t_lm.eval_m.transpose().entries:
        psi_big_cols.append(L.apply_twist(v))
    im_psi = Subspace.span(f, L.dim, psi_big_cols)
    rep.check("column image equals the two-sided commutator", im_psi == two_sided)

    # connecting map: lift along the projection row, evaluate, read in the cokernel
    def read(v):
        q = data.incl.map.preimage(v)
        return None if q is None else coker_q.project(q)

    delta = connecting_map(k3, data.tau.map, psi_ll.map, read, coker_q.dim)
    rep.check("connecting map lifts exist", delta is not None)
    if delta is not None:
        im2_in_k3 = Subspace.span(f, data.t_qq.algebra.dim, t2_cols)
        ker_delta = _expand_kernel(delta, k3)
        rep.check("exact at the second homology of the quotient", im2_in_k3 == ker_delta)
        rep.check("connecting map onto the ideal cokernel", delta.rank() == coker_q.dim)
    return rep
