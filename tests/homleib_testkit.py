"""Constructions that more than one test module reads and no library path
or command calls.  It is not named ``conftest`` so that test modules can
import it by name: pytest imports each ``conftest.py`` as the module
``conftest``, and the last one imported shadows the others.
"""

from __future__ import annotations

import random

from homleib.actions import HomAction, MutualActions, SemidirectProduct, ideal_pair_actions
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    IdealHandle,
    Predicates,
    direct_sum,
    ideal_closure,
    quotient_algebra,
)
from homleib.documents import ActionDocument, AlgebraDocument
from homleib.errors import InternalInconsistency
from homleib.extensions import AlphaUniversalCentralExtension, Extension, UniversalCentralExtension
from homleib.fields import Field
from homleib.generators import heisenberg, random_algebra, sl2, square_bracket_algebra
from homleib.homassoc import (
    FirstHomologies,
    HochschildModule,
    HomAssociativeAlgebra,
    boundary_rows,
    hochschild_module,
)
from homleib.homology import ChainComplex, CoRepresentation
from homleib.linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    dense_vec,
    induced_map,
    quotient,
    sparse_outer,
    sparse_vec,
    unit_vec,
)
from homleib.report import CheckItem, ExactnessReport, ValidationReport, Violation
from homleib.tensorprod import IdealSequenceData, TensorProduct, build_tensor

# The fields of each value class of the library, in constructor order,
# those derived from the others last: what ``replace`` copies, and what
# tests/test_values.py checks is refused assignment and deletion where the
# class is immutable.
FIELDS = {
    Field: ("p",),
    Matrix: ("field", "rows", "cols", "sparse_cols"),
    Subspace: ("field", "ambient_dim", "sparse_rows"),
    QuotientSpace: ("relations", "coset_basis", "_at"),
    Violation: ("law", "witness", "detail"),
    ValidationReport: ("subject", "violations", "flags", "axiom_status"),
    CheckItem: ("name", "ok"),
    ExactnessReport: ("subject", "items", "dims"),
    HomLeibnizAlgebra: ("field", "dim", "sparse_c", "twist", "labels"),
    AlgebraHom: ("source", "target", "map"),
    IdealHandle: ("parent", "space"),
    Predicates: ("perfect", "alpha_perfect", "alpha_surjective", "abelian"),
    HomAction: ("actor", "target", "sparse_left", "sparse_right"),
    MutualActions: ("mn", "nm"),
    SemidirectProduct: ("algebra", "include", "project", "section"),
    TensorProduct: ("actions", "presentation", "algebra", "eval_m", "eval_n"),
    IdealSequenceData: ("t_ml", "t_lm", "t_ll", "t_qq", "incl", "proj", "sigma", "tau", "report"),
    CoRepresentation: ("algebra", "space_dim", "twist", "sparse_left", "sparse_right"),
    ChainComplex: ("algebra", "coeffs", "_columns", "_ranks", "_squares"),
    Extension: ("total", "base", "proj", "kernel"),
    UniversalCentralExtension: ("tensor", "extension", "kernel_dim"),
    AlphaUniversalCentralExtension: ("tensor", "extension", "presented", "iso"),
    HomAssociativeAlgebra: ("field", "dim", "sparse_p", "twist", "labels"),
    HochschildModule: ("parent", "commutator_algebra", "presentation", "algebra", "phi", "commutator_space"),
    FirstHomologies: ("hh1_alpha_dim", "hh1_milnor_dim", "alpha_identity_holds", "quotient_dim", "commutator_dim"),
    AlgebraDocument: ("field", "kind", "dim", "basis", "table", "alpha"),
    ActionDocument: ("actor", "target", "sparse_left", "sparse_right"),
}


def fields(obj) -> tuple:
    """The fields of ``obj``'s class, or of the value class it derives from."""
    return next(FIELDS[cls] for cls in type(obj).__mro__ if cls in FIELDS)


def replace(obj, **changes):
    """A new instance of ``obj``'s class built by its constructor from
    ``obj``'s fields, those named in ``changes`` taking the values given
    there.  It serves every class whose constructor takes exactly its
    fields: not ``Matrix`` and the two algebras, built from a dense table,
    nor ``QuotientSpace`` and ``ChainComplex``, which derive some fields."""
    return type(obj)(**{name: getattr(obj, name) for name in fields(obj)} | changes)


def embed_nm(t: TensorProduct, v, u) -> tuple:
    """The pure tensor of dense vectors v (x) u in the block n*m of ``t``,
    as a dense ambient vector."""
    f = t.m_side.field
    return dense_vec(f, t.ambient_dim, sparse_outer(f, sparse_vec(v), sparse_vec(u), len(u),
                                                    t.m_side.dim * t.n_side.dim))


def random_trivial_pair(field: Field, rng: random.Random, max_dim: int = 3) -> MutualActions:
    """Two algebras with surjective twists acting trivially on each other."""
    m = random_algebra(field, rng, max_dim=max_dim, need_surjective_twist=True)
    n = random_algebra(field, rng, max_dim=max_dim, need_surjective_twist=True)
    return MutualActions.trivial(m, n)


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

    # ideal generated by the boundary family in both generator blocks,
    # inside the tensor square: the second block's rows are the first's
    # shifted by n * n, and the ideal is a canonical RREF in any seed order
    rows = list(boundary_rows(A, A.sparse_p))
    rows += [tuple((c + n * n, x) for c, x in r) for r in rows]
    ideal = ideal_closure(T, (t.presentation.project_sparse(r) for r in rows))

    quot, _ = quotient_algebra(T, IdealHandle(T, ideal))
    if quot.dim != h.algebra.dim:
        raise InternalInconsistency(
            "tensor-square quotient has a different dimension than the boundary quotient")

    # generator comparison: both tensor blocks evaluate to plain tensor
    # classes, and both are row-major in (first leg, second leg) like A (x) A
    on_square = induced_map(Matrix.identity(f, n * n).sparse_cols * 2, t.presentation, h.presentation)
    iso = AlgebraHom(quot, h.algebra, induced_map(
        on_square, QuotientSpace(ideal), quotient(f, h.algebra.dim, ()),
        lambda r, w: InternalInconsistency("comparison does not kill the boundary ideal")))
    iso.validate().require(
        lambda v: InternalInconsistency("comparison map is not a homomorphism", witness=v.witness))
    if not (iso.map.is_injective() and iso.map.is_surjective()):
        raise InternalInconsistency("comparison map is not bijective")
    return iso


def sl2_on_two_planes(f: Field) -> HomLeibnizAlgebra:
    """sl2 acting on two copies v, w of its standard representation, the
    semidirect product sl2 x (V2 + V2) with the identity twist."""
    br = {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    for one, two in ((3, 4), (5, 6)):
        br.update({(0, two): {one: 1}, (1, one): {two: 1}, (2, one): {one: 1}, (2, two): {two: -1}})
    br.update({(j, i): {k: -x for k, x in v.items()} for (i, j), v in list(br.items())})
    return HomLeibnizAlgebra.from_brackets(f, 7, br, labels=("e", "f", "h", "v1", "v2", "w1", "w2"))


def zero_twist(L: HomLeibnizAlgebra) -> HomLeibnizAlgebra:
    """L's bracket under the zero twist, a Hom-Leibniz algebra for any
    bracket: every term of the identity has a twist in it."""
    return HomLeibnizAlgebra.from_sparse(L.field, L.dim, L.sparse_c, Matrix.zero(L.field, L.dim, L.dim), L.labels)


def one_sided(L: HomLeibnizAlgebra, side: str) -> MutualActions:
    """L acting on itself by its bracket from the left only or from the
    right only, the same action both ways; compatible exactly when the
    bracket is two-step nilpotent."""
    zero = (((),) * L.dim,) * L.dim
    act = HomAction(L, L, *((L.sparse_c, zero) if side == "left" else (zero, L.sparse_c)))
    return MutualActions(act, act)


def abelian_witnesses(f: Field) -> list:
    """(name, pair): the compatible pairs of abelian algebras on which a
    relation family of the tensor product follows from no other, with the
    exchange of each (the ``relation_vectors`` docstring):
      * r5: <m> acts on <n1, n2> by m>n1 = n2 alone, identity twists;
      * r7: <m1, m2> and <n1, n2> act by m1<n1 = m2 and m1>n1 = n2 alone,
        zero twists;
      * the square's r5: <n1, n2> acts on itself by n1>n1 = n1<n1 = n2,
        identity twist, a square whose actions are not its bracket."""
    def act(dm, dn, twist, left=(), right=()):
        # abelian dm- and dn-spaces under the identity or the zero twist;
        # the nonzero values are (actor, target) for the left action and
        # (target, actor) for the right one, each the target's e[1]
        M, N = (HomLeibnizAlgebra.abelian(f, d, None if twist == "identity" else Matrix.zero(f, d, d))
                for d in (dm, dn))
        value = ((1, f.one()),)
        tables = (tuple(tuple(value if (i, j) in entries else () for j in range(b)) for i in range(a))
                  for (a, b), entries in (((dm, dn), left), ((dn, dm), right)))
        return HomAction(M, N, *tables)

    square = act(2, 2, "identity", [(0, 0)], [(0, 0)])
    pairs = [("r5: m>n1 = n2", MutualActions(act(1, 2, "identity", [(0, 0)]), act(2, 1, "identity"))),
             ("r7: m1<n1 = m2, m1>n1 = n2", MutualActions(act(2, 2, "zero", [(0, 0)]),
                                                          act(2, 2, "zero", right=[(0, 0)]))),
             ("square: n1.n1 = n2", MutualActions(square, square))]
    return pairs + [(f"{name}, exchanged", MutualActions(ma.nm, ma.mn)) for name, ma in pairs[:2]]


def edge_pairs(f: Field) -> list:
    """(name, pair): compatible pairs at the edges of the hypotheses.  The
    algebras have singular twists: the zero twist on sl2, Heisenberg, the
    square-bracket algebra and sl2 x (V2 + V2), and id + 0 and 0 + id on
    sl2 + Heisenberg.  Each acts on itself adjointly; Heisenberg and the
    square-bracket algebra, two-step nilpotent, also act on themselves from
    one side only, under the zero twist and under their own; the ideal
    V = <v1, v2, w1, w2> of sl2 x (V2 + V2), and the Heisenberg summand of
    each sum, basis vectors 3 on in each, act with the whole algebra on each
    other by the bracket, in both orders.  Last come the
    ``abelian_witnesses``."""
    heis, square = heisenberg(f), square_bracket_algebra(f)
    singular = [("sl2, zero twist", zero_twist(sl2(f))), ("heisenberg, zero twist", zero_twist(heis)),
                ("square, zero twist", zero_twist(square)),
                ("sl2 x (V2 + V2), zero twist", zero_twist(sl2_on_two_planes(f))),
                ("sl2 + heisenberg, id + 0", direct_sum(sl2(f), zero_twist(heis))),
                ("sl2 + heisenberg, 0 + id", direct_sum(zero_twist(sl2(f)), heis))]
    pairs = [(f"{name}, adjoint", MutualActions.adjoint(L)) for name, L in singular]
    for name, L in (("heisenberg", heis), ("square", square)):
        for twist, A in (("zero twist", zero_twist(L)), ("own twist", L)):
            pairs += [(f"{name}, {twist}, {side} only", one_sided(A, side)) for side in ("left", "right")]
    for name, L in singular[3:]:
        whole = Subspace.full(f, L.dim)
        part = Subspace.span(f, L.dim, [unit_vec(f, L.dim, i) for i in range(3, L.dim)])
        pairs += [(f"{name}: ideal on L", ideal_pair_actions(L, part, whole)),
                  (f"{name}: L on ideal", ideal_pair_actions(L, whole, part))]
    return pairs + abelian_witnesses(f)
