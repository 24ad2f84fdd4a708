"""Constructions that more than one test module reads and no library path
or command calls.  It is not named ``conftest`` so that test modules can
import it by name: pytest imports each ``conftest.py`` as the module
``conftest``, and the last one imported shadows the others.
"""

from __future__ import annotations

import random

from homleib.actions import MutualActions
from homleib.algebras import AlgebraHom, IdealHandle, ideal_closure, quotient_algebra
from homleib.errors import InternalInconsistency
from homleib.fields import Field
from homleib.generators import random_algebra
from homleib.homassoc import HomAssociativeAlgebra, boundary_rows, hochschild_module
from homleib.linalg import Matrix, QuotientSpace, dense_vec, induced_map, quotient, sparse_outer, sparse_vec
from homleib.tensorprod import TensorProduct, build_tensor


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
