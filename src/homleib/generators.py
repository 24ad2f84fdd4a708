"""Seeded random instances for property batteries.

Valid algebras are grown from a stock of structured families (abelian,
square-bracket, Heisenberg, traceless 2x2) twisted along endomorphisms of
known shape, never by rejection on raw random tensors.  Every generated
object is validated before being handed out; the generator refuses to
return anything invalid.
"""

from __future__ import annotations

import random

from .errors import InternalInconsistency
from .algebras import HomLeibnizAlgebra, IdealHandle, direct_sum, yau_twist
from .fields import Field
from .homology import adjoint_corep, trivial_corep
from .linalg import Matrix, Subspace


def _scalars(field: Field, rng: random.Random, lo=-3, hi=3):
    return field.from_int(rng.randint(lo, hi))


def _nonzero(field: Field, rng: random.Random):
    while True:
        v = _scalars(field, rng)
        if v:
            return v


def random_invertible(field: Field, dim: int, rng: random.Random) -> Matrix:
    """Unit upper-triangular times unit lower-triangular with random diagonal."""
    rows = [[field.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = _nonzero(field, rng)
        for j in range(i + 1, dim):
            rows[i][j] = _scalars(field, rng)
    upper = Matrix(field, dim, dim, tuple(tuple(r) for r in rows))
    rows = [[field.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = field.one()
        for j in range(i):
            rows[i][j] = _scalars(field, rng)
    lower = Matrix(field, dim, dim, tuple(tuple(r) for r in rows))
    return upper.compose(lower)


def square_bracket_algebra(field: Field) -> HomLeibnizAlgebra:
    """Two dimensions, the square of the second basis vector spans the first."""
    return HomLeibnizAlgebra.from_brackets(field, 2, {(1, 1): {0: 1}})


def heisenberg(field: Field) -> HomLeibnizAlgebra:
    return HomLeibnizAlgebra.from_brackets(
        field, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}}, labels=("p", "q", "z"))


def sl2(field: Field) -> HomLeibnizAlgebra:
    return HomLeibnizAlgebra.from_brackets(
        field, 3,
        {(0, 1): {2: 1}, (1, 0): {2: -1},
         (2, 0): {0: 2}, (0, 2): {0: -2},
         (2, 1): {1: -2}, (1, 2): {1: 2}},
        labels=("e", "f", "h"))


def _stock_endo(L: HomLeibnizAlgebra, kind: str, rng: random.Random) -> Matrix:
    f = L.field
    if kind == "square":
        d = _nonzero(f, rng)
        c = _scalars(f, rng)
        return Matrix.from_rows(f, [[f.mul(d, d), c], [f.zero(), d]])
    if kind == "heis":
        a = _nonzero(f, rng)
        b = _nonzero(f, rng)
        return Matrix.from_rows(f, [
            [a, f.zero(), f.zero()],
            [f.zero(), b, f.zero()],
            [f.zero(), f.zero(), f.mul(a, b)]])
    if kind == "sl2":
        t = _nonzero(f, rng)
        return Matrix.from_rows(f, [
            [t, f.zero(), f.zero()],
            [f.zero(), f.inv(t), f.zero()],
            [f.zero(), f.zero(), f.one()]])
    raise ValueError(kind)


def random_algebra(field: Field, rng: random.Random, max_dim: int = 4,
                   need_surjective_twist: bool = False) -> HomLeibnizAlgebra:
    """A valid multiplicative algebra from the twisted stock."""
    choices = ["abelian", "square", "heis", "sl2", "sum"]
    kind = rng.choice(choices)
    if kind == "abelian":
        dim = rng.randint(1, max_dim)
        tw = random_invertible(field, dim, rng) if need_surjective_twist else \
            Matrix.from_rows(field, [[_scalars(field, rng) for _ in range(dim)] for _ in range(dim)])
        out = HomLeibnizAlgebra.abelian(field, dim, tw)
    elif kind == "square":
        base = square_bracket_algebra(field)
        out = yau_twist(base, _stock_endo(base, "square", rng))
    elif kind == "heis":
        base = heisenberg(field)
        out = yau_twist(base, _stock_endo(base, "heis", rng))
    elif kind == "sl2":
        base = sl2(field)
        out = yau_twist(base, _stock_endo(base, "sl2", rng))
    else:
        a = random_algebra(field, rng, max_dim=2, need_surjective_twist=need_surjective_twist)
        b = random_algebra(field, rng, max_dim=2, need_surjective_twist=need_surjective_twist)
        out = direct_sum(a, b)
    if out.dim > max_dim:
        return random_algebra(field, rng, max_dim, need_surjective_twist)
    if need_surjective_twist and out.twist.rank() != out.dim:
        return random_algebra(field, rng, max_dim, need_surjective_twist)
    out.validate().require(lambda v: InternalInconsistency("generator produced an invalid algebra"))
    return out


def random_corep(field: Field, rng: random.Random, max_dim: int = 4) -> tuple:
    """A valid pair (algebra, co-representation) of bounded dimensions."""
    L = random_algebra(field, rng, max_dim=max_dim)
    kind = rng.choice(["trivial", "trivial-twisted", "adjoint"])
    if kind == "trivial":
        M = trivial_corep(L, rng.randint(1, max_dim))
    elif kind == "trivial-twisted":
        dm = rng.randint(1, max_dim)
        tw = Matrix.from_rows(field, [[_scalars(field, rng) for _ in range(dm)] for _ in range(dm)])
        M = trivial_corep(L, dm, tw)
    else:
        M = adjoint_corep(L)
    M.validate().require(
        lambda v: InternalInconsistency("generator produced an invalid co-representation"))
    return L, M


def random_ideal_pair(field: Field, rng: random.Random):
    """A parent algebra with two ideals acting on each other by brackets."""
    from .actions import ideal_pair_actions
    from .algebras import derived_subspace, center

    choices = []
    sq = yau_twist(square_bracket_algebra(field),
                   _stock_endo(square_bracket_algebra(field), "square", rng))
    choices.append((sq, derived_subspace(sq), Subspace.full(field, sq.dim)))
    h = heisenberg(field)
    choices.append((h, center(h), derived_subspace(h)))
    g = direct_sum(sl2(field), square_bracket_algebra(field))
    first = Subspace.span(field, g.dim, [g.unit(i) for i in range(3)])
    choices.append((g, first, derived_subspace(g)))
    parent, a_space, b_space = rng.choice(choices)
    IdealHandle(parent, a_space).require_ideal()
    IdealHandle(parent, b_space).require_ideal()
    return parent, ideal_pair_actions(parent, a_space, b_space)
