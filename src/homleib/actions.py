"""Hom-Leibniz actions, compatibility of mutual actions, semi-direct products.

An action of (L, t_L) on (M, t_M) is a pair of bilinear maps, written here
as ``left[x][m]`` for the value of x acting on m from the left and
``right[m][x]`` for m acted on from the right.  Eight identities tie the
actions to the brackets and twists of both algebras; every identity is
multilinear, so checking on basis tuples is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAction, StructureError
from .algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle
from .linalg import (
    LinearMap,
    Subspace,
    contract,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    vec_zero,
)
from .report import ValidationReport


@dataclass(frozen=True)
class HomAction:
    actor: HomLeibnizAlgebra
    target: HomLeibnizAlgebra
    left: tuple  # left[x][m] in target coordinates
    right: tuple  # right[m][x] in target coordinates

    def __post_init__(self):
        dl, dm = self.actor.dim, self.target.dim
        if len(self.left) != dl or any(len(r) != dm for r in self.left):
            raise StructureError("left action tensor must be actor x target")
        if len(self.right) != dm or any(len(r) != dl for r in self.right):
            raise StructureError("right action tensor must be target x actor")
        for grid in (self.left, self.right):
            for row in grid:
                for v in row:
                    if len(v) != dm:
                        raise StructureError("action values must be target coordinate vectors")

    @staticmethod
    def trivial(actor: HomLeibnizAlgebra, target: HomLeibnizAlgebra) -> "HomAction":
        dl, dm = actor.dim, target.dim
        z = vec_zero(target.field, dm)
        return HomAction(actor, target,
                         tuple(tuple(z for _ in range(dm)) for _ in range(dl)),
                         tuple(tuple(z for _ in range(dl)) for _ in range(dm)))

    def act_left(self, x, m) -> tuple:
        """Value of the actor vector x on the target vector m from the left."""
        return contract(self.target.field, self.left, x, m, self.target.dim)

    def act_right(self, m, x) -> tuple:
        return contract(self.target.field, self.right, m, x, self.target.dim)

    def is_trivial(self) -> bool:
        f = self.target.field
        return all(vec_is_zero(f, v) for grid in (self.left, self.right) for row in grid for v in row)

    def validate(self) -> ValidationReport:
        """Check the eight action identities on all basis tuples."""
        L, M = self.actor, self.target
        f = M.field
        rep = ValidationReport(subject="hom-leibniz action",
                               axiom_status={k: True for k in "abcdefgh"})
        tl = [L.apply_twist(L.unit(i)) for i in range(L.dim)]
        tm = [M.apply_twist(M.unit(i)) for i in range(M.dim)]
        lbl, lbm = L.labels, M.labels
        for x in range(L.dim):
            for m in range(M.dim):
                # g) t_M(x.m) = t_L(x).t_M(m)
                if M.apply_twist(self.left[x][m]) != self.act_left(tl[x], tm[m]):
                    rep.record("g", (lbl[x], lbm[m]))
                # h) t_M(m.x) = t_M(m).t_L(x)
                if M.apply_twist(self.right[m][x]) != self.act_right(tm[m], tl[x]):
                    rep.record("h", (lbm[m], lbl[x]))
                for y in range(L.dim):
                    bxy = L.c[x][y]
                    # a) t_M(m).[x,y] = (m.x).t(y) - (m.y).t(x)
                    lhs = self.act_right(tm[m], bxy)
                    rhs = vec_sub(f, self.act_right(self.right[m][x], tl[y]),
                                  self.act_right(self.right[m][y], tl[x]))
                    if lhs != rhs:
                        rep.record("a", (lbm[m], lbl[x], lbl[y]))
                    # b) [x,y].t_M(m) = (x.m).t(y) - t(x).(m.y)
                    lhs = self.act_left(bxy, tm[m])
                    rhs = vec_sub(f, self.act_right(self.left[x][m], tl[y]),
                                  self.act_left(tl[x], self.right[m][y]))
                    if lhs != rhs:
                        rep.record("b", (lbl[x], lbl[y], lbm[m]))
                    # c) t(x).(y.m) = -t(x).(m.y)
                    lhs = self.act_left(tl[x], self.left[y][m])
                    rhs = vec_scale(f, f.neg(f.one()), self.act_left(tl[x], self.right[m][y]))
                    if lhs != rhs:
                        rep.record("c", (lbl[x], lbl[y], lbm[m]))
                for m2 in range(M.dim):
                    bmm = M.c[m][m2]
                    # d) t(x).[m,m'] = [x.m, t_M(m')] - [x.m', t_M(m)]
                    lhs = self.act_left(tl[x], bmm)
                    rhs = vec_sub(f, M.bracket(self.left[x][m], tm[m2]),
                                  M.bracket(self.left[x][m2], tm[m]))
                    if lhs != rhs:
                        rep.record("d", (lbl[x], lbm[m], lbm[m2]))
                    # e) [m,m'].t(x) = [m.x, t_M(m')] + [t_M(m), m'.x]
                    lhs = self.act_right(bmm, tl[x])
                    rhs = vec_add(f, M.bracket(self.right[m][x], tm[m2]),
                                  M.bracket(tm[m], self.right[m2][x]))
                    if lhs != rhs:
                        rep.record("e", (lbm[m], lbm[m2], lbl[x]))
                    # f) [t_M(m), x.m'] = -[t_M(m), m'.x]
                    lhs = M.bracket(tm[m], self.left[x][m2])
                    rhs = vec_scale(f, f.neg(f.one()), M.bracket(tm[m], self.right[m2][x]))
                    if lhs != rhs:
                        rep.record("f", (lbm[m], lbl[x], lbm[m2]))
        rep.flags["trivial"] = self.is_trivial()
        return rep

    def require_valid(self) -> "HomAction":
        rep = self.validate()
        if not rep.valid:
            v = rep.violations[0]
            raise InvalidAction(f"action identity {v.law} fails at {v.witness}", witness=v.witness)
        return self


def bracket_action(parent: HomLeibnizAlgebra, actor_handle, target_handle) -> HomAction:
    """The action of a subalgebra on an ideal of the same parent, by brackets.

    ``actor_handle`` and ``target_handle`` are (algebra, inclusion) pairs as
    produced by :func:`homleib.algebras.subalgebra`; the bracket of the
    parent must carry actor x target into the target subspace.
    """
    actor, incl_a = actor_handle
    target, incl_t = target_handle

    def coords(v):
        q = incl_t.map.preimage(v)
        if q is None:
            raise InvalidAction("bracket escapes the target subspace", witness=(v,))
        return q

    left = tuple(
        tuple(coords(parent.bracket(incl_a.map.column(i), incl_t.map.column(j)))
              for j in range(target.dim))
        for i in range(actor.dim))
    right = tuple(
        tuple(coords(parent.bracket(incl_t.map.column(j), incl_a.map.column(i)))
              for i in range(actor.dim))
        for j in range(target.dim))
    return HomAction(actor, target, left, right)


def self_action(L: HomLeibnizAlgebra) -> HomAction:
    """The adjoint action of an algebra on itself."""
    left = tuple(tuple(L.c[i][j] for j in range(L.dim)) for i in range(L.dim))
    right = tuple(tuple(L.c[j][i] for i in range(L.dim)) for j in range(L.dim))
    return HomAction(L, L, left, right)


@dataclass(frozen=True)
class MutualActions:
    """A pair of actions of two algebras on each other.

    ``mn`` is the action of the first algebra M on the second algebra N,
    ``nm`` the action of N on M.
    """

    mn: HomAction
    nm: HomAction

    def __post_init__(self):
        if self.mn.actor != self.nm.target or self.mn.target != self.nm.actor:
            raise StructureError("the two actions do not connect the same pair of algebras")

    @property
    def m_side(self) -> HomLeibnizAlgebra:
        return self.mn.actor

    @property
    def n_side(self) -> HomLeibnizAlgebra:
        return self.mn.target

    @staticmethod
    def trivial(m: HomLeibnizAlgebra, n: HomLeibnizAlgebra) -> "MutualActions":
        return MutualActions(HomAction.trivial(m, n), HomAction.trivial(n, m))

    @staticmethod
    def adjoint(L: HomLeibnizAlgebra) -> "MutualActions":
        a = self_action(L)
        return MutualActions(a, a)

    def check_compatible(self) -> ValidationReport:
        """The eight compatibility identities between the two actions."""
        M, N = self.m_side, self.n_side
        f = M.field
        rep = ValidationReport(subject="mutual action compatibility",
                               axiom_status={f"c{i}": True for i in range(1, 9)})
        lm, ln = M.labels, N.labels
        for m in range(M.dim):
            em = M.unit(m)
            for n in range(N.dim):
                en = N.unit(n)
                m_up_n = self.nm.right[m][n]   # m acted by n from the right, in M
                n_up_m = self.mn.right[n][m]   # n acted by m from the right, in N
                l_m_n = self.mn.left[m][n]     # m acting on n from the left, in N
                l_n_m = self.nm.left[n][m]     # n acting on m from the left, in M
                for m2 in range(M.dim):
                    em2 = M.unit(m2)
                    # (m.n acting on m') = [m^n, m']
                    if self.nm.act_left(l_m_n, em2) != M.bracket(m_up_n, em2):
                        rep.record("c1", (lm[m], ln[n], lm[m2]))
                    # (n^m acting on m') = [n.m, m']
                    if self.nm.act_left(n_up_m, em2) != M.bracket(l_n_m, em2):
                        rep.record("c2", (ln[n], lm[m], lm[m2]))
                    # m.(m'.n) = [m, m'^n]
                    if self.nm.act_right(em, self.mn.left[m2][n]) != M.bracket(em, self.nm.right[m2][n]):
                        rep.record("c3", (lm[m], lm[m2], ln[n]))
                    # m.(n^m') = [m, n.m']
                    if self.nm.act_right(em, self.mn.right[n][m2]) != M.bracket(em, self.nm.left[n][m2]):
                        rep.record("c4", (lm[m], ln[n], lm[m2]))
                for n2 in range(N.dim):
                    en2 = N.unit(n2)
                    # (n.m acting on n') = [n^m, n']
                    if self.mn.act_left(l_n_m, en2) != N.bracket(n_up_m, en2):
                        rep.record("c5", (ln[n], lm[m], ln[n2]))
                    # (m^n acting on n') = [m.n, n']
                    if self.mn.act_left(m_up_n, en2) != N.bracket(l_m_n, en2):
                        rep.record("c6", (lm[m], ln[n], ln[n2]))
                    # n.(n'.m) = [n, n'^m]
                    if self.mn.act_right(en, self.nm.left[n2][m]) != N.bracket(en, self.mn.right[n2][m]):
                        rep.record("c7", (ln[n], ln[n2], lm[m]))
                    # n.(m^n') = [n, m.n']
                    if self.mn.act_right(en, self.nm.right[m][n2]) != N.bracket(en, self.mn.left[m][n2]):
                        rep.record("c8", (ln[n], lm[m], ln[n2]))
        return rep

    def is_compatible(self) -> bool:
        return self.check_compatible().valid


@dataclass(frozen=True)
class SemidirectProduct:
    algebra: HomLeibnizAlgebra
    include: AlgebraHom   # target summand into the product
    project: AlgebraHom   # product onto the actor summand
    section: AlgebraHom   # actor summand back into the product


def semidirect(action: HomAction) -> SemidirectProduct:
    """Semi-direct product along an action of L on M.

    Underlying space M + L; bracket of (m1, l1) and (m2, l2) is
    ([m1, m2] + t(l1).m2 + m1.t(l2), [l1, l2]); twist acts blockwise.
    """
    action.require_valid()
    M, L = action.target, action.actor
    f = M.field
    n = M.dim + L.dim

    def pair(mv, lv):
        return tuple(mv) + tuple(lv)

    table = []
    for a in range(n):
        row = []
        m1 = M.unit(a) if a < M.dim else vec_zero(f, M.dim)
        l1 = L.unit(a - M.dim) if a >= M.dim else vec_zero(f, L.dim)
        tl1 = L.apply_twist(l1)
        for b in range(n):
            m2 = M.unit(b) if b < M.dim else vec_zero(f, M.dim)
            l2 = L.unit(b - M.dim) if b >= M.dim else vec_zero(f, L.dim)
            mv = M.bracket(m1, m2)
            mv = vec_add(f, mv, action.act_left(tl1, m2))
            mv = vec_add(f, mv, action.act_right(m1, L.apply_twist(l2)))
            row.append(pair(mv, L.bracket(l1, l2)))
        table.append(tuple(row))
    twist_cols = [pair(M.twist.col(j), vec_zero(f, L.dim)) for j in range(M.dim)]
    twist_cols += [pair(vec_zero(f, M.dim), L.twist.col(j)) for j in range(L.dim)]
    twist = LinearMap.from_columns(f, n, twist_cols).matrix
    labels = tuple(f"m.{x}" for x in M.labels) + tuple(f"l.{x}" for x in L.labels)
    prod = HomLeibnizAlgebra(f, n, tuple(table), twist, labels)

    inc_cols = [pair(M.unit(j), vec_zero(f, L.dim)) for j in range(M.dim)]
    include = AlgebraHom(M, prod, LinearMap.from_columns(f, n, inc_cols))
    proj_cols = [vec_zero(f, L.dim) for _ in range(M.dim)] + [L.unit(j) for j in range(L.dim)]
    project = AlgebraHom(prod, L, LinearMap.from_columns(f, L.dim, proj_cols))
    sec_cols = [pair(vec_zero(f, M.dim), L.unit(j)) for j in range(L.dim)]
    section = AlgebraHom(L, prod, LinearMap.from_columns(f, n, sec_cols))
    return SemidirectProduct(prod, include, project, section)


def reconstructed_action(sd: SemidirectProduct) -> HomAction:
    """Action read back from a split extension: x acts on m through the
    bracket of the section and inclusion images inside the total algebra."""
    M, L = sd.include.source, sd.project.target
    K = sd.algebra
    f = K.field

    def down(v):
        q = sd.include.map.preimage(v)
        if q is None:
            raise InvalidAction("bracket value leaves the kernel summand", witness=(v,))
        return q

    left = tuple(
        tuple(down(K.bracket(sd.section.map.column(x), sd.include.map.column(m)))
              for m in range(M.dim))
        for x in range(L.dim))
    right = tuple(
        tuple(down(K.bracket(sd.include.map.column(m), sd.section.map.column(x)))
              for x in range(L.dim))
        for m in range(M.dim))
    return HomAction(L, M, left, right)


def bracket_mutual(parent: HomLeibnizAlgebra, first, second) -> MutualActions:
    """Two (algebra, inclusion) handles of one parent acting on each other by
    brackets: ``first`` on ``second``, then ``second`` on ``first``."""
    return MutualActions(bracket_action(parent, first, second),
                         bracket_action(parent, second, first))


def ideal_pair_actions(parent: HomLeibnizAlgebra, first: Subspace, second: Subspace) -> MutualActions:
    """Mutual bracket actions of two ideals of one parent algebra."""
    from .algebras import subalgebra

    IdealHandle(parent, first).require_ideal()
    IdealHandle(parent, second).require_ideal()
    return bracket_mutual(parent, subalgebra(parent, first, "h"), subalgebra(parent, second, "k"))
