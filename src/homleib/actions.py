"""Hom-Leibniz actions, compatibility of mutual actions, semi-direct products.

An action of (L, t_L) on (M, t_M) is a pair of bilinear maps, held only in
the sparse table form of ``linalg``: ``sparse_left[x][m]`` is the value of
x acting on m from the left and ``sparse_right[m][x]`` that of m acted on
from the right, each the sorted (index, value) pairs of its nonzero target
coordinates.  Builders write the pairs directly; the adjoint action shares
its algebra's ``sparse_c``, and an action induced on a presentation hands
on the ``sparse_cols`` of its induced maps.  Eight
identities tie the actions to the brackets and twists of both algebras, and
eight more make two actions compatible; every identity is multilinear, so
``linalg.check_laws`` checks them on basis tuples, which is exhaustive.
Each law is data, its terms named by table and index position, and runs
only where one of its own terms can be nonzero; the reports are the full
sweep's.
"""

from __future__ import annotations

from .errors import FieldMismatch, InvalidAction, StructureError
from .algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle, bracket_table, subalgebra
from .linalg import (
    Matrix,
    Subspace,
    check_laws,
    contract,
    dense_vec,
    induced_map,
    is_sparse_vec,
    linear,
)
from .report import ValidationReport
from .values import Frozen, Value, cached_property


class HomAction(Value):
    """An action of one algebra on another as its two sparse tables, left and right."""

    actor: HomLeibnizAlgebra
    target: HomLeibnizAlgebra
    sparse_left: tuple  # sparse_left[x][m] as sparse target coordinates
    sparse_right: tuple  # sparse_right[m][x] as sparse target coordinates
    __slots__ = ("actor", "target", "sparse_left", "sparse_right", "__dict__")

    def __init__(self, actor: HomLeibnizAlgebra, target: HomLeibnizAlgebra, sparse_left: tuple, sparse_right: tuple):
        dl, dm, left, right = actor.dim, target.dim, sparse_left, sparse_right
        if len(left) != dl or any(len(r) != dm for r in left):
            raise StructureError("left action tensor must be actor x target")
        if len(right) != dm or any(len(r) != dl for r in right):
            raise StructureError("right action tensor must be target x actor")
        if not all(is_sparse_vec(target.field, v, dm) for table in (left, right) for row in table for v in row):
            raise StructureError("action values must be target coordinate vectors")
        if target.field != actor.field:
            raise FieldMismatch("target algebra over the wrong field")
        Frozen.__init__(self, actor, target, left, right)

    @staticmethod
    def trivial(actor: HomLeibnizAlgebra, target: HomLeibnizAlgebra) -> "HomAction":
        dl, dm = actor.dim, target.dim
        return HomAction(actor, target, (((),) * dm,) * dl, (((),) * dl,) * dm)

    def act_left(self, x, m) -> tuple:
        """Value of the actor vector x on the target vector m from the left."""
        return contract(self.target.field, self.sparse_left, x, m, self.target.dim)

    def act_right(self, m, x) -> tuple:
        return contract(self.target.field, self.sparse_right, m, x, self.target.dim)

    def is_trivial(self) -> bool:
        return not any(v for t in (self.sparse_left, self.sparse_right) for row in t for v in row)

    # the two tables cleared of denominators, each built once when a law reads it
    cleared_left = cached_property(lambda self: self.target.cleared_table(self.sparse_left))
    cleared_right = cached_property(lambda self: self.target.cleared_table(self.sparse_right))

    def validate(self) -> ValidationReport:
        """The eight action identities on all basis tuples, checked once per
        action; the report is shared, so callers only read it."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        L, M, f = self.actor, self.target, self.target.field
        rep = ValidationReport(subject="hom-leibniz action",
                               axiom_status={k: True for k in "abcdefgh"})
        tl, tm, lc, mc = L.twist.cleared_cols, M.twist.cleared_cols, L.cleared_c, M.cleared_c
        left, right = self.cleared_left, self.cleared_right
        lbl, lbm = L.labels, M.labels
        dl, dm = L.dim, M.dim
        # indices (x, m), then (x, m, y) and (x, m, m')
        check_laws(f, rep, (dl, dm), [
            ((dl, dm), [
                # g) t_M(x.m) = t_L(x).t_M(m)
                ("g", ((lbl, 0), (lbm, 1)), [(tm, (left, 0, 1))], [(left, (tl, 0), (tm, 1))]),
                # h) t_M(m.x) = t_M(m).t_L(x)
                ("h", ((lbm, 1), (lbl, 0)), [(tm, (right, 1, 0))], [(right, (tm, 1), (tl, 0))])]),
            ((dl, dm, dl), [
                # a) t_M(m).[x,y] = (m.x).t(y) - (m.y).t(x)
                ("a", ((lbm, 1), (lbl, 0), (lbl, 2)),
                 [(right, (tm, 1), (lc, 0, 2)), (right, (right, 1, 2), (tl, 0))], [(right, (right, 1, 0), (tl, 2))]),
                # b) [x,y].t_M(m) = (x.m).t(y) - t(x).(m.y)
                ("b", ((lbl, 0), (lbl, 2), (lbm, 1)),
                 [(left, (lc, 0, 2), (tm, 1)), (left, (tl, 0), (right, 1, 2))], [(right, (left, 0, 1), (tl, 2))]),
                # c) t(x).(y.m) = -t(x).(m.y)
                ("c", ((lbl, 0), (lbl, 2), (lbm, 1)),
                 [(left, (tl, 0), (left, 2, 1)), (left, (tl, 0), (right, 1, 2))], [])]),
            ((dl, dm, dm), [
                # d) t(x).[m,m'] = [x.m, t_M(m')] - [x.m', t_M(m)]
                ("d", ((lbl, 0), (lbm, 1), (lbm, 2)),
                 [(left, (tl, 0), (mc, 1, 2)), (mc, (left, 0, 2), (tm, 1))], [(mc, (left, 0, 1), (tm, 2))]),
                # e) [m,m'].t(x) = [m.x, t_M(m')] + [t_M(m), m'.x]
                ("e", ((lbm, 1), (lbm, 2), (lbl, 0)),
                 [(right, (mc, 1, 2), (tl, 0))], [(mc, (right, 1, 0), (tm, 2)), (mc, (tm, 1), (right, 2, 0))]),
                # f) [t_M(m), x.m'] = -[t_M(m), m'.x]
                ("f", ((lbm, 1), (lbl, 0), (lbm, 2)),
                 [(mc, (tm, 1), (left, 0, 2)), (mc, (tm, 1), (right, 2, 0))], [])])])
        rep.flags["trivial"] = self.is_trivial()
        return rep

    def require_valid(self) -> "HomAction":
        self.validate().require(lambda v: InvalidAction(
            f"action identity {v.law} fails at {v.witness}", witness=v.witness))
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
        q = incl_t.map.preimage_sparse(v)
        if q is None:
            raise InvalidAction("bracket escapes the target subspace",
                                witness=(dense_vec(parent.field, parent.dim, v),))
        return q

    return HomAction(actor, target, bracket_table(parent, incl_a.map, incl_t.map, coords),
                     bracket_table(parent, incl_t.map, incl_a.map, coords))


def induced_action(actor: HomLeibnizAlgebra, target: HomLeibnizAlgebra, pres, left, right,
                   error) -> HomAction:
    """The action of ``actor`` on the algebra ``target`` presented by
    ``pres``.  ``left`` and ``right`` are the sparse ambient columns of the
    left and right actions, actor-major: the value of the actor basis
    vector a at the ambient generator g is column a * n + g, n the ambient
    dimension.  Each actor's left map, then its right one, is certified to
    descend by ``induced_map`` on ``pres`` (raising ``error``), and its
    column k is the value at coset generator k."""
    n, lmaps, rmaps = pres.ambient_dim, [], []
    for a in range(actor.dim):
        for maps, cols in ((lmaps, left), (rmaps, right)):
            maps.append(induced_map(cols[a * n:(a + 1) * n], pres, pres, error).sparse_cols)
    return HomAction(actor, target, tuple(lmaps), tuple(tuple(m[k] for m in rmaps) for k in range(target.dim)))


def self_action(L: HomLeibnizAlgebra) -> HomAction:
    """The adjoint action of an algebra on itself, on its own sparse table."""
    return HomAction(L, L, L.sparse_c, L.sparse_c)


class MutualActions(Value):
    """A pair of actions of two algebras on each other.

    ``mn`` is the action of the first algebra M on the second algebra N,
    ``nm`` the action of N on M.
    """

    mn: HomAction
    nm: HomAction
    __slots__ = ("mn", "nm", "__dict__")

    def __init__(self, mn: HomAction, nm: HomAction):
        if mn.actor != nm.target or mn.target != nm.actor:
            raise StructureError("the two actions do not connect the same pair of algebras")
        Frozen.__init__(self, mn, nm)

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
        """The eight compatibility identities between the two actions: c1-c4
        in M, and c5-c8, the same four with M and N exchanged, in N, checked
        once per pair; the report is shared, so callers only read it."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        M, N = self.m_side, self.n_side
        rep = ValidationReport(subject="mutual action compatibility",
                               axiom_status={f"c{i}": True for i in range(1, 9)})
        check_laws(M.field, rep, (M.dim, N.dim), [
            ((M.dim, N.dim, M.dim), _compatibility_laws(M, N, self.nm, self.mn, ("c1", "c2", "c3", "c4"), 0, 1)),
            ((M.dim, N.dim, N.dim), _compatibility_laws(N, M, self.mn, self.nm, ("c5", "c6", "c7", "c8"), 1, 0))])
        return rep

    def is_compatible(self) -> bool:
        return self.check_compatible().valid


def _compatibility_laws(A, B, on_a: HomAction, on_b: HomAction, names, pa, pb):
    """The four compatibility laws in A for the action ``on_a`` of B on A
    and ``on_b`` of A on B, over index tuples with a at position pa, b in B
    at pb and a' last (a, a' in A); x>y is x acting on y from the left, x<y
    is x acted by y from the right."""
    la, lb, c = A.labels, B.labels, A.cleared_c
    b_on_a, a_by_b = on_a.cleared_left, on_a.cleared_right   # in A
    a_on_b, b_by_a = on_b.cleared_left, on_b.cleared_right   # in B
    # acting on a' or bracketing with it is the bilinear map at e[a']
    e = tuple(((a, A.field.one()),) for a in range(A.dim))
    return [
        # (a>b)>a' = [a<b, a']
        (names[0], ((la, pa), (lb, pb), (la, 2)),
         [(b_on_a, (a_on_b, pa, pb), (e, 2))], [(c, (a_by_b, pa, pb), (e, 2))]),
        # (b<a)>a' = [b>a, a']
        (names[1], ((lb, pb), (la, pa), (la, 2)),
         [(b_on_a, (b_by_a, pb, pa), (e, 2))], [(c, (b_on_a, pb, pa), (e, 2))]),
        # a<(a'>b) = [a, a'<b]
        (names[2], ((la, pa), (la, 2), (lb, pb)),
         [(a_by_b, (e, pa), (a_on_b, 2, pb))], [(c, (e, pa), (a_by_b, 2, pb))]),
        # a<(b<a') = [a, b>a']
        (names[3], ((la, pa), (lb, pb), (la, 2)),
         [(a_by_b, (e, pa), (b_by_a, pb, 2))], [(c, (e, pa), (b_on_a, pb, 2))])]


class SemidirectProduct(Frozen):
    """The semi-direct product of an action with its inclusion, projection and section."""

    algebra: HomLeibnizAlgebra
    include: AlgebraHom   # target summand into the product
    project: AlgebraHom   # product onto the actor summand
    section: AlgebraHom   # actor summand back into the product
    __slots__ = ("algebra", "include", "project", "section")


def semidirect(action: HomAction) -> SemidirectProduct:
    """Semi-direct product along an action of L on M.

    Underlying space M + L; bracket of (m1, l1) and (m2, l2) is
    ([m1, m2] + t(l1).m2 + m1.t(l2), [l1, l2]); twist acts blockwise.  On
    basis pairs each term lives in one block: [m, m'] is M's table, m.t(l)
    and t(l).m are the action tables at the twisted l, and [l, l'] is L's.
    """
    action.require_valid()
    M, L = action.target, action.actor
    f, dm, one = M.field, M.dim, M.field.one()
    n = dm + L.dim
    tl, right = L.twist.sparse_cols, action.sparse_right
    acting = tuple(zip(*action.sparse_left))  # acting[m][x]: x acting on m from the left

    def up(v):  # a sparse vector of L in the L summand
        return tuple((dm + k, x) for k, x in v)

    def block(a, b):  # [e_a, e_b] from the four blocks, as sorted pairs
        if a < dm:
            return M.sparse_c[a][b] if b < dm else tuple(sorted(linear(f, right[a], tl[b - dm])))
        if b < dm:
            return tuple(sorted(linear(f, acting[b], tl[a - dm])))
        return up(L.sparse_c[a - dm][b - dm])

    table = tuple(tuple(block(a, b) for b in range(n)) for a in range(n))
    twist = Matrix.from_columns(f, n, M.twist.sparse_cols + tuple(map(up, tl)))
    labels = tuple(f"m.{x}" for x in M.labels) + tuple(f"l.{x}" for x in L.labels)
    prod = HomLeibnizAlgebra.from_sparse(f, n, table, twist, labels)
    units = [((j, one),) for j in range(L.dim)]
    include = AlgebraHom(M, prod, Matrix.from_columns(f, n, [((j, one),) for j in range(dm)]))
    project = AlgebraHom(prod, L, Matrix.from_columns(f, L.dim, [()] * dm + units))
    section = AlgebraHom(L, prod, Matrix.from_columns(f, n, map(up, units)))
    return SemidirectProduct(prod, include, project, section)


def bracket_mutual(parent: HomLeibnizAlgebra, first, second) -> MutualActions:
    """Two (algebra, inclusion) handles of one parent acting on each other by
    brackets: ``first`` on ``second``, then ``second`` on ``first``."""
    return MutualActions(bracket_action(parent, first, second),
                         bracket_action(parent, second, first))


def ideal_pair_actions(parent: HomLeibnizAlgebra, first: Subspace, second: Subspace) -> MutualActions:
    """Mutual bracket actions of two ideals of one parent algebra."""
    IdealHandle(parent, first).require_ideal()
    IdealHandle(parent, second).require_ideal()
    return bracket_mutual(parent, subalgebra(parent, first, "h"), subalgebra(parent, second, "k"))
