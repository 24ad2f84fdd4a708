"""The non-abelian tensor product of two Hom-Leibniz algebras acting
compatibly on each other.

The ambient space has one generator per elementary symbol: the block of
pure tensors m (x) n first, then the block n (x) m, row-major in basis
indices.  Ten multilinear relation families are instantiated on basis
tuples and spanned; the tensor product is the quotient.  Bilinearity is
built into the ambient space itself.  The families are data for
``linalg.law_rows``: every term is a pure tensor of two sparse vectors, a
bilinear term in a ``linalg.tensor_table`` block, so ``check_laws``' own
support rule skips exactly the instances in which each term has an empty
leg, which are zero; the span is unchanged.  Each family is needed on some
compatible pair.  On a tensor square under adjoint actions the block swap
u*v <-> u*v' carries the other seven families into the span S of r1, r3
and r7 and its swap, so only those three are instantiated and the
relations are S + swap(S) (both proofs are at ``relation_vectors``).  The
same swap carries the relations of (M, N) onto those of (N, M), so
``ideal_sequence_certificate`` generates the span of each distinct
relation data once and presents every product of its row on it.

The bracket of two generators factors through the two evaluation maps

    eval_m(m*n) = m acted by n,   eval_m(n*m) = n acting on m   (into M)
    eval_n(m*n) = m acting on n,  eval_n(n*m) = n acted by m    (into N)

as [x, y] = eval_m(x) * eval_n(y), always landing in the first block.
The quotient algebra comes from ``algebras.certified_quotient`` with the
two evaluation maps as the bracket factors, so descent of the bracket and
of the induced twist is certified, never assumed.  On compatible actions
the evaluations kill every relation (the crossed-module property of the
tensor product), and two sparse products per relation basis row certify
the bracket; a row they do not kill falls back to the full check.  A
failure aborts loudly since it would contradict the construction.  Maps
between tensor products, the factor maps ``into_m`` and ``into_n`` and the
outer actions are each ``linalg.induced_map`` of an ambient map; the outer
actions' ambient columns are ``linalg.law_columns`` data.
"""

from __future__ import annotations


from .errors import IncompatibleActions, InternalInconsistency, NotEquivariant
from .actions import HomAction, MutualActions, bracket_mutual, induced_action
from .algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle, center, certified_quotient
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    check_laws,
    induced_map,
    dense_vec,
    exact,
    law_columns,
    law_rows,
    quotient,
    sparse_outer,
    sparse_vec,
    tensor_table,
)
from .report import ExactnessReport, ValidationReport
from .values import Frozen, cached_property


class TensorProduct(Frozen):
    """A non-abelian tensor product: its actions, presentation, algebra and evaluations into M and N."""

    actions: MutualActions
    presentation: QuotientSpace
    algebra: HomLeibnizAlgebra
    eval_m: Matrix  # ambient -> M
    eval_n: Matrix  # ambient -> N
    __slots__ = ("actions", "presentation", "algebra", "eval_m", "eval_n", "__dict__")

    @property
    def m_side(self) -> HomLeibnizAlgebra:
        return self.actions.m_side

    @property
    def n_side(self) -> HomLeibnizAlgebra:
        return self.actions.n_side

    @property
    def ambient_dim(self) -> int:
        return self.presentation.ambient_dim

    def embed_mn(self, u, v) -> tuple:
        """The pure tensor of dense vectors u (x) v in the block m*n, as a dense ambient vector."""
        f = self.m_side.field
        return dense_vec(f, self.ambient_dim, sparse_outer(f, sparse_vec(u), sparse_vec(v), len(v)))

    def ambient_bracket(self, x, y) -> tuple:
        return self.embed_mn(self.eval_m.apply(x), self.eval_n.apply(y))

    def ambient_twist(self) -> Matrix:
        return Matrix.from_columns(self.m_side.field, self.ambient_dim, _ambient_twist(self.m_side, self.n_side))

    @cached_property
    def into_m(self) -> AlgebraHom:
        """The factor map onto M, the homomorphism ``eval_m`` induces on the
        product; on the tensor square of a perfect algebra under adjoint
        actions it is the universal central extension x*y -> [x, y]."""
        return _factor_map(self, self.m_side, self.eval_m, "first")

    @cached_property
    def into_n(self) -> AlgebraHom:
        """The factor map onto N, induced by ``eval_n``; on a tensor square,
        where the two evaluations agree, ``into_m`` itself."""
        if (self.n_side, self.eval_n) == (self.m_side, self.eval_m):
            return self.into_m
        return _factor_map(self, self.n_side, self.eval_n, "second")


def _factor_map(t: TensorProduct, side: HomLeibnizAlgebra, ev: Matrix, name: str) -> AlgebraHom:
    """The evaluation ``ev`` onto ``side`` on the product's classes,
    certified to kill the relations and to be a homomorphism."""
    hom = AlgebraHom(t.algebra, side, induced_map(
        ev, t.presentation, quotient(side.field, side.dim, ()),
        lambda r, w: InternalInconsistency("evaluation map does not kill the relations", witness=(r,))))
    hom.validate().require(lambda v: InternalInconsistency(
        f"evaluation onto the {name} factor is not a homomorphism", witness=v.witness))
    return hom


def _generator_labels(M, N) -> tuple:
    # the second block gets a prime so tensor squares stay unambiguous
    out = [f"{a}*{b}" for a in M.labels for b in N.labels]
    out += [f"{b}*{a}'" for b in N.labels for a in M.labels]
    return tuple(out)


def _ambient_map(f, fm, gn, dm, dn) -> tuple:
    """The sparse columns of the map of ambient generators m*n -> fm[m]*gn[n]
    and n*m -> gn[n]*fm[m], for sparse columns fm into a dm-space and gn
    into a dn-space."""
    return tuple([sparse_outer(f, u, v, dn) for u in fm for v in gn] +
                 [sparse_outer(f, v, u, dm, dm * dn) for v in gn for u in fm])


def _ambient_twist(M, N) -> tuple:
    return _ambient_map(M.field, M.twist.sparse_cols, N.twist.sparse_cols, M.dim, N.dim)


def _eval_maps(ma: MutualActions):
    """The two evaluation maps on ambient generators: the columns are the
    action values on the row-major blocks m*n, then n*m."""
    M, N = ma.m_side, ma.n_side

    def flat(first, second):
        return [v for table in (first, second) for row in table for v in row]

    eval_m = Matrix.from_columns(M.field, M.dim, flat(ma.nm.sparse_right, ma.nm.sparse_left))  # m<n, n>m
    eval_n = Matrix.from_columns(M.field, N.dim, flat(ma.mn.sparse_left, ma.mn.sparse_right))  # m>n, n<m
    return eval_m, eval_n


def _is_square(ma: MutualActions) -> bool:
    """Whether the pair is a tensor square under adjoint actions: the two
    sides carry equal dimension, twist and bracket, and all four actions
    are that bracket.  That is, the relation data equals its own exchange
    and each side acts by its bracket from the left and from the right."""
    data = _relation_data(ma)
    return data == data[::-1] and all(c == left == right for _, _, c, left, right in data)


def relation_vectors(ma: MutualActions):
    """Yield the spanning relation instances over basis tuples, less those
    that are zero by sparsity (on a tensor square, of r1, r3 and r7 only).

    The ten families are ``linalg.law_rows`` data: each term is a pure
    tensor of two sparse vectors in one of the two blocks, and an instance
    is yielded only when one of its terms has two nonempty legs.  Each row
    is the sorted (column, value) pairs of the instance's nonzero ambient
    coordinates; the nonzero rows are those of the full enumeration, in the
    order below, and a row whose terms cancel is still yielded, empty.

    Families, with m, m' in M and n, n' in N (all basis vectors):
      r1  t(m) * [n,n']  - m.n * t(n')   + m.n' * t(n)              (block mn)
      r2  t(n) * [m,m']  - n.m * t(m')   + n.m' * t(m)              (block nm)
      r3  [m,m'] * t(n)  - (m>n) * t(m') + t(m) * (n<m')            (mixed)
      r4  [n,n'] * t(m)  - (n>m) * t(n') + t(n) * (m<n')            (mixed)
      r5  t(m) * (m'>n)  + t(m) * (n<m')                            (block mn)
      r6  t(n) * (n'>m)  + t(n) * (m<n')                            (block nm)
      r7  (m<n) * (m'>n')  - (m>n) * (m'<n')
      r8  (m<n) * (n'<m')  - (m>n) * (n'>m')
      r9  (n>m) * (m'>n')  - (n<m) * (m'<n')
      r10 (n>m) * (n'<m')  - (n<m) * (n'>m')
    where x>y is x acting on y from the left and x<y is x acted by y from
    the right.  r1 and r4 run over (m, n, n'), r2 and r3 over (n, m, m'), r5
    over (m, m', n), r6 over (n, n', m) and r7-r10 over (m, n, m', n').

    Off a square each family is needed: on some compatible pair, dropping
    it shrinks the span (tests/test_tensor.py pins a pair for each).  Two
    pairs of abelian algebras, each passing the eight action identities on
    both sides and the eight compatibility identities, show it for r5 and
    r7, and their exchanges (N, M), below, for r6 and r10:
      * M = <m>, N = <n1, n2>, identity twists, the one nonzero action value
        m>n1 = n2: every family but r3 and r5 is zero, r3 spans n2*m, and
        r5(m, m, n1) = m*n2 lies outside that span;
      * M = <m1, m2>, N = <n1, n2>, zero twists, the nonzero values
        m1<n1 = m2 and m1>n1 = n2: each term of r1-r6 has a twist leg and
        each of r8-r10 a leg n>m or n<m, all zero, while
        r7(m1, n1, m1, n1) = m2*n2 - n2*m2.

    On a square (``_is_square``: both sides carry the same twist and
    bracket, and all four actions are that bracket, x>y = x<y = [x, y]) let
    swap exchange the two blocks, u*v <-> u*v'.  Reading each family off
    the list above:
      * r2, r4 and r6 are swap(r1), swap(r3) and swap(r5) at the same tuple;
      * r8, r9 and r10 are r7 at (m, n, n', m'), (n, m, m', n'), (n, m, n', m');
      * r7 = u*v - u*v' with u = [m, n], v = [m', n'], so swap(r7) = -r7;
      * r5(m, m', n) = r1(m, m', n) + r1(m, n, m'): the terms [m, m']*t(n)
        and [m, n]*t(m') cancel, leaving t(m)*([m', n] + [n, m']).
    So the relations are S + swap(S), S the span of r1, r3 and r7: only
    those are yielded, and ``relation_span`` adds the span of swap(S).  The
    last step needs the actions to be the bracket: the abelian <n1, n2>
    with the identity twist, acting on itself by n1>n1 = n1<n1 = n2 on
    both sides, has r5(n1, n1, n1) = 2 n1*n2 outside the span of the other
    nine families.

    Exchanging the factors.  The same swap carries the ambient space of
    (M, N) onto that of (N, M): m*n, the generator i*dn + j of the first
    block here, is the generator dm*dn + i*dn + j of the second block there,
    and n*m goes the other way.  The pair (N, M) reads the same data with
    the roles exchanged: its first side is N, its two actions on its second
    side are n>m and n<m here, and those on its first are m>n and m<n.
    Reading its families off the list above, at the same basis vectors:
      * its r1 at (n, m, m') is swap(r2) at (n, m, m'), its r2 at (m, n, n')
        is swap(r1), and likewise r3 <-> r4 (its r3 at (m, n, n') is
        swap(r4) there, its r4 at (n, m, m') swap(r3)) and r5 <-> r6 (at
        (n, n', m) and (m, m', n));
      * its r7, r8, r9 and r10 at (n, m, n', m') are -swap(r10), -swap(r9),
        -swap(r8) and -swap(r7) at (m, n, m', n'): e.g. its r7 is
        (n<m) * (n'>m') in the block n*m less (n>m) * (n'<m') in m*n.
    Every family maps and none is left over, so the relations of (N, M) are
    swap applied to those of (M, N) (``ideal_sequence_certificate`` builds
    L*M's so); a square is the case (N, M) = (M, N).
    """
    M, N = ma.m_side, ma.n_side
    f, dm, dn = M.field, M.dim, N.dim
    tm, tn, cm, cn = M.twist.cleared_cols, N.twist.cleared_cols, M.cleared_c, N.cleared_c
    m_on_n, n_by_m = ma.mn.cleared_left, ma.mn.cleared_right   # in N
    n_on_m, m_by_n = ma.nm.cleared_left, ma.nm.cleared_right   # in M
    mn, nm = tensor_table(f, dm, dn), tensor_table(f, dn, dm, dm * dn)  # the blocks m*n and n*m
    r1 = ("r1", (), [(mn, (tm, 0), (cn, 1, 2)), (mn, (m_by_n, 0, 2), (tn, 1))], [(mn, (m_by_n, 0, 1), (tn, 2))])
    r2 = ("r2", (), [(nm, (tn, 0), (cm, 1, 2)), (nm, (n_by_m, 0, 2), (tm, 1))], [(nm, (n_by_m, 0, 1), (tm, 2))])
    r3 = ("r3", (), [(mn, (cm, 1, 2), (tn, 0)), (mn, (tm, 1), (n_by_m, 0, 2))], [(nm, (m_on_n, 1, 0), (tm, 2))])
    r4 = ("r4", (), [(nm, (cn, 1, 2), (tm, 0)), (nm, (tn, 1), (m_by_n, 0, 2))], [(mn, (n_on_m, 1, 0), (tn, 2))])
    r5 = ("r5", (), [(mn, (tm, 0), (m_on_n, 1, 2)), (mn, (tm, 0), (n_by_m, 2, 1))], [])
    r6 = ("r6", (), [(nm, (tn, 0), (n_on_m, 1, 2)), (nm, (tn, 0), (m_by_n, 2, 1))], [])
    r7 = ("r7", (), [(mn, (m_by_n, 0, 1), (m_on_n, 2, 3))], [(nm, (m_on_n, 0, 1), (m_by_n, 2, 3))])
    r8 = ("r8", (), [(mn, (m_by_n, 0, 1), (n_by_m, 3, 2))], [(nm, (m_on_n, 0, 1), (n_on_m, 3, 2))])
    r9 = ("r9", (), [(mn, (n_on_m, 1, 0), (m_on_n, 2, 3))], [(nm, (n_by_m, 1, 0), (m_by_n, 2, 3))])
    r10 = ("r10", (), [(mn, (n_on_m, 1, 0), (n_by_m, 3, 2))], [(nm, (n_by_m, 1, 0), (n_on_m, 3, 2))])
    mnn, nmm, mmn, nnm, mnmn = (dm, dn, dn), (dn, dm, dm), (dm, dm, dn), (dn, dn, dm), (dm, dn, dm, dn)
    yield from law_rows(f, [(mnn, [r1]), (nmm, [r3]), (mnmn, [r7])] if _is_square(ma) else [
        (mnn, [r1, r4]), (nmm, [r2, r3]), (mmn, [r5]), (nnm, [r6]), (mnmn, [r7, r8, r9, r10])])


def _require_compatible(ma: MutualActions) -> None:
    ma.check_compatible().require(lambda v: IncompatibleActions(
        f"compatibility {v.law} fails at {v.witness}", witness=v.witness))


def _block_swap(ma: MutualActions) -> tuple:
    """The ambient coordinate permutation u*v <-> u*v' exchanging the two
    blocks: of a square onto itself, and of (M, N) onto (N, M)."""
    half = ma.m_side.dim * ma.n_side.dim
    return tuple(range(half, 2 * half)) + tuple(range(half))


def _relation_data(ma: MutualActions) -> tuple:
    """All that ``relation_vectors`` reads of a pair, one tuple per side:
    dimension, twist, bracket, and the two actions of that side on the
    other.  Reversed, it is the data of the exchanged pair (N, M)."""
    return tuple((A.dim, A.twist.sparse_cols, A.sparse_c, act.sparse_left, act.sparse_right)
                 for A, act in ((ma.m_side, ma.mn), (ma.n_side, ma.nm)))


def relation_span(ma: MutualActions) -> Subspace:
    """The relation subspace of the ambient space: the span of the rows of
    ``relation_vectors``, and on a square its sum with its block swap.
    Incompatible actions are refused before any row is generated."""
    _require_compatible(ma)
    M, N = ma.m_side, ma.n_side
    span = Subspace.span_sparse(M.field, 2 * M.dim * N.dim, relation_vectors(ma))
    return span.permuted(_block_swap(ma), keep=True) if _is_square(ma) else span


def present_tensor(ma: MutualActions, relations: Subspace) -> TensorProduct:
    """The tensor product of compatibly acting algebras presented on
    ``relations``, which must be ``relation_span(ma)``: the one generated,
    or one equal to it by construction (``ideal_sequence_certificate``).
    Compatibility and the descent of bracket and twist are checked here."""
    _require_compatible(ma)
    M, N = ma.m_side, ma.n_side
    pres = QuotientSpace(relations)
    eval_m, eval_n = _eval_maps(ma)
    all_labels = _generator_labels(M, N)
    labels = [all_labels[c] for c in pres.coset_basis]
    algebra = certified_quotient(pres, eval_m, eval_n, _ambient_twist(M, N), labels)
    return TensorProduct(ma, pres, algebra, eval_m, eval_n)


def build_tensor(ma: MutualActions) -> TensorProduct:
    """Construct the tensor product algebra of compatibly acting algebras."""
    return present_tensor(ma, relation_span(ma))


def outer_action(t: TensorProduct, side: str) -> HomAction:
    """The action of one factor on the tensor product algebra.

    For an actor a in the chosen factor and generators of the product:
    on the M side
        a . (m*n) = [a,m] * t(n) - (a.n) * t(m)
        a . (n*m) = (a.n) * t(m) - [a,m] * t(n)
        (m*n) . a = [m,a] * t(n) + t(m) * (n<a)
        (n*m) . a = (n<a) * t(m) + t(n) * [m,a]
    and symmetrically on the N side.  Each formula is ``linalg.law_columns``
    data, one law per block, over (a, m, n) in the block m*n and (a, n, m)
    in n*m, so the columns are actor-major in ambient order.
    """
    M, N = t.m_side, t.n_side
    f, dm, dn = M.field, M.dim, N.dim
    mn, nm = t.actions.mn, t.actions.nm
    # the actor on m and on n, as [a][m] and [a][n], and m and n acted by it, as [m][a] and [n][a]
    if side == "m":
        actor, on_m, on_n, m_by, n_by = M, M.cleared_c, mn.cleared_left, M.cleared_c, mn.cleared_right
    elif side == "n":
        actor, on_m, on_n, m_by, n_by = N, nm.cleared_left, N.cleared_c, nm.cleared_right, N.cleared_c
    else:
        raise ValueError("side must be 'm' or 'n'")
    tm, tn, da = M.twist.cleared_cols, N.twist.cleared_cols, actor.dim
    mn_t, nm_t = tensor_table(f, dm, dn), tensor_table(f, dn, dm, dm * dn)  # the blocks m*n and n*m
    amn, anm = (da, dm, dn), (da, dn, dm)
    left = law_columns(f, (da,), [
        (amn, [("a.(m*n)", (), [(mn_t, (on_m, 0, 1), (tn, 2))], [(nm_t, (on_n, 0, 2), (tm, 1))])]),
        (anm, [("a.(n*m)", (), [(nm_t, (on_n, 0, 1), (tm, 2))], [(mn_t, (on_m, 0, 2), (tn, 1))])])])
    right = law_columns(f, (da,), [
        (amn, [("(m*n).a", (), [(mn_t, (m_by, 1, 0), (tn, 2)), (mn_t, (tm, 1), (n_by, 2, 0))], [])]),
        (anm, [("(n*m).a", (), [(nm_t, (n_by, 1, 0), (tm, 2)), (nm_t, (tn, 1), (m_by, 2, 0))], [])])])
    # the formulas are linear in the ambient generator; they must carry the
    # relations into the relations for the quotient action to exist
    action = induced_action(actor, t.algebra, t.presentation, left, right, lambda r, w: InternalInconsistency(
        "outer action does not descend to the quotient", witness=(side, r)))
    action.validate().require(lambda v: InternalInconsistency(
        f"outer action identity {v.law} fails at {v.witness}", witness=v.witness))
    return action


def equivariance_witness(f_hom: AlgebraHom, g_hom: AlgebraHom,
                         src: MutualActions, dst: MutualActions):
    """None when (f, g) preserve the four action tensors, else a witness:
    the four laws run as ``linalg.check_laws`` data over (m, n), each a
    source action value under f or g against the target action at the
    images, and the first violation, law name first, is the witness."""
    M, N = src.m_side, src.n_side
    fc, gc, lm, ln = f_hom.map.cleared_cols, g_hom.map.cleared_cols, M.labels, N.labels
    rep = ValidationReport(subject="action equivariance")
    check_laws(M.field, rep, (), [((M.dim, N.dim), [
        # f(n>m) = g(n)>f(m)
        ("n acting on m", ((ln, 1), (lm, 0)), [(fc, (src.nm.cleared_left, 1, 0))],
         [(dst.nm.cleared_left, (gc, 1), (fc, 0))]),
        # f(m<n) = f(m)<g(n)
        ("m acted by n", ((lm, 0), (ln, 1)), [(fc, (src.nm.cleared_right, 0, 1))],
         [(dst.nm.cleared_right, (fc, 0), (gc, 1))]),
        # g(m>n) = f(m)>g(n)
        ("m acting on n", ((lm, 0), (ln, 1)), [(gc, (src.mn.cleared_left, 0, 1))],
         [(dst.mn.cleared_left, (fc, 0), (gc, 1))]),
        # g(n<m) = g(n)<f(m)
        ("n acted by m", ((ln, 1), (lm, 0)), [(gc, (src.mn.cleared_right, 1, 0))],
         [(dst.mn.cleared_right, (gc, 1), (fc, 0))])])])
    return next(((v.law, *v.witness) for v in rep.violations), None)


def tensor_identity_battery(t: TensorProduct) -> ExactnessReport:
    """Battery of identities tying the factor maps, the outer actions, the
    bracket and the twist of a tensor product:

      * the two factor-map kernels sit inside the center;
      * values of a factor map act trivially on its kernel;
      * factor maps intertwine outer actions with twisted brackets;
      * acting through a factor-map value equals bracketing with the twisted
        class, on either side and through either factor.

    The last three families are ``linalg.check_laws`` data, each law named
    by its check, which holds when no instance of its laws is recorded; all
    run over basis tuples and generator classes with exact arithmetic.
    """
    rep = ExactnessReport(subject="tensor pairing battery")
    T = t.algebra
    into_m, into_n = t.into_m, t.into_n
    gens = t.presentation.projection_map()
    cls, tw, n = gens.cleared_cols, T.twist.compose(gens).cleared_cols, gens.cols  # the generator classes, twisted
    z = center(T)
    rep.check("first kernel inside the center", z.contains_subspace(into_m.map.kernel()))
    rep.check("second kernel inside the center", z.contains_subspace(into_n.map.kernel()))

    checks, through = [], []  # (name, dims, [(plus, minus)] of its laws); each side's action tables and values
    for name, hom, side, F in (("first", into_m, "m", t.m_side), ("second", into_n, "n", t.n_side)):
        act, h, ft, c = outer_action(t, side), hom.map.cleared_cols, F.twist.cleared_cols, F.cleared_c
        left, right, vals = act.cleared_left, act.cleared_right, hom.map.compose(gens).cleared_cols
        ker = hom.map.kernel().sparse_rows
        through.append((left, right, vals))
        checks += [
            # h(g).k = 0 = k.h(g) for a generator class g and a kernel row k
            (f"{name} factor values act trivially on the kernel", (n, len(ker)),
             [([(left, (vals, 0), (ker, 1))], []), ([(right, (ker, 1), (vals, 0))], [])]),
            # h(a.e_k) = [t(a), h(e_k)] and h(e_k.a) = [h(e_k), t(a)]
            (f"{name} factor map intertwines the left outer action", (F.dim, T.dim),
             [([(h, (left, 0, 1))], [(c, (ft, 0), (h, 1))])]),
            (f"{name} factor map intertwines the right outer action", (F.dim, T.dim),
             [([(h, (right, 1, 0))], [(c, (h, 1), (ft, 0))])])]
    # h(g).g' = [t(g), g'] and g'.h(g) = [g', t(g)] through either factor
    checks += [("acting through factor values is the twisted bracket, left", (n, n),
                [([(tab, (v, 0), (cls, 1))], [(T.cleared_c, (tw, 0), (cls, 1))]) for tab, _, v in through]),
               ("acting through factor values is the twisted bracket, right", (n, n),
                [([(tab, (cls, 1), (v, 0))], [(T.cleared_c, (cls, 1), (tw, 0))]) for _, tab, v in through])]
    laws = ValidationReport(subject="tensor pairing laws")
    check_laws(T.field, laws, (), [(dims, [(name, (), *terms) for terms in pairs]) for name, dims, pairs in checks])
    failed = {v.law for v in laws.violations}
    for name, _, _ in checks:
        rep.check(name, name not in failed)
    return rep


def right_exactness_certificate(f_hom: AlgebraHom, g_hom: AlgebraHom,
                                ma1: MutualActions, ma2: MutualActions,
                                ma3: MutualActions) -> ExactnessReport:
    """Certificate that tensoring a short exact sequence with a fixed partner
    stays exact on the right.

    ``f_hom`` and ``g_hom`` form a short exact sequence of the first factors;
    the three mutual-action structures share the partner algebra and the
    maps preserve the actions.  Checks by exact rank arithmetic that the
    induced map of ``g_hom`` is onto and its kernel is the image of the map
    induced by ``f_hom``.
    """
    rep = ExactnessReport(subject="tensored right exactness")
    rep.check("f injective", f_hom.map.is_injective())
    rep.check("g surjective onto the third algebra", g_hom.map.is_surjective())
    rep.check("im f = ker g", exact(f_hom.map, g_hom.map))
    t1, t2, t3 = build_tensor(ma1), build_tensor(ma2), build_tensor(ma3)
    rep.dims["first tensor"] = t1.algebra.dim
    rep.dims["middle tensor"] = t2.algebra.dim
    rep.dims["third tensor"] = t3.algebra.dim
    idn = AlgebraHom(ma1.n_side, ma1.n_side, Matrix.identity(f_hom.map.field, ma1.n_side.dim))
    big_f = induced_tensor_map(f_hom, idn, t1, t2)
    big_g = induced_tensor_map(g_hom, idn, t2, t3)
    rep.check("induced g surjective", big_g.map.is_surjective())
    rep.check("exact at the middle tensor", exact(big_f.map, big_g.map))
    return rep


class IdealSequenceData(Frozen):
    """The tensor row attached to an ideal: everything needed downstream."""

    t_ml: TensorProduct     # ideal with the whole algebra
    t_lm: TensorProduct     # whole algebra with the ideal
    t_ll: TensorProduct     # tensor square of the whole algebra
    t_qq: TensorProduct     # tensor square of the quotient
    incl: AlgebraHom        # ideal into the algebra
    proj: AlgebraHom        # algebra onto the quotient
    sigma: Matrix           # (ideal*L) + (L*ideal) -> L*L
    tau: AlgebraHom         # L*L -> quotient square
    report: ExactnessReport
    __slots__ = ("t_ml", "t_lm", "t_ll", "t_qq", "incl", "proj", "sigma", "tau", "report")


def ideal_sequence_certificate(L: HomLeibnizAlgebra, ideal: IdealHandle) -> IdealSequenceData:
    """Exactness of   (M*L) + (L*M)  ->  L*L  ->  (L/M)*(L/M)  ->  0
    for a two-sided twist-stable ideal M, with the left map assembled from
    the two inclusion-induced maps (the second one twisted).  The relations
    of each distinct relation data are generated once: L*M's are M*L's
    under the block swap, equal data share one span, and Q*Q is L*L itself
    when the quotient has L's own tables.  Every product runs its own
    compatibility check and certified quotient."""
    from .algebras import quotient_algebra, subalgebra

    f = L.field
    quot, proj = quotient_algebra(L, ideal)
    M_sub, incl = subalgebra(L, ideal.space, "m")
    id_l = AlgebraHom(L, L, Matrix.identity(f, L.dim))

    ma_ml = bracket_mutual(L, (M_sub, incl), (L, id_l))
    ma_lm = MutualActions(ma_ml.nm, ma_ml.mn)  # the same two actions, exchanged
    ma_ll = MutualActions.adjoint(L)
    ma_qq = MutualActions.adjoint(quot)
    spans = {}  # relation data -> relation span: each distinct span is generated once

    def tensor(ma):
        data = _relation_data(ma)
        if data in spans:
            t = present_tensor(ma, spans[data])
        elif data[::-1] in spans:  # the exchanged pair: see relation_vectors
            t = present_tensor(ma, spans[data[::-1]].permuted(_block_swap(ma)))
        else:
            t = build_tensor(ma)
        spans[data] = t.presentation.relations
        return t

    # L*M takes M*L's span swapped, M*L and L*L share one span on the full
    # ideal, and Q*Q is L*L itself on the zero ideal
    t_ml, t_lm, t_ll = tensor(ma_ml), tensor(ma_lm), tensor(ma_ll)
    t_qq = t_ll if ma_qq == ma_ll else tensor(ma_qq)

    sigma1 = induced_tensor_map(incl, id_l, t_ml, t_ll)
    sigma2 = induced_tensor_map(id_l, incl, t_lm, t_ll)
    tau = induced_tensor_map(proj, proj, t_ll, t_qq)

    sigma = Matrix.from_columns(f, t_ll.algebra.dim,
                                sigma1.map.sparse_cols + t_ll.algebra.twist.compose(sigma2.map).sparse_cols)

    rep = ExactnessReport(subject="ideal tensor sequence")
    rep.dims["ideal tensor"] = t_ml.algebra.dim
    rep.dims["swapped ideal tensor"] = t_lm.algebra.dim
    rep.dims["tensor square"] = t_ll.algebra.dim
    rep.dims["quotient tensor square"] = t_qq.algebra.dim
    rep.check("projection map surjective", tau.map.is_surjective())
    rep.check("composite vanishes", tau.map.compose(sigma).is_zero())
    rep.check("exact at the tensor square", exact(sigma, tau.map))
    return IdealSequenceData(t_ml, t_lm, t_ll, t_qq, incl, proj, sigma, tau, rep)


def induced_tensor_map(f_hom: AlgebraHom, g_hom: AlgebraHom,
                       t_src: TensorProduct, t_dst: TensorProduct) -> AlgebraHom:
    """Functoriality: the map of tensor products induced by a pair of
    action-preserving homomorphisms of the factors."""
    wit = equivariance_witness(f_hom, g_hom, t_src.actions, t_dst.actions)
    if wit is not None:
        raise NotEquivariant(f"maps do not preserve the actions at {wit}", witness=wit)
    amb = _ambient_map(f_hom.map.field, f_hom.map.sparse_cols, g_hom.map.sparse_cols,
                       t_dst.m_side.dim, t_dst.n_side.dim)
    hom = AlgebraHom(t_src.algebra, t_dst.algebra,
                     induced_map(amb, t_src.presentation, t_dst.presentation))
    hom.validate().require(
        lambda v: InternalInconsistency("induced tensor map is not a homomorphism", witness=v.witness))
    return hom
