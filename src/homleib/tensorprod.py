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
leg, which are zero; the span is unchanged.

The bracket of two generators factors through the two evaluation maps

    eval_m(m*n) = m acted by n,   eval_m(n*m) = n acting on m   (into M)
    eval_n(m*n) = m acting on n,  eval_n(n*m) = n acted by m    (into N)

as [x, y] = eval_m(x) * eval_n(y), always landing in the first block.
The quotient algebra comes from ``algebras.certified_quotient`` with the
two evaluation maps as the bracket factors, so descent of the bracket and
of the induced twist is certified, never assumed.  On compatible actions
the evaluations kill every relation (the crossed-module property of the
tensor product), and two mat-vecs per relation basis row certify the
bracket; a row they do not kill falls back to the full check.  A failure
aborts loudly since it would contradict the construction.  Maps between
tensor products, the factor maps onto M and N and the outer actions are
each ``linalg.induced_map`` of an ambient map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleActions, InternalInconsistency, NotEquivariant
from .actions import HomAction, MutualActions, bracket_mutual, induced_action
from .algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle, certified_quotient
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    induced_map,
    law_rows,
    outer,
    quotient,
    tensor_table,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .report import ExactnessReport


@dataclass(frozen=True)
class TensorProduct:
    actions: MutualActions
    presentation: QuotientSpace
    algebra: HomLeibnizAlgebra
    eval_m: Matrix  # ambient -> M
    eval_n: Matrix  # ambient -> N

    @property
    def m_side(self) -> HomLeibnizAlgebra:
        return self.actions.m_side

    @property
    def n_side(self) -> HomLeibnizAlgebra:
        return self.actions.n_side

    @property
    def ambient_dim(self) -> int:
        return self.presentation.ambient_dim

    def idx_mn(self, i: int, j: int) -> int:
        return i * self.n_side.dim + j

    def idx_nm(self, j: int, i: int) -> int:
        return self.m_side.dim * self.n_side.dim + j * self.m_side.dim + i

    def embed_mn(self, u, v) -> tuple:
        return outer(self.m_side.field, u, v, self.ambient_dim)

    def embed_nm(self, v, u) -> tuple:
        return outer(self.m_side.field, v, u, self.ambient_dim, self.m_side.dim * self.n_side.dim)

    def ambient_bracket(self, x, y) -> tuple:
        return self.embed_mn(self.eval_m.apply(x), self.eval_n.apply(y))

    def ambient_twist(self) -> Matrix:
        return _ambient_twist(self.m_side, self.n_side)


def _generator_labels(M, N) -> tuple:
    # the second block gets a prime so tensor squares stay unambiguous
    out = [f"{a}*{b}" for a in M.labels for b in N.labels]
    out += [f"{b}*{a}'" for b in N.labels for a in M.labels]
    return tuple(out)


def _ambient_map(f, fm, gn, base) -> Matrix:
    """The map of ambient generators m*n -> fm[m]*gn[n] and n*m -> gn[n]*fm[m]
    into an ambient space whose second block starts at ``base``."""
    cols = [outer(f, u, v, 2 * base) for u in fm for v in gn]
    cols += [outer(f, v, u, 2 * base, base) for v in gn for u in fm]
    return Matrix.from_columns(f, 2 * base, cols)


def _ambient_twist(M, N) -> Matrix:
    tm = [M.apply_twist(M.unit(i)) for i in range(M.dim)]
    tn = [N.apply_twist(N.unit(j)) for j in range(N.dim)]
    return _ambient_map(M.field, tm, tn, M.dim * N.dim)


def _eval_maps(ma: MutualActions):
    """The two evaluation maps on ambient generators: the columns are the
    action values on the row-major blocks m*n, then n*m."""
    M, N = ma.m_side, ma.n_side

    def flat(first, second):
        return [v for table in (first, second) for row in table for v in row]

    eval_m = Matrix.from_columns(M.field, M.dim, flat(ma.nm.right, ma.nm.left))   # m<n, n>m
    eval_n = Matrix.from_columns(M.field, N.dim, flat(ma.mn.left, ma.mn.right))   # m>n, n<m
    return eval_m, eval_n


def relation_vectors(ma: MutualActions):
    """Yield the spanning relation instances over basis tuples, less those
    that are zero by sparsity.

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
    """
    M, N = ma.m_side, ma.n_side
    f, dm, dn = M.field, M.dim, N.dim
    tm, tn, cm, cn = M.sparse_twist, N.sparse_twist, M.sparse_c, N.sparse_c
    m_on_n, n_by_m = ma.mn.sparse_left, ma.mn.sparse_right   # in N
    n_on_m, m_by_n = ma.nm.sparse_left, ma.nm.sparse_right   # in M
    mn, nm = tensor_table(f, dm, dn), tensor_table(f, dn, dm, dm * dn)  # the blocks m*n and n*m
    yield from law_rows(f, [
        ((dm, dn, dn), [
            ("r1", (), [(mn, (tm, 0), (cn, 1, 2)), (mn, (m_by_n, 0, 2), (tn, 1))],
             [(mn, (m_by_n, 0, 1), (tn, 2))]),
            ("r4", (), [(nm, (cn, 1, 2), (tm, 0)), (nm, (tn, 1), (m_by_n, 0, 2))],
             [(mn, (n_on_m, 1, 0), (tn, 2))])]),
        ((dn, dm, dm), [
            ("r2", (), [(nm, (tn, 0), (cm, 1, 2)), (nm, (n_by_m, 0, 2), (tm, 1))],
             [(nm, (n_by_m, 0, 1), (tm, 2))]),
            ("r3", (), [(mn, (cm, 1, 2), (tn, 0)), (mn, (tm, 1), (n_by_m, 0, 2))],
             [(nm, (m_on_n, 1, 0), (tm, 2))])]),
        ((dm, dm, dn), [
            ("r5", (), [(mn, (tm, 0), (m_on_n, 1, 2)), (mn, (tm, 0), (n_by_m, 2, 1))], [])]),
        ((dn, dn, dm), [
            ("r6", (), [(nm, (tn, 0), (n_on_m, 1, 2)), (nm, (tn, 0), (m_by_n, 2, 1))], [])]),
        ((dm, dn, dm, dn), [
            ("r7", (), [(mn, (m_by_n, 0, 1), (m_on_n, 2, 3))], [(nm, (m_on_n, 0, 1), (m_by_n, 2, 3))]),
            ("r8", (), [(mn, (m_by_n, 0, 1), (n_by_m, 3, 2))], [(nm, (m_on_n, 0, 1), (n_on_m, 3, 2))]),
            ("r9", (), [(mn, (n_on_m, 1, 0), (m_on_n, 2, 3))], [(nm, (n_by_m, 1, 0), (m_by_n, 2, 3))]),
            ("r10", (), [(mn, (n_on_m, 1, 0), (n_by_m, 3, 2))], [(nm, (n_by_m, 1, 0), (n_on_m, 3, 2))])])])


def build_tensor(ma: MutualActions) -> TensorProduct:
    """Construct the tensor product algebra of compatibly acting algebras."""
    ma.check_compatible().require(lambda v: IncompatibleActions(
        f"compatibility {v.law} fails at {v.witness}", witness=v.witness))
    M, N = ma.m_side, ma.n_side
    pres = QuotientSpace(Subspace.span_sparse(M.field, 2 * M.dim * N.dim, relation_vectors(ma)))
    eval_m, eval_n = _eval_maps(ma)
    all_labels = _generator_labels(M, N)
    labels = [all_labels[c] for c in pres.coset_basis]
    algebra = certified_quotient(pres, eval_m, eval_n, _ambient_twist(M, N), labels)
    return TensorProduct(ma, pres, algebra, eval_m, eval_n)


def factor_maps(t: TensorProduct, second_only: bool = False):
    """The two algebra homomorphisms from the tensor product onto values of
    the actions inside each factor, induced by the evaluation maps; on a
    tensor square, where they agree, one homomorphism returned twice.  With
    ``second_only`` the first is not built, and the second is returned."""
    def onto(side, ev):
        return AlgebraHom(t.algebra, side, induced_map(
            ev, t.presentation, quotient(side.field, side.dim, ()),
            lambda r, w: InternalInconsistency("evaluation map does not kill the relations",
                                               witness=(r,))))

    into_m = None if second_only else onto(t.m_side, t.eval_m)
    square = into_m is not None and (t.n_side, t.eval_n) == (t.m_side, t.eval_m)
    into_n = into_m if square else onto(t.n_side, t.eval_n)
    for hom, name in ((into_m, "first"), (into_n, "second")):
        if hom is not None:
            hom.validate().require(lambda v: InternalInconsistency(
                f"evaluation onto the {name} factor is not a homomorphism", witness=v.witness))
    return into_n if second_only else (into_m, into_n)


def commutator_map(t: TensorProduct) -> AlgebraHom:
    """For the tensor square of one algebra under adjoint actions, the map
    sending a generator x*y to the bracket [x, y]."""
    into_m, into_n = factor_maps(t)
    if into_m.map != into_n.map:
        raise InternalInconsistency("the two factor maps disagree on a tensor square")
    return into_m


def outer_action(t: TensorProduct, side: str) -> HomAction:
    """The action of one factor on the tensor product algebra.

    For an actor a in the chosen factor and generators of the product:
    on the M side
        a . (m*n) = [a,m] * t(n) - (a.n) * t(m)
        a . (n*m) = (a.n) * t(m) - [a,m] * t(n)
        (m*n) . a = [m,a] * t(n) + t(m) * (n<a)
        (n*m) . a = (n<a) * t(m) + t(n) * [m,a]
    and symmetrically on the N side.
    """
    M, N = t.m_side, t.n_side
    f = M.field
    mn, nm = t.actions.mn, t.actions.nm
    if side == "m":
        actor = M

        def values(a, i, j):
            # a on m, a on n (in N), m acted by a, n acted by a (in N)
            return M.c[a][i], mn.left[a][j], M.c[i][a], mn.right[j][a]
    elif side == "n":
        actor = N

        def values(a, i, j):
            # a on m (in M), a on n, m acted by a (in M), n acted by a
            return nm.left[a][i], N.c[a][j], nm.right[i][a], N.c[j][a]
    else:
        raise ValueError("side must be 'm' or 'n'")
    tm = [M.apply_twist(M.unit(i)) for i in range(M.dim)]
    tn = [N.apply_twist(N.unit(j)) for j in range(N.dim)]

    def columns(a):
        # both actions of the actor basis vector a on the ambient generators
        left_cols = [None] * t.ambient_dim
        right_cols = [None] * t.ambient_dim
        for i in range(M.dim):
            for j in range(N.dim):
                am, an, ma, na = values(a, i, j)
                g, g2 = t.idx_mn(i, j), t.idx_nm(j, i)
                x, y = t.embed_mn(am, tn[j]), t.embed_nm(an, tm[i])
                left_cols[g] = vec_sub(f, x, y)
                left_cols[g2] = vec_sub(f, y, x)
                right_cols[g] = vec_add(f, t.embed_mn(ma, tn[j]), t.embed_mn(tm[i], na))
                right_cols[g2] = vec_add(f, t.embed_nm(na, tm[i]), t.embed_nm(tn[j], ma))
        return left_cols, right_cols

    # the formulas are linear in the ambient generator; they must carry the
    # relations into the relations for the quotient action to exist
    action = induced_action(actor, t.algebra, t.presentation, columns, lambda r, w: InternalInconsistency(
        "outer action does not descend to the quotient", witness=(side, r)))
    action.validate().require(lambda v: InternalInconsistency(
        f"outer action identity {v.law} fails at {v.witness}", witness=v.witness))
    return action


def equivariance_witness(f_hom: AlgebraHom, g_hom: AlgebraHom,
                         src: MutualActions, dst: MutualActions):
    """None when (f, g) preserve the four action tensors, else a witness."""
    M, N = src.m_side, src.n_side
    for i in range(M.dim):
        em = M.unit(i)
        fm = f_hom.apply(em)
        for j in range(N.dim):
            en = N.unit(j)
            gn = g_hom.apply(en)
            if f_hom.apply(src.nm.left[j][i]) != dst.nm.act_left(gn, fm):
                return ("n acting on m", N.labels[j], M.labels[i])
            if f_hom.apply(src.nm.right[i][j]) != dst.nm.act_right(fm, gn):
                return ("m acted by n", M.labels[i], N.labels[j])
            if g_hom.apply(src.mn.left[i][j]) != dst.mn.act_left(fm, gn):
                return ("m acting on n", M.labels[i], N.labels[j])
            if g_hom.apply(src.mn.right[j][i]) != dst.mn.act_right(gn, fm):
                return ("n acted by m", N.labels[j], M.labels[i])
    return None


def tensor_identity_battery(t: TensorProduct) -> ExactnessReport:
    """Battery of identities tying the factor maps, the outer actions, the
    bracket and the twist of a tensor product:

      * the two factor-map kernels sit inside the center;
      * values of a factor map act trivially on its kernel;
      * factor maps intertwine outer actions with twisted brackets;
      * acting through a factor-map value equals bracketing with the twisted
        class, on either side and through either factor.

    All checks run over basis tuples with exact arithmetic.
    """
    from .algebras import center

    rep = ExactnessReport(subject="tensor pairing battery")
    M, N = t.m_side, t.n_side
    f = M.field
    T = t.algebra
    into_m, into_n = factor_maps(t)
    act_m = outer_action(t, "m")
    act_n = outer_action(t, "n")
    z = center(T)
    rep.check("first kernel inside the center", z.contains_subspace(into_m.map.kernel()))
    rep.check("second kernel inside the center", z.contains_subspace(into_n.map.kernel()))

    for name, hom, act, F in (("first", into_m, act_m, M), ("second", into_n, act_n, N)):
        ker = hom.map.kernel()
        ok = True
        for g in range(t.ambient_dim):
            v = hom.map.apply(t.presentation.project(unit_vec(f, t.ambient_dim, g)))
            for k in ker.basis.entries:
                if not vec_is_zero(f, act.act_left(v, k)) or \
                   not vec_is_zero(f, act.act_right(k, v)):
                    ok = False
        rep.check(f"{name} factor values act trivially on the kernel", ok)

        ok_left = ok_right = True
        for a in range(F.dim):
            ta = F.apply_twist(F.unit(a))
            for k in range(T.dim):
                ek = T.unit(k)
                if hom.map.apply(act.act_left(F.unit(a), ek)) != \
                        F.bracket(ta, hom.map.apply(ek)):
                    ok_left = False
                if hom.map.apply(act.act_right(ek, F.unit(a))) != \
                        F.bracket(hom.map.apply(ek), ta):
                    ok_right = False
        rep.check(f"{name} factor map intertwines the left outer action", ok_left)
        rep.check(f"{name} factor map intertwines the right outer action", ok_right)

    ok_left = ok_right = True
    for g1 in range(t.ambient_dim):
        cls1 = t.presentation.project(unit_vec(f, t.ambient_dim, g1))
        tw1 = T.apply_twist(cls1)
        vm = into_m.map.apply(cls1)
        vn = into_n.map.apply(cls1)
        for g2 in range(t.ambient_dim):
            cls2 = t.presentation.project(unit_vec(f, t.ambient_dim, g2))
            br = T.bracket(tw1, cls2)
            if act_m.act_left(vm, cls2) != br or act_n.act_left(vn, cls2) != br:
                ok_left = False
            br2 = T.bracket(cls2, tw1)
            if act_m.act_right(cls2, vm) != br2 or act_n.act_right(cls2, vn) != br2:
                ok_right = False
    rep.check("acting through factor values is the twisted bracket, left", ok_left)
    rep.check("acting through factor values is the twisted bracket, right", ok_right)
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
    rep.check("im f = ker g", f_hom.map.image() == g_hom.map.kernel())
    t1, t2, t3 = build_tensor(ma1), build_tensor(ma2), build_tensor(ma3)
    rep.dims["first tensor"] = t1.algebra.dim
    rep.dims["middle tensor"] = t2.algebra.dim
    rep.dims["third tensor"] = t3.algebra.dim
    idn = AlgebraHom(ma1.n_side, ma1.n_side, Matrix.identity(f_hom.map.field, ma1.n_side.dim))
    big_f = induced_tensor_map(f_hom, idn, t1, t2)
    big_g = induced_tensor_map(g_hom, idn, t2, t3)
    rep.check("induced g surjective", big_g.map.is_surjective())
    rep.check("exact at the middle tensor", big_f.map.image() == big_g.map.kernel())
    return rep


@dataclass(frozen=True)
class IdealSequenceData:
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


def ideal_sequence_certificate(L: HomLeibnizAlgebra, ideal: IdealHandle) -> IdealSequenceData:
    """Exactness of   (M*L) + (L*M)  ->  L*L  ->  (L/M)*(L/M)  ->  0
    for a two-sided twist-stable ideal M, with the left map assembled from
    the two inclusion-induced maps (the second one twisted)."""
    from .algebras import quotient_algebra, subalgebra

    f = L.field
    quot, proj = quotient_algebra(L, ideal)
    M_sub, incl = subalgebra(L, ideal.space, "m")
    id_l = AlgebraHom(L, L, Matrix.identity(f, L.dim))

    ma_ml = bracket_mutual(L, (M_sub, incl), (L, id_l))
    ma_lm = bracket_mutual(L, (L, id_l), (M_sub, incl))
    ma_ll = MutualActions.adjoint(L)
    ma_qq = MutualActions.adjoint(quot)
    t_ml, t_lm = build_tensor(ma_ml), build_tensor(ma_lm)
    t_ll, t_qq = build_tensor(ma_ll), build_tensor(ma_qq)

    sigma1 = induced_tensor_map(incl, id_l, t_ml, t_ll)
    sigma2 = induced_tensor_map(id_l, incl, t_lm, t_ll)
    tau = induced_tensor_map(proj, proj, t_ll, t_qq)

    cols = [sigma1.map.col(j) for j in range(t_ml.algebra.dim)]
    cols += [t_ll.algebra.apply_twist(sigma2.map.col(j)) for j in range(t_lm.algebra.dim)]
    sigma = Matrix.from_columns(f, t_ll.algebra.dim, cols)

    rep = ExactnessReport(subject="ideal tensor sequence")
    rep.dims["ideal tensor"] = t_ml.algebra.dim
    rep.dims["swapped ideal tensor"] = t_lm.algebra.dim
    rep.dims["tensor square"] = t_ll.algebra.dim
    rep.dims["quotient tensor square"] = t_qq.algebra.dim
    rep.check("projection map surjective", tau.map.is_surjective())
    rep.check("composite vanishes", tau.map.compose(sigma).is_zero())
    rep.check("exact at the tensor square", sigma.image() == tau.map.kernel())
    return IdealSequenceData(t_ml, t_lm, t_ll, t_qq, incl, proj, sigma, tau, rep)


def induced_tensor_map(f_hom: AlgebraHom, g_hom: AlgebraHom,
                       t_src: TensorProduct, t_dst: TensorProduct) -> AlgebraHom:
    """Functoriality: the map of tensor products induced by a pair of
    action-preserving homomorphisms of the factors."""
    wit = equivariance_witness(f_hom, g_hom, t_src.actions, t_dst.actions)
    if wit is not None:
        raise NotEquivariant(f"maps do not preserve the actions at {wit}", witness=wit)
    M, N = t_src.m_side, t_src.n_side
    fm = [f_hom.apply(M.unit(i)) for i in range(M.dim)]
    gn = [g_hom.apply(N.unit(j)) for j in range(N.dim)]
    amb = _ambient_map(M.field, fm, gn, t_dst.m_side.dim * t_dst.n_side.dim)
    hom = AlgebraHom(t_src.algebra, t_dst.algebra,
                     induced_map(amb, t_src.presentation, t_dst.presentation))
    hom.validate().require(
        lambda v: InternalInconsistency("induced tensor map is not a homomorphism", witness=v.witness))
    return hom
