from __future__ import annotations

import itertools
import random

import pytest

from homleib.errors import BaseMismatch, NotAlphaPerfect, NotCentral, NotPerfect
from homleib.fields import Field
from homleib import extensions
from homleib.generators import sl2 as make_sl2
from homleib.linalg import Matrix, Subspace, outer, vec_add, vec_sub
from homleib.algebras import (
    AlgebraHom,
    HomLeibnizAlgebra,
    direct_sum,
    predicates,
    subalgebra,
    yau_twist,
)
from homleib.extensions import (
    Extension,
    ExtensionKind,
    classify_extension,
    lift_against,
    six_term_check,
    universal_alpha_central_extension,
    universal_central_extension,
)
from homleib.homology import ChainComplex, trivial_corep

QQ = Field()


def central_cover(base):
    """One-dimensional abelian summand in front of the base, projected away."""
    c = HomLeibnizAlgebra.abelian(QQ, 1)
    total = direct_sum(c, base)
    cols = [tuple(QQ.zero() for _ in range(base.dim))] + \
        [base.unit(j) for j in range(base.dim)]
    proj = AlgebraHom(total, base, Matrix.from_columns(QQ, base.dim, cols))
    return Extension.from_projection(proj)


@pytest.fixture
def alpha_central_only():
    """Three dimensions, the bracket of the kernel generator with e2 stays in
    the kernel, and the twist kills the kernel: twist-central but not central."""
    alg = HomLeibnizAlgebra.from_brackets(
        QQ, 3, {(2, 1): {2: 1}},
        Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    assert alg.validate().valid
    base = HomLeibnizAlgebra.abelian(QQ, 2)
    cols = [base.unit(0), base.unit(1), (QQ.zero(), QQ.zero())]
    proj = AlgebraHom(alg, base, Matrix.from_columns(QQ, 2, cols))
    return Extension.from_projection(proj)


class TestClassify:
    def test_trivial_cover_is_central(self, sl2):
        assert classify_extension(central_cover(sl2)) is ExtensionKind.CENTRAL

    def test_square_over_derived_is_central(self, nonlie2):
        # the tensor square maps onto the derived subalgebra centrally even
        # when the algebra is not perfect
        from homleib.actions import MutualActions
        from homleib.algebras import derived_subspace, subalgebra
        from homleib.tensorprod import build_tensor, commutator_map

        t = build_tensor(MutualActions.adjoint(nonlie2))
        cm = commutator_map(t)
        der, incl = subalgebra(nonlie2, derived_subspace(nonlie2), "d")
        cols = []
        for j in range(t.algebra.dim):
            q = incl.map.preimage(cm.map.col(j))
            assert q is not None
            cols.append(q)
        proj = AlgebraHom(t.algebra, der, Matrix.from_columns(QQ, der.dim, cols))
        ext = Extension.from_projection(proj)
        assert classify_extension(ext) is ExtensionKind.CENTRAL
        assert ext.kernel.dim == 2

    def test_alpha_central_only(self, alpha_central_only):
        assert classify_extension(alpha_central_only) is ExtensionKind.ALPHA_CENTRAL_ONLY

    def test_neither(self, sl2):
        # collapsing a perfect algebra to a point leaves a kernel that is
        # neither central nor twist-central
        point = HomLeibnizAlgebra.abelian(QQ, 0)
        proj = AlgebraHom(sl2, point, Matrix.zero(QQ, 0, 3))
        ext = Extension.from_projection(proj)
        assert classify_extension(ext) is ExtensionKind.NEITHER


class TestUniversalCentral:
    def test_sl2(self, sl2):
        uce = universal_central_extension(sl2)
        assert uce.extension.total.dim == 3
        assert uce.kernel_dim == 0
        assert classify_extension(uce.extension) is ExtensionKind.CENTRAL
        assert predicates(uce.extension.total).perfect
        assert uce.kernel_dim == ChainComplex(sl2, trivial_corep(sl2)).homology_dim(2)

    def test_twisted_sl2(self, sl2_twisted):
        uce = universal_central_extension(sl2_twisted)
        assert uce.kernel_dim == ChainComplex(sl2_twisted, trivial_corep(sl2_twisted)).homology_dim(2)
        assert predicates(uce.extension.total).perfect

    def test_direct_sum(self, sl2):
        both = direct_sum(sl2, sl2)
        uce = universal_central_extension(both)
        assert uce.kernel_dim == ChainComplex(both, trivial_corep(both)).homology_dim(2)

    def test_not_perfect_refused(self, nonlie2):
        with pytest.raises(NotPerfect):
            universal_central_extension(nonlie2)

    def test_prime_field_pipeline(self):
        from homleib.generators import sl2 as make_sl2

        for p in (3, 5, 7):
            fp = Field(p)
            alg = make_sl2(fp)
            uce = universal_central_extension(alg)
            assert uce.kernel_dim == ChainComplex(alg, trivial_corep(alg)).homology_dim(2)
            assert classify_extension(uce.extension) is ExtensionKind.CENTRAL


class TestLift:
    def test_lift_against_itself(self, sl2):
        uce = universal_central_extension(sl2)
        lift = lift_against(uce, uce.extension)
        comp = uce.extension.proj.map.compose(lift.map)
        assert comp == uce.extension.proj.map

    def test_lift_against_identity_extension(self, sl2):
        uce = universal_central_extension(sl2)
        ident = Extension.from_projection(
            AlgebraHom(sl2, sl2, Matrix.identity(QQ, 3)))
        lift = lift_against(uce, ident)
        assert lift.map == uce.extension.proj.map

    def test_lift_against_cover_is_unique(self, sl2):
        uce = universal_central_extension(sl2)
        cover = central_cover(sl2)
        base_lift = lift_against(uce, cover)
        rng = random.Random(41)
        for _ in range(3):
            cols = [tuple(QQ.from_int(rng.randint(-2, 2)) if i == 0 else QQ.zero()
                          for i in range(cover.total.dim))
                    for _ in range(sl2.dim)]
            pert = Matrix.from_columns(QQ, cover.total.dim, cols)
            other = lift_against(uce, cover, perturbation=pert)
            assert other.map == base_lift.map

    def test_base_mismatch(self, sl2, nonlie2):
        uce = universal_central_extension(sl2)
        other = central_cover(HomLeibnizAlgebra.abelian(QQ, 3))
        with pytest.raises(BaseMismatch):
            lift_against(uce, other)

    def test_not_central_refused(self, sl2):
        uce = universal_central_extension(sl2)
        sd = direct_sum(sl2, sl2)
        zero3 = tuple(QQ.zero() for _ in range(3))
        cols = [sl2.unit(j) for j in range(3)] + [zero3] * 3
        proj = AlgebraHom(sd, sl2, Matrix.from_columns(QQ, 3, cols))
        with pytest.raises(NotCentral):
            lift_against(uce, Extension.from_projection(proj))


class TestUniversalAlphaCentral:
    def test_twisted_sl2(self, sl2_twisted):
        res = universal_alpha_central_extension(sl2_twisted)
        assert res.tensor.algebra.dim == res.presented.dim == 3
        assert classify_extension(res.extension) is ExtensionKind.CENTRAL
        assert res.iso.map.is_injective() and res.iso.map.is_surjective()

    def test_identity_twist_collapses_to_uce(self, sl2):
        res = universal_alpha_central_extension(sl2)
        uce = universal_central_extension(sl2)
        assert res.extension.total.dim == uce.extension.total.dim
        assert res.extension.proj.map == uce.extension.proj.map

    def test_not_alpha_perfect_refused(self, nonlie2):
        with pytest.raises(NotAlphaPerfect):
            universal_alpha_central_extension(nonlie2)


def full_alpha_relations(L):
    """Every instance of the alpha presentation's family over basis triples
    of L, in the coordinates of the twist image A, as a dense sum of
    ``outer`` terms: the reference for the relation span."""
    A, incl = subalgebra(L, L.twist.image(), "a")
    f, size, idx = L.field, A.dim * A.dim, range(L.dim)
    br = [[incl.map.preimage(L.c[i][j]) for j in idx] for i in idx]
    tw = [incl.map.preimage(L.twist.col(i)) for i in idx]
    for i, j, l in itertools.product(idx, repeat=3):
        yield vec_add(f, vec_sub(f, outer(f, br[i][l], tw[j], size), outer(f, br[i][j], tw[l], size)),
                      outer(f, tw[i], br[j][l], size))


def _twisted_sl2(f, t):
    return yau_twist(make_sl2(f), Matrix.from_rows(f, [[t, 0, 0], [0, f.div(1, t), 0], [0, 0, 1]]))


@pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
def test_alpha_relation_span_is_the_full_enumeration(f, monkeypatch):
    presentations = []
    real = extensions.certified_quotient
    monkeypatch.setattr(extensions, "certified_quotient",
                        lambda pres, *args: presentations.append(pres) or real(pres, *args))
    for L in (make_sl2(f), _twisted_sl2(f, 5), direct_sum(_twisted_sl2(f, -2), _twisted_sl2(f, 2))):
        presentations.clear()
        universal_alpha_central_extension(L)
        (pres,) = presentations
        assert pres.relations == Subspace.span(f, L.dim * L.dim, full_alpha_relations(L))


class TestSixTerm:
    def test_zero_ideal(self, sl2):
        rep = six_term_check(sl2, Subspace.zero(QQ, 3))
        assert rep.ok
        assert rep.dims["ideal modulo commutator"] == 0
        assert rep.dims["second homology of the algebra"] == \
            rep.dims["second homology of the quotient"]

    def test_full_ideal(self, sl2):
        rep = six_term_check(sl2, Subspace.full(QQ, 3))
        assert rep.ok
        assert rep.dims["second homology of the quotient"] == 0
        assert rep.dims["ideal modulo commutator"] == 0

    def test_summand_ideal(self, sl2):
        both = direct_sum(sl2, sl2)
        first = Subspace.span(QQ, 6, [both.unit(i) for i in range(3)])
        rep = six_term_check(both, first)
        assert rep.ok, [i.name for i in rep.failures()]

    def test_summand_ideal_twisted(self, sl2_twisted):
        both = direct_sum(sl2_twisted, sl2_twisted)
        first = Subspace.span(QQ, 6, [both.unit(i) for i in range(3)])
        rep = six_term_check(both, first)
        assert rep.ok, [i.name for i in rep.failures()]

    def test_requires_perfect(self, nonlie2):
        with pytest.raises(NotPerfect):
            six_term_check(nonlie2, Subspace.zero(QQ, 2))


def test_declared_kernel_must_match(sl2):
    from homleib.errors import KernelMismatch

    cover = central_cover(sl2)
    with pytest.raises(KernelMismatch):
        Extension.from_projection(cover.proj, kernel=Subspace.zero(QQ, cover.total.dim))
