from __future__ import annotations

import itertools
import json
import random

import pytest

from homleib import cli
from homleib.cli import main
from homleib.documents import serialize_algebra
from homleib.errors import BaseMismatch, NotAlphaPerfect, NotCentral, NotPerfect
from homleib.fields import Field
from homleib import extensions, tensorprod
from homleib.generators import sl2 as make_sl2
from homleib.linalg import Matrix, Subspace, sparse_vec
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
from test_checker import dense_add, dense_sub
from test_linalg import dense_outer
from homleib_testkit import replace, sl2_on_two_planes, zero_twist

QQ = Field()


def central_cover(base):
    """One-dimensional abelian summand in front of the base, projected away."""
    f = base.field
    total = direct_sum(HomLeibnizAlgebra.abelian(f, 1), base)
    cols = [()] + [((j, f.one()),) for j in range(base.dim)]
    return Extension.from_projection(AlgebraHom(total, base, Matrix.from_columns(f, base.dim, cols)))


def kernel_valued(ext, rng):
    """A random map from the base into the extension's kernel."""
    f, k = ext.total.field, ext.kernel
    coefficients = Matrix.from_columns(f, k.dim, [sparse_vec([f.from_int(rng.randint(-2, 2)) for _ in range(k.dim)])
                                                  for _ in range(ext.base.dim)])
    return k.basis.transpose().compose(coefficients)


EDGE_ALGEBRAS = {"sl2": make_sl2, "sl2, zero twist": lambda f: zero_twist(make_sl2(f)),
                 "sl2 x (V2 + V2)": sl2_on_two_planes,
                 "sl2 x (V2 + V2), zero twist": lambda f: zero_twist(sl2_on_two_planes(f))}
EDGE_FIELDS = {"Q": QQ, "GF(1000003)": Field(1000003), "GF(3)": Field(3), "GF(5)": Field(5), "GF(7)": Field(7)}


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
    proj = AlgebraHom(alg, base, Matrix.from_columns(QQ, 2, map(sparse_vec, cols)))
    return Extension.from_projection(proj)


class TestClassify:
    def test_trivial_cover_is_central(self, sl2):
        assert classify_extension(central_cover(sl2)) is ExtensionKind.CENTRAL

    def test_square_over_derived_is_central(self, nonlie2):
        # the tensor square maps onto the derived subalgebra centrally even
        # when the algebra is not perfect
        from homleib.actions import MutualActions
        from homleib.algebras import derived_subspace, subalgebra
        from homleib.tensorprod import build_tensor

        t = build_tensor(MutualActions.adjoint(nonlie2))
        cm = t.into_m
        der, incl = subalgebra(nonlie2, derived_subspace(nonlie2), "d")
        cols = []
        for j in range(t.algebra.dim):
            q = incl.map.preimage(cm.map.col(j))
            assert q is not None
            cols.append(q)
        proj = AlgebraHom(t.algebra, der, Matrix.from_columns(QQ, der.dim, map(sparse_vec, cols)))
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

    @pytest.mark.parametrize("field", ["Q", "GF(1000003)", "GF(3)", "GF(5)"])
    @pytest.mark.parametrize("name", list(EDGE_ALGEBRAS))
    def test_lift_against_cover_is_unique(self, name, field):
        # the lift does not depend on the section it is built through, at
        # singular twists and in small characteristic too: a one-dimensional
        # central cover and the universal extension itself, each under
        # kernel-valued shifts of the section
        L = EDGE_ALGEBRAS[name](EDGE_FIELDS[field])
        uce = universal_central_extension(L)
        rng = random.Random(41)
        for target in (central_cover(L), uce.extension):
            base_lift = lift_against(uce, target)
            for _ in range(2):
                assert lift_against(uce, target, perturbation=kernel_valued(target, rng)).map == base_lift.map

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
        proj = AlgebraHom(sd, sl2, Matrix.from_columns(QQ, 3, map(sparse_vec, cols)))
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


@pytest.mark.parametrize("field", list(EDGE_FIELDS))
@pytest.mark.parametrize("name", list(EDGE_ALGEBRAS))
def test_universal_kernels_at_the_edges(name, field):
    # at singular twists and small characteristics the universal central
    # extension's kernel is still HL_2 of the chain complex, and where L is
    # twist-perfect the twist-central one has the same kernel; the zero
    # twist makes L not twist-perfect.  The kernel depends on the
    # characteristic: sl2 x (V2 + V2) has 7 over GF(3), 3 elsewhere
    L = EDGE_ALGEBRAS[name](EDGE_FIELDS[field])
    uce = universal_central_extension(L)
    assert uce.kernel_dim == ChainComplex(L, trivial_corep(L)).homology_dim(2) == {
        "sl2": 0, "sl2, zero twist": 6, "sl2 x (V2 + V2)": 7 if field == "GF(3)" else 3,
        "sl2 x (V2 + V2), zero twist": 42}[name]
    if name.endswith("zero twist"):
        with pytest.raises(NotAlphaPerfect):
            universal_alpha_central_extension(L)
    else:
        assert universal_alpha_central_extension(L).extension.kernel.dim == uce.kernel_dim


@pytest.mark.parametrize("command", ["uce", "uce-alpha"])
def test_cli_classifies_each_extension_once(command, sl2_twisted, monkeypatch, tmp_path, capsys):
    # the constructor classifies its extension and refuses any kind but
    # central; the command reports central without classifying again
    path = tmp_path / "sl2t.alg"
    path.write_text(json.dumps(serialize_algebra(sl2_twisted)), encoding="utf-8")
    calls = []
    real = extensions.classify_extension

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(extensions, "classify_extension", counted)
    monkeypatch.setattr(cli, "classify_extension", counted, raising=False)
    assert main([command, str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "central"
    assert len(calls) == 1


def full_alpha_relations(L):
    """Every instance of the alpha presentation's family over basis triples
    of L, in the coordinates of the twist image A, as a dense sum of
    ``dense_outer`` terms: the reference for the relation span."""
    A, incl = subalgebra(L, L.twist.image(), "a")
    f, size, idx = L.field, A.dim * A.dim, range(L.dim)
    br = [[incl.map.preimage(L.c[i][j]) for j in idx] for i in idx]
    tw = [incl.map.preimage(L.twist.col(i)) for i in idx]
    for i, j, l in itertools.product(idx, repeat=3):
        yield dense_add(f, dense_sub(f, dense_outer(f, br[i][l], tw[j], size),
                                 dense_outer(f, br[i][j], tw[l], size)),
                      dense_outer(f, tw[i], br[j][l], size))


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

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_ideal_with_a_kernel_over_its_tensor(self, f, twisted):
        # the ideal V = <v1, v2, w1, w2> of sl2_on_two_planes is not a
        # summand, and L*V -> V has a 3-dimensional kernel, which the first
        # map carries onto H2(L); the twist scales sl2 and V and mixes the
        # two copies
        L = sl2_on_two_planes(f)
        if twisted:
            half = f.div(1, 2)
            L = yau_twist(L, Matrix.from_rows(f, [
                [4, 0, 0, 0, 0, 0, 0], [0, f.div(1, 4), 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 2, 0, 0, 0], [0, 0, 0, 0, half, 0, 0], [0, 0, 0, 2, 0, 2, 0], [0, 0, 0, 0, half, 0, half]]))
        rep = six_term_check(L, Subspace.span(f, 7, [L.unit(i) for i in range(3, 7)]))
        assert rep.ok, [i.name for i in rep.failures()]
        assert rep.dims == {"kernel over ideal tensor": 3, "second homology of the algebra": 3,
                            "second homology of the quotient": 0, "ideal modulo commutator": 0}

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_central_kernel_of_the_universal_extension(self, f):
        # the 10-dimensional universal central extension K of
        # sl2_on_two_planes, with its 3-dimensional central kernel as the
        # ideal: H2(K) = 0, so the connecting map carries H2(K/Z) = H2(L)
        # onto Z/[K, Z] = Z
        rep = six_term_check(*uce_with_central_ideal(f))
        assert rep.ok, [i.name for i in rep.failures()]
        assert rep.dims == {"kernel over ideal tensor": 0, "second homology of the algebra": 0,
                            "second homology of the quotient": 3, "ideal modulo commutator": 3}

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_zero_twist(self, f):
        # sl2's bracket with the zero twist: the first map includes L*M into
        # L*L and then twists, so on the full ideal it is zero and misses
        # the 6-dimensional H2(L); an untwisted first map would be exact
        sl2 = make_sl2(f)
        L = HomLeibnizAlgebra.from_sparse(f, 3, sl2.sparse_c, Matrix.zero(f, 3, 3), sl2.labels)
        rep = six_term_check(L, Subspace.full(f, 3))
        assert _failed(rep) == ["exact at the second homology of the algebra"]
        assert rep.dims == {"kernel over ideal tensor": 6, "second homology of the algebra": 6,
                            "second homology of the quotient": 0, "ideal modulo commutator": 0}
        rep = six_term_check(L, Subspace.zero(f, 3))
        assert rep.ok, _failed(rep)
        assert rep.dims == {"kernel over ideal tensor": 0, "second homology of the algebra": 6,
                            "second homology of the quotient": 6, "ideal modulo commutator": 0}

    def test_requires_perfect(self, nonlie2):
        with pytest.raises(NotPerfect):
            six_term_check(nonlie2, Subspace.zero(QQ, 2))


def uce_with_central_ideal(f):
    """The universal central extension of sl2_on_two_planes and its kernel."""
    ext = universal_central_extension(sl2_on_two_planes(f)).extension
    return ext.total, ext.kernel


def _failed(rep) -> list:
    return [i.name for i in rep.failures()]


class TestSixTermSeesWrongMaps:
    """Each joint of the six-term certificate handed one wrong map reads
    ``ok: false``: valid inputs make every check true, so only a wrong map
    tells a check from a weakened copy of it."""

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_connecting_map_with_a_zero_column(self, f, monkeypatch):
        real = extensions.snake

        class FirstReadZero(Matrix):
            """f' whose first preimage reads zero."""

            def preimage_sparse(self, pairs):
                if "read" not in vars(self):
                    vars(self)["read"] = True
                    return ()
                return super().preimage_sparse(pairs)

        def zeroed(upper_f, g, lower_f, *rest):
            # delta reads its first column as zero
            wrong = FirstReadZero(lower_f.field, lower_f.rows, lower_f.cols, lower_f.entries)
            return real(upper_f, g, wrong, *rest)

        monkeypatch.setattr(extensions, "snake", zeroed)
        assert _failed(six_term_check(*uce_with_central_ideal(f))) == [
            "exact at the second homology of the quotient", "connecting map onto the ideal cokernel"]

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_zero_first_map(self, f, monkeypatch):
        # the first map reads the second block of sigma; H2(L) is 3-dimensional here
        real = extensions.ideal_sequence_certificate

        def zero_sigma(*args):
            data = real(*args)
            return replace(data, sigma=Matrix.zero(f, data.sigma.rows, data.sigma.cols))

        monkeypatch.setattr(extensions, "ideal_sequence_certificate", zero_sigma)
        L = sl2_on_two_planes(f)
        rep = six_term_check(L, Subspace.span(f, 7, [L.unit(i) for i in range(3, 7)]))
        assert _failed(rep) == ["exact at the second homology of the algebra"]

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_twice_tau(self, f, monkeypatch):
        real = extensions.ideal_sequence_certificate

        def doubled(*args):
            data = real(*args)
            tau = data.tau
            return replace(data, tau=AlgebraHom(tau.source, tau.target, tau.map.add(tau.map)))

        monkeypatch.setattr(extensions, "ideal_sequence_certificate", doubled)
        assert _failed(six_term_check(*uce_with_central_ideal(f))) == ["projection commutes over the tensor row"]

    def test_zero_tau(self, sl2, monkeypatch):
        # on the zero ideal sigma is zero and tau an isomorphism; tau alone
        # is induced by one map twice, the projection
        real = tensorprod.induced_tensor_map

        def zero_tau(f_hom, g_hom, t_src, t_dst):
            hom = real(f_hom, g_hom, t_src, t_dst)
            return hom if f_hom is not g_hom else \
                AlgebraHom(hom.source, hom.target, Matrix.zero(QQ, hom.map.rows, hom.map.cols))

        monkeypatch.setattr(tensorprod, "induced_tensor_map", zero_tau)
        rep = six_term_check(sl2, Subspace.zero(QQ, 3))
        assert _failed(rep) == ["row: projection map surjective", "row: exact at the tensor square",
                                "projection commutes over the tensor row"]
