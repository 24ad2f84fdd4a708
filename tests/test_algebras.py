from __future__ import annotations

import random
from fractions import Fraction

import pytest

from homleib.errors import DimensionError, FieldMismatch, NotAnIdeal, NotEndomorphism, ParentMismatch, StructureError
from homleib.fields import Field
from homleib.linalg import Matrix, Subspace
from homleib.algebras import (
    HomLeibnizAlgebra,
    IdealHandle,
    center,
    commutator,
    derived_subspace,
    direct_sum,
    lieization,
    predicates,
    quotient_algebra,
    subalgebra,
    yau_twist,
)
from homleib.generators import random_algebra
from homleib.homassoc import HomAssociativeAlgebra
from test_checker import ALGEBRAS, _abelian3, _bump_table, _single_entry_perturbations

QQ = Field()


def span(field, dim, rows):
    return Subspace.span(field, dim, [tuple(field.from_int(x) for x in r) for r in rows])


class TestValidate:
    def test_nonlie_example_validates(self, nonlie2):
        rep = nonlie2.validate()
        assert rep.valid
        assert rep.flags["hom_lie"] is False

    def test_abelian_any_twist(self, abelian3):
        rep = abelian3.validate()
        assert rep.valid
        assert rep.flags["abelian"] is True

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_flags_match_the_pair_loop(self, f):
        # is_skew and is_abelian visit only the nonempty bracket values; the
        # loop over every pair of basis vectors gives the same flags on the
        # stock algebras, each single-entry bump, and each bump of c[i][j]
        # paired with its negative at c[j][i], which stays skew
        def pair_loop(L):
            c, skew = L.sparse_c, True
            for i in range(L.dim):
                skew = skew and not c[i][i]
                for j in range(i + 1, L.dim):
                    if (c[i][j] or c[j][i]) and {k: f.neg(x) for k, x in c[i][j]} != dict(c[j][i]):
                        skew = False
            return skew, not any(v for row in c for v in row)

        cases = []
        for L in [make(f) for make in ALGEBRAS] + [_abelian3(f), HomLeibnizAlgebra.abelian(f, 4)]:
            n, one = L.dim, f.one()
            cases += [L] + [bumped for _, bumped in _single_entry_perturbations(L)]
            cases += [HomLeibnizAlgebra(f, n, _bump_table(f, _bump_table(f, L.c, i, j, k, one), j, i, k, f.neg(one)),
                                        L.twist, L.labels)
                      for i in range(n) for j in range(i + 1, n) for k in range(n)]
        flags = [(L.is_skew(), L.is_abelian()) for L in cases]
        assert flags == [pair_loop(L) for L in cases]
        assert set(flags) == {(True, True), (True, False), (False, False)}

    def test_extra_entry_breaks_multiplicativity(self, field):
        # adding [e1, e2] = e1 breaks t[x, y] = [t x, t y] at the pair (e2, e2):
        # t[e2,e2] = e1 while [t e2, t e2] = 2 e1
        bad = HomLeibnizAlgebra.from_brackets(
            field, 2, {(1, 1): {0: 1}, (0, 1): {0: 1}},
            Matrix.from_rows(field, [[1, 1], [0, 1]]))
        rep = bad.validate()
        assert not rep.valid
        laws = {v.law for v in rep.violations}
        assert laws <= {"multiplicativity", "hom-leibniz identity"}
        assert ("e2", "e2") in {v.witness for v in rep.violations}

    def test_shape_mismatch(self, field):
        with pytest.raises(StructureError):
            HomLeibnizAlgebra(field, 2, ((), ()), Matrix.identity(field, 2), ("a", "b"))

    def test_non_canonical_scalars_refused(self):
        # over GF(5), 5 is zero: a bracket by it would make an abelian
        # algebra that reports it is not abelian
        for f, bad, good in ((Field(5), (5, -1, Fraction(1, 2), True, 1.0), (1, 4)),
                             (QQ, (Fraction(2), True, 1.0), (2, -3, Fraction(1, 2)))):
            one = Matrix.identity(f, 1)
            for x in bad:
                with pytest.raises(StructureError, match="^bracket coordinates must be canonical scalars"):
                    HomLeibnizAlgebra(f, 1, (((x,),),), one, ("e1",))
                with pytest.raises(StructureError, match="^bracket coordinates must be canonical scalars"):
                    HomLeibnizAlgebra.from_sparse(f, 1, ((((0, x),),),), one, ("e1",))
                with pytest.raises(StructureError, match="^product coordinates must be canonical scalars"):
                    HomAssociativeAlgebra(f, 1, (((x,),),), one, ("a1",))
            for x in good:
                assert not HomLeibnizAlgebra(f, 1, (((x,),),), one, ("e1",)).validate().flags["abelian"]
                assert HomLeibnizAlgebra.from_sparse(f, 1, ((((0, x),),),), one, ("e1",)).c == (((x,),),)
                HomAssociativeAlgebra(f, 1, (((x,),),), one, ("a1",))

    @pytest.mark.parametrize("entries", [{(-1, 0): {0: 1}}, {(0, -1): {0: 1}}, {(0, 0): {-1: 1}},
                                         {(2, 0): {0: 1}}, {(0, 2): {0: 1}}, {(0, 0): {2: 1}}])
    def test_out_of_range_keys_refused(self, entries):
        # a negative index would wrap to the last basis vector and one past
        # the end would fail on a bare IndexError: both name no basis vector
        with pytest.raises(DimensionError, match=r"^bracket indices must lie in range\(2\)$"):
            HomLeibnizAlgebra.from_brackets(QQ, 2, entries)
        with pytest.raises(DimensionError, match=r"^product indices must lie in range\(2\)$"):
            HomAssociativeAlgebra.from_products(QQ, 2, entries)

    def test_entries_build_the_sparse_table(self):
        # values keep their nonzero coordinates in increasing order; an
        # int coefficient is read in the field
        f = Field(5)
        L = HomLeibnizAlgebra.from_brackets(f, 2, {(1, 0): {1: 7, 0: 0}, (0, 1): {1: 1, 0: -1}})
        assert L.sparse_c == (((), ((0, 4), (1, 1))), (((1, 2),), ()))
        A = HomAssociativeAlgebra.from_products(f, 2, {(1, 0): {1: 7, 0: 0}, (0, 1): {1: 1, 0: -1}})
        assert A.sparse_p == L.sparse_c and A.labels == ("a1", "a2")

    @pytest.mark.parametrize("flag", [True, False])
    def test_entries_refuse_a_bool(self, flag):
        # a bool is an int to Python but no scalar: read through
        # Field.from_int it was 1 or 0, so {(0, 0): {1: True}} made [e1, e1] = e2
        for f in (QQ, Field(5)):
            with pytest.raises(StructureError, match="^bracket coordinates must be canonical scalars"):
                HomLeibnizAlgebra.from_brackets(f, 2, {(0, 0): {1: flag}})
            with pytest.raises(StructureError, match="^product coordinates must be canonical scalars"):
                HomAssociativeAlgebra.from_products(f, 2, {(0, 0): {1: flag}})


class TestCommutatorCenter:
    def test_derived_of_nonlie2(self, nonlie2):
        der = derived_subspace(nonlie2)
        assert der.basis.entries == ((Fraction(1), Fraction(0)),)

    def test_commutator_of_abelian(self, abelian3):
        full = IdealHandle(abelian3, Subspace.full(QQ, 3))
        assert commutator(full, full).dim == 0

    def test_sl2_is_perfect(self, sl2):
        assert derived_subspace(sl2).dim == 3

    def test_parent_mismatch(self, nonlie2, sl2):
        h = IdealHandle(nonlie2, Subspace.full(QQ, 2))
        k = IdealHandle(sl2, Subspace.full(QQ, 3))
        with pytest.raises(ParentMismatch):
            commutator(h, k)

    def test_center_nonlie2(self, nonlie2):
        assert center(nonlie2).basis.entries == ((Fraction(1), Fraction(0)),)

    def test_center_abelian_is_everything(self, abelian3):
        assert center(abelian3).dim == 3

    def test_center_sl2_is_zero(self, sl2):
        assert center(sl2).dim == 0

    def test_commutator_contained_in_intersection(self, nonlie2, heis3):
        # two-sided commutator of ideals lands in their intersection
        for alg, rows_a, rows_b in (
                (nonlie2, [[1, 0]], [[1, 0], [0, 1]]),
                (heis3, [[0, 0, 1]], [[1, 0, 0], [0, 0, 1]])):
            a = IdealHandle(alg, span(QQ, alg.dim, rows_a))
            b = IdealHandle(alg, span(QQ, alg.dim, rows_b))
            comm = commutator(a, b)
            assert a.space.intersect(b.space).contains_subspace(comm)

    def test_surjective_twist_commutator_is_ideal(self, heis3):
        a = IdealHandle(heis3, span(QQ, 3, [[1, 0, 0], [0, 0, 1]]))
        b = IdealHandle(heis3, Subspace.full(QQ, 3))
        comm = commutator(a, b)
        assert IdealHandle(heis3, comm).ideal_witness() is None


class TestQuotient:
    def test_quotient_by_derived(self, nonlie2):
        quot, proj = quotient_algebra(nonlie2, IdealHandle(nonlie2, span(QQ, 2, [[1, 0]])))
        assert quot.dim == 1
        assert quot.is_abelian()
        assert quot.twist == Matrix.identity(QQ, 1)
        assert proj.is_homomorphism()

    def test_quotient_by_zero_is_identity(self, sl2):
        quot, proj = quotient_algebra(sl2, IdealHandle(sl2, Subspace.zero(QQ, 3)))
        assert quot.c == sl2.c
        assert quot.twist == sl2.twist
        assert proj.map == Matrix.identity(QQ, 3)

    def test_non_ideal_refused(self, nonlie2):
        with pytest.raises(NotAnIdeal):
            quotient_algebra(nonlie2, IdealHandle(nonlie2, span(QQ, 2, [[0, 1]])))

    def test_random_quotients_validate(self):
        rng = random.Random(11)
        seen = 0
        while seen < 6:
            alg = random_algebra(QQ, rng)
            der = derived_subspace(alg)
            handle = IdealHandle(alg, der)
            if handle.ideal_witness() is not None:
                continue
            quot, proj = quotient_algebra(alg, handle)
            assert quot.validate().valid
            assert proj.is_homomorphism()
            seen += 1


class TestPredicates:
    def test_nonlie2(self, nonlie2):
        p = predicates(nonlie2)
        assert (p.perfect, p.alpha_perfect, p.alpha_surjective, p.abelian) == \
            (False, False, True, False)

    def test_sl2(self, sl2):
        p = predicates(sl2)
        assert p.perfect and p.alpha_perfect and p.alpha_surjective and not p.abelian

    def test_abelian(self, abelian3):
        p = predicates(abelian3)
        assert not p.perfect and not p.alpha_perfect and p.abelian


class TestLieization:
    def test_nonlie2_collapses_to_a_line(self, nonlie2):
        quot, proj = lieization(nonlie2)
        assert quot.dim == 1
        assert quot.is_skew()
        assert proj.is_homomorphism()

    def test_skew_input_unchanged(self, sl2):
        quot, proj = lieization(sl2)
        assert quot.dim == 3
        assert proj.map == Matrix.identity(QQ, 3)

    def test_abelian_unchanged(self, abelian3):
        quot, _ = lieization(abelian3)
        assert quot.dim == 3

    def test_random_outputs_are_skew(self):
        rng = random.Random(5)
        for _ in range(8):
            alg = random_algebra(QQ, rng)
            quot, proj = lieization(alg)
            assert quot.is_skew()
            for i in range(quot.dim):
                for j in range(quot.dim):
                    s = tuple(QQ.add(a, b) for a, b in zip(quot.c[i][j], quot.c[j][i]))
                    assert all(x == QQ.zero() for x in s)
            assert proj.is_homomorphism()


class TestYauTwist:
    def test_identity_twist_returns_input(self, sl2):
        twisted = yau_twist(sl2, Matrix.identity(QQ, 3))
        assert twisted.c == sl2.c
        assert twisted.twist == sl2.twist

    def test_abelian_any_endo(self):
        base = HomLeibnizAlgebra.abelian(QQ, 2)
        endo = Matrix.from_rows(QQ, [[1, 2], [0, 3]])
        twisted = yau_twist(base, endo)
        assert twisted.is_abelian()
        assert twisted.twist == endo

    def test_diagonal_automorphism_of_sl2(self, sl2_twisted):
        rep = sl2_twisted.validate()
        assert rep.valid
        p = predicates(sl2_twisted)
        assert p.perfect and p.alpha_perfect

    def test_non_endomorphism_rejected(self, sl2):
        bad = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        with pytest.raises(NotEndomorphism):
            yau_twist(sl2, bad)


class TestSubalgebraDirectSum:
    def test_twist_image_subalgebra(self, sl2_twisted):
        sub, incl = subalgebra(sl2_twisted, sl2_twisted.twist.image())
        assert sub.dim == 3
        assert incl.is_homomorphism()

    def test_direct_sum_validates(self, sl2, nonlie2):
        s = direct_sum(sl2, nonlie2)
        assert s.dim == 5
        assert s.validate().valid
        assert derived_subspace(s).dim == 4

    def test_subspace_not_closed_rejected(self, sl2):
        # span(e, f) is twist-stable but [e, f] = h escapes it; span(e2) of
        # an abelian plane brackets to zero but the twist sends e2 to e1 + e2
        with pytest.raises(StructureError, match="^subspace is not closed under bracket and twist$"):
            subalgebra(sl2, span(QQ, 3, [(1, 0, 0), (0, 1, 0)]))
        plane = HomLeibnizAlgebra.abelian(QQ, 2, Matrix.from_rows(QQ, [[1, 1], [0, 1]]))
        with pytest.raises(StructureError, match="^subspace is not closed under bracket and twist$"):
            subalgebra(plane, span(QQ, 2, [(0, 1)]))

    def test_subspace_over_another_field_rejected(self, sl2):
        # a GF(5) subspace is not read as one of a Q algebra: brackets taken
        # over Q would be tested against rows reduced mod 5
        line = Subspace.span(Field(5), 3, [(1, 4, 0)])
        with pytest.raises(FieldMismatch, match="^subspace over the wrong field$"):
            IdealHandle(sl2, line)
        with pytest.raises(FieldMismatch, match="^subspace over the wrong field$"):
            subalgebra(sl2, Subspace.full(Field(5), 3))
