from __future__ import annotations

import random
from fractions import Fraction

import pytest

from homleib.errors import InvalidAction, StructureError
from homleib.fields import Field
from homleib.linalg import Matrix, Subspace, sparse_table, sparse_vec
from homleib.algebras import AlgebraHom, HomLeibnizAlgebra, IdealHandle, quotient_algebra, subalgebra
from homleib.actions import (
    HomAction,
    MutualActions,
    SemidirectProduct,
    bracket_action,
    ideal_pair_actions,
    self_action,
    semidirect,
)
from homleib.generators import random_algebra, sl2 as make_sl2
from homleib.homology import CoRepresentation, adjoint_corep, trivial_corep

QQ = Field()


def reconstructed_action(sd: SemidirectProduct) -> HomAction:
    """Action read back from a split extension: x acts on m through the
    bracket of the section and inclusion images inside the total algebra."""
    return bracket_action(sd.algebra, (sd.project.target, sd.section), (sd.include.source, sd.include))


def perturb_left(action, x, m, vec):
    left = [list(row) for row in action.sparse_left]
    left[x][m] = sparse_vec(vec)
    return HomAction(action.actor, action.target,
                     tuple(tuple(r) for r in left), action.sparse_right)


class TestValidateAction:
    def test_trivial_action_is_valid_and_trivial(self, sl2, nonlie2):
        rep = HomAction.trivial(sl2, nonlie2).validate()
        assert rep.valid
        assert rep.flags["trivial"] is True

    def test_bracket_action_on_derived_ideal(self, nonlie2):
        id_l = AlgebraHom(nonlie2, nonlie2, Matrix.identity(QQ, 2))
        ideal = Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())])
        sub, incl = subalgebra(nonlie2, ideal)
        act = bracket_action(nonlie2, (nonlie2, id_l), (sub, incl))
        rep = act.validate()
        assert rep.valid
        # brackets against the derived line vanish here, so the action is trivial
        assert rep.flags["trivial"] is True

    def test_self_action_is_valid(self, nonlie2, sl2):
        for alg in (nonlie2, sl2):
            assert self_action(alg).validate().valid

    def test_perturbed_self_action_fails_with_witness(self, nonlie2):
        # replacing the value of e2 acting on e2 by e2 breaks identity g):
        # t_M(e2.e2) = t(e2) = e1 + e2 but t(e2) acting on t(e2) expands to e2
        bad = perturb_left(self_action(nonlie2), 1, 1, (QQ.zero(), QQ.one()))
        rep = bad.validate()
        assert not rep.valid
        assert rep.axiom_status["g"] is False
        assert ("e2", "e2") in {v.witness for v in rep.violations}

    def test_shape_mismatch(self, nonlie2, sl2):
        with pytest.raises(StructureError):
            HomAction(sl2, nonlie2, self_action(nonlie2).sparse_left, self_action(nonlie2).sparse_right)

    def test_representation_shape_on_abelian_target(self, nonlie2):
        # an abelian target makes the three bracket identities vacuous, so a
        # violation can only sit in the representation identities; here the
        # right action by the derived generator breaks identity a) at
        # (m, e2, e2): the left side is m, the right side cancels to zero
        der = IdealHandle(nonlie2, Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())]))
        quot, proj = quotient_algebra(nonlie2, der)
        left = tuple(tuple((QQ.zero(),) for _ in range(1)) for _ in range(2))
        right = (((QQ.one(),), (QQ.zero(),)),)
        cand = HomAction(nonlie2, quot, sparse_table(left), sparse_table(right))
        rep = cand.validate()
        assert not rep.valid
        assert rep.axiom_status["a"] is False
        for axiom in "def":
            assert rep.axiom_status[axiom] is True


class TestCompatibility:
    def test_adjoint_mutual_actions_compatible(self, nonlie2, sl2):
        for alg in (nonlie2, sl2):
            assert MutualActions.adjoint(alg).is_compatible()

    def test_two_ideals_compatible(self, heis3):
        parent = heis3
        first = Subspace.span(QQ, 3, [heis3.unit(2)])
        second = Subspace.full(QQ, 3)
        ma = ideal_pair_actions(parent, first, second)
        assert ma.is_compatible()

    def test_trivial_mutual_actions_compatible(self, sl2, abelian3):
        assert MutualActions.trivial(sl2, abelian3).is_compatible()

    def test_one_sided_zero_action_incompatible(self, sl2):
        adj = self_action(sl2)
        ma = MutualActions(adj, HomAction.trivial(sl2, sl2))
        rep = ma.check_compatible()
        assert not rep.valid
        assert rep.violations[0].witness


class TestSemidirect:
    def rank_checks(self, sd):
        f = sd.algebra.field
        assert sd.include.map.rank() == sd.include.source.dim
        assert sd.project.map.rank() == sd.project.target.dim
        assert sd.project.map.kernel() == sd.include.map.image()
        ident = Matrix.identity(f, sd.project.target.dim)
        assert sd.project.map.compose(sd.section.map) == ident
        zero = sd.project.map.compose(sd.include.map)
        assert zero.is_zero()

    def test_trivial_action_gives_direct_sum(self):
        a = HomLeibnizAlgebra.abelian(QQ, 2)
        b = HomLeibnizAlgebra.abelian(QQ, 1)
        sd = semidirect(HomAction.trivial(b, a))
        assert sd.algebra.dim == 3
        assert sd.algebra.is_abelian()
        self.rank_checks(sd)

    def test_self_action_of_nonlie2(self, nonlie2):
        sd = semidirect(self_action(nonlie2))
        assert sd.algebra.dim == 4
        assert sd.algebra.validate().valid
        self.rank_checks(sd)

    def test_classical_double_of_sl2(self, sl2):
        sd = semidirect(self_action(sl2))
        assert sd.algebra.dim == 6
        assert sd.algebra.validate().valid
        self.rank_checks(sd)

    def test_ideal_action_of_nonlie2(self, nonlie2):
        id_l = AlgebraHom(nonlie2, nonlie2, Matrix.identity(QQ, 2))
        ideal = Subspace.span(QQ, 2, [(QQ.one(), QQ.zero())])
        sub, incl = subalgebra(nonlie2, ideal)
        act = bracket_action(nonlie2, (nonlie2, id_l), (sub, incl))
        sd = semidirect(act)
        assert sd.algebra.dim == 3
        assert sd.algebra.validate().valid
        self.rank_checks(sd)

    def test_bracket_escaping_the_target_rejected(self, sl2):
        # [e, f] = h leaves span(f); the witness is the dense bracket
        e_line, f_line = (Subspace.span(QQ, 3, [sl2.unit(i)]) for i in (0, 1))
        with pytest.raises(InvalidAction, match="^bracket escapes the target subspace$") as info:
            bracket_action(sl2, subalgebra(sl2, e_line), subalgebra(sl2, f_line))
        assert info.value.witness == ((0, 0, 1),)

    def test_bracket_action_on_zero_sides(self, sl2):
        whole = (sl2, AlgebraHom(sl2, sl2, Matrix.identity(QQ, 3)))
        zero = subalgebra(sl2, Subspace.zero(QQ, 3))
        assert bracket_action(sl2, whole, zero) == HomAction.trivial(sl2, zero[0])
        assert bracket_action(sl2, zero, whole) == HomAction.trivial(zero[0], sl2)

    def test_invalid_action_rejected(self, nonlie2):
        bad = perturb_left(self_action(nonlie2), 1, 1, (QQ.zero(), QQ.one()))
        with pytest.raises(InvalidAction):
            semidirect(bad)

    def test_reconstruction_precomposes_the_twist(self, nonlie2, sl2):
        # reading the action back from the split sequence gives the original
        # action with the twist applied to the acting slot; on identity-twist
        # algebras the two coincide
        for alg in (nonlie2, sl2):
            act = self_action(alg)
            sd = semidirect(act)
            back = reconstructed_action(sd)
            assert back.validate().valid
            expected_left = tuple(
                tuple(act.act_left(alg.apply_twist(alg.unit(x)), alg.unit(m))
                      for m in range(alg.dim))
                for x in range(alg.dim))
            expected_right = tuple(
                tuple(act.act_right(alg.unit(m), alg.apply_twist(alg.unit(x)))
                      for x in range(alg.dim))
                for m in range(alg.dim))
            assert back.sparse_left == sparse_table(expected_left)
            assert back.sparse_right == sparse_table(expected_right)
        assert reconstructed_action(semidirect(self_action(make_sl2(QQ)))).sparse_left == \
            self_action(make_sl2(QQ)).sparse_left

    def test_random_semidirects_validate(self):
        rng = random.Random(3)
        for _ in range(5):
            alg = random_algebra(QQ, rng, max_dim=3)
            sd = semidirect(self_action(alg))
            assert sd.algebra.validate().valid
            self.rank_checks(sd)


# one value of a two-dimensional target in every form that is not the sparse
# one: the pairs unsorted, an index twice, out of range or negative, a zero
# scalar, a dense vector, a list
NOT_SPARSE = {
    "unsorted": ((1, 1), (0, 1)),
    "repeated index": ((0, 1), (0, 2)),
    "index past the end": ((2, 1),),
    "negative index": ((-1, 1),),
    "zero scalar": ((0, 0),),
    "dense value": (0, 1),
    "list": [(0, 1)],
}


class TestSparseTables:
    """An action and a co-representation store each operation only as a
    sparse table, each value the sorted (index, value) pairs of its nonzero
    coordinates; every other form is refused."""

    @staticmethod
    def _with(table, value):
        rows = [list(r) for r in table]
        rows[1][0] = value
        return tuple(tuple(r) for r in rows)

    @pytest.mark.parametrize("value", NOT_SPARSE.values(), ids=NOT_SPARSE)
    def test_action_refuses(self, nonlie2, value):
        a = self_action(nonlie2)
        for left, right in ((self._with(a.sparse_left, value), a.sparse_right),
                            (a.sparse_left, self._with(a.sparse_right, value))):
            with pytest.raises(StructureError, match="^action values must be target coordinate vectors$"):
                HomAction(nonlie2, nonlie2, left, right)

    @pytest.mark.parametrize("value", NOT_SPARSE.values(), ids=NOT_SPARSE)
    def test_corep_refuses(self, nonlie2, value):
        M = adjoint_corep(nonlie2)
        for left, right in ((self._with(M.sparse_left, value), M.sparse_right),
                            (M.sparse_left, self._with(M.sparse_right, value))):
            with pytest.raises(StructureError, match="^operation values must be coefficient vectors$"):
                CoRepresentation(nonlie2, 2, M.twist, left, right)

    def test_dense_grids_refused(self, nonlie2):
        with pytest.raises(StructureError, match="^action values must be target coordinate vectors$"):
            HomAction(nonlie2, nonlie2, nonlie2.c, nonlie2.c)
        with pytest.raises(StructureError, match="^operation values must be coefficient vectors$"):
            CoRepresentation(nonlie2, 2, nonlie2.twist, nonlie2.c, nonlie2.c)

    def test_non_canonical_scalars_refused(self):
        # a value that is zero in the field but not the int 0 would count as
        # a nonzero coordinate: over GF(5), 5 is zero, so an action by it
        # would be trivial and yet report that it is not
        for f, bad, good in ((Field(5), (5, -1, 7, Fraction(1, 2), True, 1.0), (1, 4)),
                             (QQ, (Fraction(2), Fraction(0), True, 1.0), (2, -3, Fraction(1, 2)))):
            A, one = HomLeibnizAlgebra.abelian(f, 1), Matrix.identity(f, 1)
            for x in bad:
                table = ((((0, x),),),)
                with pytest.raises(StructureError, match="^action values must be target coordinate vectors$"):
                    HomAction(A, A, table, table)
                with pytest.raises(StructureError, match="^operation values must be coefficient vectors$"):
                    CoRepresentation(A, 1, one, table, table)
            for x in good:
                table = ((((0, x),),),)
                assert not HomAction(A, A, table, table).is_trivial()
                CoRepresentation(A, 1, one, table, table)

    def test_shapes(self, nonlie2, sl2):
        a, M = self_action(nonlie2), adjoint_corep(nonlie2)
        with pytest.raises(StructureError, match="^left action tensor must be actor x target$"):
            HomAction(sl2, nonlie2, a.sparse_left, a.sparse_right)
        with pytest.raises(StructureError, match="^right action tensor must be target x actor$"):
            HomAction(nonlie2, nonlie2, a.sparse_left, a.sparse_right[:1])
        with pytest.raises(StructureError, match="^left operation tensor must be algebra x space$"):
            CoRepresentation(nonlie2, 2, M.twist, M.sparse_left[:1], M.sparse_right)
        with pytest.raises(StructureError, match="^right operation tensor must be space x algebra$"):
            CoRepresentation(nonlie2, 2, M.twist, M.sparse_left, tuple(r[:1] for r in M.sparse_right))

    def test_builders_store_the_sparse_form(self, nonlie2, sl2):
        # the adjoint action and co-representation share the bracket's
        # sparse table, and the trivial ones hold empty values
        L = sl2
        assert self_action(L).sparse_left is self_action(L).sparse_right is L.sparse_c
        assert adjoint_corep(L).sparse_right is L.sparse_c
        assert HomAction.trivial(nonlie2, L).sparse_left == (((),) * 3,) * 2
        assert trivial_corep(L, 2).sparse_right == (((),) * 3,) * 2
