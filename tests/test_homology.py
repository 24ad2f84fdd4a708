from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import pytest
import sympy

import homleib.homology
from homleib import generators
from homleib.cli import main
from homleib.documents import serialize_algebra
from homleib.fields import Field
from homleib.linalg import Matrix, RrefAccumulator, Subspace, dense_vec, sparse_vec
from homleib.algebras import HomLeibnizAlgebra, derived_subspace, direct_sum, yau_twist
from homleib.generators import random_corep
from homleib.homology import (
    ChainComplex,
    CoRepresentation,
    adjoint_corep,
    chain_dim,
    coinvariants_dim,
    degree_one_trivial_closed_form,
    trivial_corep,
)

QQ = Field()
GF = Field(1000003)


def _index(L_dim: int, m_idx: int, xs: tuple) -> int:
    out = m_idx
    for x in xs:
        out = out * L_dim + x
    return out


def reference_boundary_column(L, M, n, m_idx, xs):
    """The degree-n boundary of m (x) x_1 (x) ... (x) x_n with all three
    families built from scratch, as {row index: coefficient}: the reference
    for ``ChainComplex.columns``, which extends the cached degree below."""
    f = L.field
    zero = f.zero()
    dl = L.dim
    tw = L.sparse_twist
    out = {}

    def scatter(sign_positive: bool, head, slots):
        # head and slots are sparse: a coefficient vector and algebra
        # vectors; each combination of their nonzero coordinates contributes
        for picks in iter_product(*slots):
            coeff = None
            for _, x in picks:
                coeff = x if coeff is None else f.mul(coeff, x)
            combo = tuple(idx for idx, _ in picks)
            for hm, hv in head:
                total = hv if coeff is None else f.mul(hv, coeff)
                if not sign_positive:
                    total = f.neg(total)
                key = _index(dl, hm, combo)
                cur = f.add(out.get(key, zero), total)
                if not cur:
                    out.pop(key, None)
                else:
                    out[key] = cur

    # head family: m acted by x_1 on the right, the rest twisted
    scatter(True, M.sparse_right[m_idx][xs[0]], [tw[x] for x in xs[1:]])
    # left-action family, i = 2..n with sign (-1)^i
    for i in range(2, n + 1):
        head = M.sparse_left[xs[i - 1]][m_idx]
        slots = [tw[x] for k, x in enumerate(xs) if k != i - 1]
        scatter(i % 2 == 0, head, slots)
    # bracket insertion family over pairs i < j, sign (-1)^(j+1)
    tm = M.sparse_twist[m_idx]
    for j in range(2, n + 1):
        for i in range(1, j):
            slots = []
            for k, x in enumerate(xs, start=1):
                if k == j:
                    continue
                slots.append(L.sparse_c[xs[i - 1]][xs[j - 1]] if k == i else tw[x])
            scatter((j + 1) % 2 == 0, tm, slots)
    return out


def boundary_matrix(cx, n: int) -> Matrix:
    """The degree-n boundary of ``cx`` as a dense matrix, from its cached
    sparse columns."""
    f = cx.algebra.field
    rows = chain_dim(cx.algebra, cx.coeffs, n - 1)
    return Matrix.from_columns(f, rows, [dense_vec(f, rows, col) for col in cx.columns(n)])


@dataclass(frozen=True)
class HomologyResult:
    degree: int
    dim: int
    representatives: tuple  # chain-space coordinate vectors spanning a complement


def dense_homology(cx, n: int) -> HomologyResult:
    """Dimension of cycles modulo boundaries in degree n, with canonical
    representatives (degree 0 is the cokernel of the first boundary), from
    the dense boundaries: the reference for ``ChainComplex.homology_dim``."""
    f = cx.algebra.field
    cycles = Subspace.full(f, cx.coeffs.space_dim) if n == 0 else boundary_matrix(cx, n).kernel()
    img = boundary_matrix(cx, n + 1).image()
    acc = RrefAccumulator(f, chain_dim(cx.algebra, cx.coeffs, n))
    for v in img.basis.entries:
        acc.add(sparse_vec(v))
    reps = [v for v in cycles.basis.entries if acc.add(sparse_vec(v))]
    return HomologyResult(n, cycles.dim - img.dim, tuple(reps))


def oracle_trivial_homology(alg, degree):
    """Independent second-homology oracle for scalar coefficients: the only
    surviving boundary family is bracket insertion, assembled here directly
    and row-reduced with sympy."""
    dim = alg.dim

    def tw(i):
        return [Fraction(x) for x in alg.twist.col(i)]

    def columns(n):
        cols = []
        for xs in iter_product(*[range(dim)] * n):
            out = {}
            for j in range(2, n + 1):
                for i in range(1, j):
                    slots = []
                    for k, x in enumerate(xs, start=1):
                        if k == j:
                            continue
                        slots.append([Fraction(c) for c in alg.c[xs[i - 1]][xs[j - 1]]]
                                     if k == i else tw(x))
                    sign = 1 if (j + 1) % 2 == 0 else -1
                    for combo in iter_product(*[range(dim)] * (n - 1)):
                        coeff = Fraction(sign)
                        for vec, idx in zip(slots, combo):
                            coeff *= vec[idx]
                        if coeff:
                            key = 0
                            for idx in combo:
                                key = key * dim + idx
                            out[key] = out.get(key, Fraction(0)) + coeff
            col = [Fraction(0)] * dim ** (n - 1)
            for k, v in out.items():
                col[k] = v
            cols.append(col)
        return sympy.Matrix(cols).T

    d_n = columns(degree)
    d_next = columns(degree + 1)
    cycles = dim ** degree - d_n.rank()
    return cycles - d_next.rank()


class TestCoRepresentations:
    def test_trivial_corep_valid(self, nonlie2, abelian3):
        for alg in (nonlie2, abelian3):
            assert trivial_corep(alg, 2).validate().valid

    def test_adjoint_corep_valid(self, nonlie2, sl2, sl2_twisted):
        for alg in (nonlie2, sl2, sl2_twisted):
            assert adjoint_corep(alg).validate().valid

    def test_sign_flip_on_sl2_fails_identity_c(self, sl2):
        # dropping the sign of the left operation flips the right side of c),
        # so it fails wherever a double bracket survives; a witness exists on
        # any algebra with nonvanishing double brackets
        adj = adjoint_corep(sl2)
        flipped = CoRepresentation(sl2, 3, adj.twist,
                                   tuple(tuple(tuple(QQ.neg(x) for x in v) for v in row)
                                         for row in adj.left),
                                   adj.right)
        rep = flipped.validate()
        assert not rep.valid
        assert rep.axiom_status["c"] is False
        assert rep.violations[0].witness

    def test_perturbed_adjoint_fails_on_nonlie2(self, nonlie2):
        # replacing the value of e2 acting on e2 by e2 breaks identity d)
        adj = adjoint_corep(nonlie2)
        left = [list(row) for row in adj.left]
        left[1][1] = (QQ.zero(), QQ.one())
        bad = CoRepresentation(nonlie2, 2, adj.twist,
                               tuple(tuple(r) for r in left), adj.right)
        rep = bad.validate()
        assert not rep.valid
        assert rep.axiom_status["d"] is False


class TestBoundary:
    def test_degree_one_is_the_right_operation(self, nonlie2):
        adj = adjoint_corep(nonlie2)
        bm = boundary_matrix(ChainComplex(nonlie2, adj), 1)
        for m in range(2):
            for x in range(2):
                assert bm.col(m * 2 + x) == adj.right[m][x]

    def test_trivial_coefficients_degree_two_is_bracket_insertion(self, sl2):
        triv = trivial_corep(sl2)
        bm = boundary_matrix(ChainComplex(sl2, triv), 2)
        for i in range(3):
            for j in range(3):
                expected = tuple(QQ.neg(x) for x in sl2.c[i][j])
                assert bm.col(i * 3 + j) == expected

    def test_degree_two_adjoint_expansion(self, nonlie2):
        # independent expansion of the three families for coefficients equal
        # to the algebra itself with x.m = -[m, x] and m.x = [m, x]
        adj = adjoint_corep(nonlie2)
        bm = boundary_matrix(ChainComplex(nonlie2, adj), 2)
        alg = nonlie2
        for m in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    em = alg.unit(m)
                    head = alg.bracket(em, alg.unit(x1))  # m . x1
                    t2 = alg.apply_twist(alg.unit(x2))
                    term1 = _tens(head, t2)
                    left_val = tuple(QQ.neg(v) for v in alg.bracket(em, alg.unit(x2)))
                    term2 = _tens(left_val, alg.apply_twist(alg.unit(x1)))
                    term3 = _tens(alg.apply_twist(em), alg.c[x1][x2])
                    expected = tuple(
                        QQ.sub(QQ.add(a, b), c)
                        for a, b, c in zip(term1, term2, term3))
                    col = bm.col((m * 2 + x1) * 2 + x2)
                    assert col == expected

    def test_squares_to_zero_on_fixed_instances(self, nonlie2, sl2, sl2_twisted):
        cases = [(nonlie2, adjoint_corep(nonlie2)),
                 (sl2, trivial_corep(sl2)),
                 (sl2_twisted, trivial_corep(sl2_twisted)),
                 (sl2, adjoint_corep(sl2))]
        for alg, corep in cases:
            cx = ChainComplex(alg, corep)
            for n in range(2, 5):
                assert cx.squares_to_zero(n)

    def test_squares_to_zero_on_random_coreps(self):
        rng = random.Random(29)
        for _ in range(10):
            cx = ChainComplex(*random_corep(QQ, rng, max_dim=3))
            for n in range(2, 5):
                assert cx.squares_to_zero(n)


def _bumped_adjoints(L):
    """Every co-representation made from L's adjoint one by adding one to a
    single coordinate of a single left or right value."""
    f = L.field
    adj = adjoint_corep(L)
    for side in ("left", "right"):
        table = getattr(adj, side)
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                for coord in range(L.dim):
                    grid = [list(r) for r in table]
                    grid[i][j] = tuple(f.add(x, f.one()) if k == coord else x for k, x in enumerate(v))
                    bumped = tuple(tuple(r) for r in grid)
                    yield CoRepresentation(L, L.dim, adj.twist,
                                           bumped if side == "left" else adj.left,
                                           bumped if side == "right" else adj.right)


class TestChainComplex:
    @pytest.mark.parametrize("f", [QQ, GF], ids=["Q", "GF(1000003)"])
    def test_columns_match_the_all_terms_reference(self, f):
        # degree n is built from the cached degree n-1; every degree must
        # equal the boundary with all its families built from scratch
        twisted_sq = yau_twist(generators.square_bracket_algebra(f), Matrix.from_rows(f, [[4, 1], [0, 2]]))
        assert twisted_sq.validate().valid
        cases = [(L, M) for L in (generators.sl2(f), twisted_sq)
                 for M in (adjoint_corep(L), trivial_corep(L, 2, Matrix.from_rows(f, [[1, 2], [0, 3]])))]
        rng = random.Random(43)
        cases += [random_corep(f, rng) for _ in range(20)]
        for L, M in cases:
            cx = ChainComplex(L, M)
            for n in range(1, 5):
                if chain_dim(L, M, n) > 3000:
                    break
                expected = [reference_boundary_column(L, M, n, m_idx, xs)
                            for m_idx in range(M.space_dim)
                            for xs in iter_product(*[range(L.dim)] * n)]
                assert [dict(col) for col in cx.columns(n)] == expected

    @pytest.mark.parametrize("f", [QQ, GF], ids=["Q", "GF(1000003)"])
    def test_every_invalid_adjoint_bump_breaks_the_square(self, f):
        # one unit added to one coordinate of one adjoint value: whenever the
        # identities fail, the computed d^2 fails in some degree 2-4, and
        # whenever they still hold, d^2 still vanishes
        invalid = {}
        for name, L in (("sl2", generators.sl2(f)), ("heisenberg", generators.heisenberg(f))):
            invalid[name] = 0
            for M in _bumped_adjoints(L):
                cx = ChainComplex(L, M)
                if M.validate().valid:
                    assert all(cx.squares_to_zero(n) for n in range(2, 5))
                else:
                    invalid[name] += 1
                    assert not all(cx.squares_to_zero(n) for n in range(2, 5))
        assert invalid == {"sl2": 54, "heisenberg": 46}

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    @pytest.mark.parametrize("side, i, j, coord", [("right", 0, 1, 0), ("left", 1, 1, 2)])
    def test_perturbed_adjoint_breaks_the_square(self, f, side, i, j, coord):
        # one value of sl2's adjoint co-representation moved by one unit:
        # the identities fail and the computed d^2 no longer vanishes
        sl2 = generators.sl2(f)
        adj = adjoint_corep(sl2)
        grids = {"left": [list(r) for r in adj.left], "right": [list(r) for r in adj.right]}
        v = list(grids[side][i][j])
        v[coord] = f.add(v[coord], f.one())
        grids[side][i][j] = tuple(v)
        bad = CoRepresentation(sl2, 3, adj.twist, *(tuple(tuple(r) for r in grids[k])
                                                    for k in ("left", "right")))
        assert not bad.validate().valid
        cx = ChainComplex(sl2, bad)
        assert not cx.squares_to_zero(2)
        assert not cx.squares_to_zero(3)

    @staticmethod
    def _count_builds(monkeypatch):
        builds = Counter()
        keep = []  # holds each co-representation so its id stays unique
        build = homleib.homology.boundary_column

        def counted(L, M, n, m_idx, xs, *rest):
            keep.append(M)
            builds[id(M), n, m_idx, xs] += 1
            return build(L, M, n, m_idx, xs, *rest)

        monkeypatch.setattr(homleib.homology, "boundary_column", counted)
        return builds

    def test_homology_builds_each_column_once(self, monkeypatch, tmp_path, capsys):
        alg = direct_sum(generators.sl2(QQ), HomLeibnizAlgebra.abelian(QQ, 2))
        path = tmp_path / "sl2ab2.alg"
        path.write_text(json.dumps(serialize_algebra(alg)), encoding="utf-8")
        builds = self._count_builds(monkeypatch)
        argv = ["homology", str(path), "--coeffs", "trivial", "--max-n", "3", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["boundary_squares_to_zero"] is True
        assert sum(builds.values()) == 5 + 25 + 125 + 625
        assert set(builds.values()) == {1}

    def test_check_all_builds_each_column_once(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "sl2.alg"
        path.write_text(json.dumps(serialize_algebra(generators.sl2(QQ))), encoding="utf-8")
        builds = self._count_builds(monkeypatch)
        assert main(["check-all", str(path), "--seed", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert builds and set(builds.values()) == {1}


def _tens(u, v):
    out = []
    for a in u:
        for b in v:
            out.append(QQ.mul(a, b))
    return tuple(out)


class TestHomology:
    def test_degree_zero_matches_coinvariants(self):
        rng = random.Random(31)
        for _ in range(10):
            alg, corep = random_corep(QQ, rng, max_dim=3)
            assert ChainComplex(alg, corep).homology_dim(0) == coinvariants_dim(corep)

    def test_degree_one_closed_form_scalar_coefficients(self, nonlie2, sl2, heis3):
        for alg in (nonlie2, sl2, heis3):
            triv = trivial_corep(alg)
            expected = alg.dim - derived_subspace(alg).dim
            assert ChainComplex(alg, triv).homology_dim(1) == expected
            assert degree_one_trivial_closed_form(alg, triv) == expected

    def test_degree_one_closed_form_trivial_operations(self, nonlie2):
        twist = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
        corep = trivial_corep(nonlie2, 2, twist)
        assert ChainComplex(nonlie2, corep).homology_dim(1) == \
            degree_one_trivial_closed_form(nonlie2, corep)

    def test_degree_two_values_against_oracle(self, nonlie2, sl2, sl2_twisted, heis3):
        # frozen values confirmed by the independent sympy oracle
        expected = {"nonlie2": 1, "sl2": 0, "sl2_twisted": 0, "heis3": 5}
        algs = {"nonlie2": nonlie2, "sl2": sl2, "sl2_twisted": sl2_twisted, "heis3": heis3}
        for name, alg in algs.items():
            got = ChainComplex(alg, trivial_corep(alg)).homology_dim(2)
            assert got == oracle_trivial_homology(alg, 2)
            assert got == expected[name]

    def test_independent_of_basis_permutation(self, sl2):
        perm = [2, 0, 1]
        table = tuple(
            tuple(tuple(sl2.c[perm[i]][perm[j]][perm[k]] for k in range(3))
                  for j in range(3))
            for i in range(3))
        relabeled = HomLeibnizAlgebra(QQ, 3, table, Matrix.identity(QQ, 3), ("a", "b", "c"))
        assert relabeled.validate().valid
        for n in range(3):
            assert ChainComplex(relabeled, trivial_corep(relabeled)).homology_dim(n) == \
                ChainComplex(sl2, trivial_corep(sl2)).homology_dim(n)

    def test_chain_dims(self, sl2):
        triv = trivial_corep(sl2)
        assert [chain_dim(sl2, triv, n) for n in range(4)] == [1, 3, 9, 27]

    def test_representatives_complement_the_boundaries(self, nonlie2):
        cx = ChainComplex(nonlie2, trivial_corep(nonlie2))
        res = dense_homology(cx, 2)
        assert len(res.representatives) == res.dim == 1
        img = boundary_matrix(cx, 3).image()
        joined = Subspace.span(QQ, 4, list(img.basis.entries) + list(res.representatives))
        assert joined.dim == img.dim + res.dim
        cycles = boundary_matrix(cx, 2).kernel()
        assert all(cycles.contains(r) for r in res.representatives)

    @pytest.mark.parametrize("f", [QQ, Field(1000003)], ids=["Q", "GF(1000003)"])
    def test_rank_formula_matches_homology(self, f):
        # dim H_n = dim C_n - rank d_n - rank d_(n+1), from sparse ranks alone
        rng = random.Random(17)
        for _ in range(6):
            L, M = random_corep(f, rng, max_dim=3)
            cx = ChainComplex(L, M)
            ranks = [cx.rank(n) for n in range(4)]
            assert ranks[0] == 0
            for n in range(1, 4):
                assert ranks[n] == boundary_matrix(cx, n).rank()
            for n in range(3):
                assert chain_dim(L, M, n) - ranks[n] - ranks[n + 1] == dense_homology(cx, n).dim
                assert cx.homology_dim(n) == dense_homology(cx, n).dim
