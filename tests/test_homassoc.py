from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
import sympy

from homleib import homassoc
from homleib.cli import main
from homleib.documents import serialize_algebra
from homleib.errors import AlphaIdentityFails, FieldMismatch, InternalInconsistency
from homleib.fields import Field
from homleib.linalg import Matrix, Subspace, sparse_vec, unwrapped
from homleib.algebras import AlgebraHom, derived_subspace
from homleib.homassoc import (
    HochschildModule,
    HomAssociativeAlgebra,
    alpha_identity_holds,
    alpha_identity_witness,
    boundary_rows,
    cyclic_identity_holds,
    first_homologies,
    hochschild_module,
    milnor_relations,
    sequence_check,
    to_leibniz,
    yau_twist_assoc,
)
from test_checker import dense_add, dense_sub
from test_linalg import dense_outer
from homleib_testkit import boundary_ideal_agreement, fields, replace

QQ = Field()
GFP = Field(1000003)


def boundary_shapes(A, table, tens):
    """The dense reference for ``homassoc.boundary_rows``: the vectors
    p(a,b) (x) t(c) - t(a) (x) p(b,c) + p(c,a) (x) t(b) over basis triples
    (a, b, c) in row-major order, zero ones included, for the bilinear map p
    with values table[i][j] and the pure-tensor embedding ``tens``."""
    f = A.field
    tw = [A.twist.col(i) for i in range(A.dim)]
    return [dense_add(f, dense_sub(f, tens(table[a][b], tw[c]), tens(tw[a], table[b][c])), tens(table[c][a], tw[b]))
            for a, b, c in product(range(A.dim), repeat=3)]


def hochschild_boundary(A):
    """The degree-three boundary A (x) A (x) A -> A (x) A as a dense matrix,
    columns over basis triples in row-major order."""
    size = A.dim * A.dim
    return Matrix.from_columns(A.field, size, map(sparse_vec, boundary_shapes(
        A, A.p, lambda u, v: dense_outer(A.field, u, v, size))))


def oracle_boundary_rank(A):
    """Independent assembly of the degree-three boundary with sympy."""
    n = A.dim

    def prod(i, j):
        return [Fraction(x) for x in A.p[i][j]]

    def tw(i):
        return [Fraction(x) for x in A.twist.col(i)]

    def tens(u, v):
        out = [Fraction(0)] * (n * n)
        for i in range(n):
            for j in range(n):
                out[i * n + j] += u[i] * v[j]
        return out

    cols = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                col = tens(prod(a, b), tw(c))
                col = [x - y for x, y in zip(col, tens(tw(a), prod(b, c)))]
                col = [x + y for x, y in zip(col, tens(prod(c, a), tw(b)))]
                cols.append(col)
    return sympy.Matrix(cols).T.rank()


@pytest.fixture
def twisted_dual(dual_numbers):
    return yau_twist_assoc(dual_numbers, Matrix.from_rows(QQ, [[1, 0], [0, -1]]))


@pytest.fixture
def mixed(upper_triangular, twisted_dual):
    """Noncommutative, twist not the identity, twist-identity condition holds."""
    a, b = upper_triangular, twisted_dual
    n = a.dim + b.dim
    prods = {}
    for i in range(a.dim):
        for j in range(a.dim):
            nz = {k: v for k, v in enumerate(a.p[i][j]) if v != QQ.zero()}
            if nz:
                prods[(i, j)] = nz
    for i in range(b.dim):
        for j in range(b.dim):
            nz = {a.dim + k: v for k, v in enumerate(b.p[i][j]) if v != QQ.zero()}
            if nz:
                prods[(a.dim + i, a.dim + j)] = nz
    tw = [[QQ.zero()] * n for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            tw[i][j] = a.twist.entries[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            tw[a.dim + i][a.dim + j] = b.twist.entries[i][j]
    return HomAssociativeAlgebra.from_products(
        QQ, n, prods, Matrix(QQ, n, n, tuple(tuple(r) for r in tw)),
        labels=tuple(x + ".1" for x in a.labels) + tuple(x + ".2" for x in b.labels))


class TestValidate:
    def test_dual_numbers(self, dual_numbers):
        rep = dual_numbers.validate()
        assert rep.valid
        assert rep.flags["commutative"] is True

    def test_upper_triangular(self, upper_triangular):
        rep = upper_triangular.validate()
        assert rep.valid
        assert rep.flags["commutative"] is False

    def test_non_multiplicative_twist_rejected(self, dual_numbers):
        # sending x to 1 squares inconsistently: t(x.x) = 0 but t(x)t(x) = 1
        bad = HomAssociativeAlgebra(QQ, 2, dual_numbers.p,
                                    Matrix.from_rows(QQ, [[1, 1], [0, 0]]),
                                    dual_numbers.labels)
        rep = bad.validate()
        assert not rep.valid
        assert ("x", "x") in {v.witness for v in rep.violations}

    def test_twist_over_wrong_field_rejected(self, dual_numbers):
        with pytest.raises(FieldMismatch):
            HomAssociativeAlgebra(QQ, 2, dual_numbers.p, Matrix.identity(Field(5), 2),
                                  dual_numbers.labels)

    def test_twisted_instances_validate(self, twisted_dual, mixed):
        assert twisted_dual.validate().valid
        assert mixed.validate().valid


class TestCommutatorAlgebra:
    def test_commutative_gives_abelian(self, dual_numbers):
        lb = to_leibniz(dual_numbers)
        assert lb.is_abelian()

    def test_upper_triangular(self, upper_triangular):
        lb = to_leibniz(upper_triangular)
        assert lb.validate().valid
        assert lb.is_skew()
        assert derived_subspace(lb).dim == 1

    def test_full_matrices(self, gl2):
        lb = to_leibniz(gl2)
        assert lb.validate().valid
        assert derived_subspace(lb).dim == 3


class TestHochschildModule:
    def test_zero_product_line(self):
        a = HomAssociativeAlgebra.from_products(QQ, 1, {}, labels=("u",))
        h = hochschild_module(a)
        assert h.algebra.dim == 1
        assert h.algebra.is_abelian()
        assert h.phi.is_zero()

    def test_dual_numbers_against_oracle(self, dual_numbers):
        h = hochschild_module(dual_numbers)
        rank = oracle_boundary_rank(dual_numbers)
        assert rank == 3
        assert h.presentation.relations.dim == rank
        assert h.algebra.dim == 4 - rank == 1

    def test_upper_triangular_evaluation(self, upper_triangular):
        h = hochschild_module(upper_triangular)
        assert h.phi.rank() == 1
        assert h.commutator_space.dim == 1
        assert h.presentation.relations.dim == oracle_boundary_rank(upper_triangular)

    def test_command_boundary_rank_against_oracle(self, dual_numbers, upper_triangular, tmp_path, capsys):
        # the command reads the rank off the presentation's relations
        for A in (dual_numbers, upper_triangular):
            path = tmp_path / "a.alg"
            path.write_text(json.dumps(serialize_algebra(A)), encoding="utf-8")
            assert main(["hochschild", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["boundary_rank"] == oracle_boundary_rank(A)

    def test_composite_vanishes(self, dual_numbers, upper_triangular, gl2, mixed):
        # the boundary followed by the commutator evaluation is zero
        for A in (dual_numbers, upper_triangular, gl2, mixed):
            lb = to_leibniz(A)
            b3 = hochschild_boundary(A)
            n = A.dim
            for col in range(n ** 3):
                v = b3.col(col)
                out = [QQ.zero()] * n
                for i in range(n):
                    for j in range(n):
                        c = v[i * n + j]
                        if c != QQ.zero():
                            out = [QQ.add(x, QQ.mul(c, w))
                                   for x, w in zip(out, lb.c[i][j])]
                assert not any(out)

    def test_cyclic_identity(self, dual_numbers, upper_triangular, gl2, mixed):
        for A in (dual_numbers, upper_triangular, gl2, mixed):
            assert cyclic_identity_holds(hochschild_module(A))

    def test_rank_nullity_of_evaluation(self, dual_numbers, upper_triangular, gl2, mixed):
        for A in (dual_numbers, upper_triangular, gl2, mixed):
            h = hochschild_module(A)
            assert h.first_homology_dim == h.algebra.dim - h.commutator_space.dim

    def test_tensor_square_description_noncommutative(self, upper_triangular, gl2):
        for A in (upper_triangular, gl2):
            iso = boundary_ideal_agreement(A)
            assert iso.map.is_injective() and iso.map.is_surjective()

    def test_tensor_square_description_fails_on_central_summands(self, dual_numbers, mixed):
        # commutative directions act trivially, so the tensor square keeps two
        # unidentified copies of them and the quotient description overshoots;
        # the mismatch is reported loudly rather than patched
        for A in (dual_numbers, mixed):
            with pytest.raises(InternalInconsistency):
                boundary_ideal_agreement(A)


class TestFirstHomologies:
    def test_identity_twist_always_satisfies_the_condition(self, upper_triangular, gl2):
        for A in (upper_triangular, gl2):
            assert alpha_identity_holds(A)

    def test_commutative_kernel_is_everything(self, dual_numbers):
        fh = first_homologies(hochschild_module(dual_numbers))
        assert fh.hh1_alpha_dim == fh.quotient_dim == 1

    def test_dual_numbers_milnor_agrees(self, dual_numbers, twisted_dual):
        for A in (dual_numbers, twisted_dual):
            fh = first_homologies(hochschild_module(A))
            assert fh.hh1_alpha_dim == fh.hh1_milnor_dim

    def test_milnor_relations_against_oracle(self, upper_triangular):
        # independent span of the boundary image plus both commutator families
        A = upper_triangular
        n = A.dim
        rows = []
        b3 = hochschild_boundary(A)
        for col in range(n ** 3):
            rows.append([Fraction(x) for x in b3.col(col)])
        lb = to_leibniz(A)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ta = [Fraction(x) for x in A.twist.col(a)]
                    tc = [Fraction(x) for x in A.twist.col(c)]
                    br_bc = [Fraction(x) for x in lb.c[b][c]]
                    br_ab = [Fraction(x) for x in lb.c[a][b]]
                    r1 = [Fraction(0)] * (n * n)
                    r2 = [Fraction(0)] * (n * n)
                    for i in range(n):
                        for j in range(n):
                            r1[i * n + j] += ta[i] * br_bc[j]
                            r2[i * n + j] += br_ab[i] * tc[j]
                    rows.append(r1)
                    rows.append(r2)

        rank = sympy.Matrix(rows).rank()
        h = hochschild_module(A)
        assert milnor_relations(h).dim == rank
        assert first_homologies(h).hh1_milnor_dim == n * n - rank == 0

    def test_alpha_identity_fails_with_witness(self, upper_triangular):
        scaled = yau_twist_assoc(upper_triangular,
                                 Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
        wit = alpha_identity_witness(scaled)
        assert wit is not None
        assert wit[0] == "e11"


class TestSequence:
    def test_commutative_collapse(self, dual_numbers, twisted_dual):
        for A in (dual_numbers, twisted_dual):
            h = hochschild_module(A)
            rep = sequence_check(h)
            assert rep.ok, [i.name for i in rep.failures()]
            fh = first_homologies(h)
            assert fh.hh1_alpha_dim == fh.hh1_milnor_dim

    def test_upper_triangular_full_certificate(self, upper_triangular):
        rep = sequence_check(hochschild_module(upper_triangular))
        assert rep.ok, [i.name for i in rep.failures()]
        assert rep.dims["commutator modulo inner"] == 0

    def test_mixed_instance(self, mixed):
        rep = sequence_check(hochschild_module(mixed))
        assert rep.ok, [i.name for i in rep.failures()]
        assert rep.dims["first homology"] == 1

    def test_full_matrices(self, gl2):
        rep = sequence_check(hochschild_module(gl2))
        assert rep.ok, [i.name for i in rep.failures()]

    @pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
    def test_exterior_algebra_has_a_kernel_over_the_commutator_tensor(self, f):
        # the commutator subspace is <xy> and the connecting map starts from
        # a 6-dimensional kernel; the whole report is pinned, every check
        # by name and in order
        rep = sequence_check(hochschild_module(exterior_algebra(f)))
        assert rep.to_dict() == {
            "subject": "hochschild comparison sequence", "ok": True,
            "checks": [{"name": name, "ok": True} for name in SEQUENCE_CHECKS],
            "dims": {"quotient algebra": 5, "commutator subspace": 1, "first homology": 4,
                     "tensor with quotient": 23, "tensor with commutator": 6, "tensor with first homology": 24,
                     "commutator modulo inner": 1, "kernel over quotient tensor": 21,
                     "kernel over commutator tensor": 6}}

    def test_alpha_identity_violation_raises(self, upper_triangular):
        scaled = yau_twist_assoc(upper_triangular,
                                 Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
        with pytest.raises(AlphaIdentityFails) as err:
            sequence_check(hochschild_module(scaled))
        assert err.value.witness is not None
        # the condition is checked before anything else is read from the
        # module: a stand-in holding only the algebra raises the same
        with pytest.raises(AlphaIdentityFails):
            sequence_check(SimpleNamespace(parent=scaled))


def exterior_algebra(f):
    """The exterior algebra on x, y: x^2 = y^2 = 0 and yx = -xy."""
    return HomAssociativeAlgebra.from_products(
        f, 4, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}, (1, 0): {1: 1},
               (2, 0): {2: 1}, (3, 0): {3: 1}, (1, 2): {3: 1}, (2, 1): {3: -1}},
        labels=("1", "x", "y", "xy"))


SEQUENCE_CHECKS = (
    "mutual actions compatible", "homology includes as a homomorphism",
    "evaluation is a homomorphism onto the commutator subalgebra", "tensored evaluation surjective",
    "tensor row exact in the middle", "column over the homology tensor vanishes",
    "column vanishes on the included homology tensor", "middle cokernel matches the Milnor-type homology",
    "right cokernel matches the commutator quotient", "homology tensor lands in the kernel",
    "exact at the quotient-tensor kernel", "kernels map onward", "connecting lifts exist",
    "exact at the commutator-tensor kernel", "exact at the first homology",
    "commutator map descends to the Milnor quotient", "exact at the Milnor-type homology",
    "onto the commutator cokernel")


def _failed(rep) -> list:
    return [i.name for i in rep.failures()]


class _DropsLastCoordinate(Matrix):
    """A map whose preimages lose their last coordinate."""

    def preimage_sparse(self, pairs):
        x = super().preimage_sparse(pairs)
        return x if x is None else tuple((k, v) for k, v in x if k != self.cols - 1)


class _MissesFirstHomologyVector(HochschildModule):
    """A module whose first homology lacks its first basis vector."""

    def first_homology(self):
        return Subspace.span_sparse(self.phi.field, self.phi.cols, super().first_homology().sparse_rows[1:])


@pytest.mark.parametrize("f", [QQ, GFP], ids=["Q", "GF(1000003)"])
class TestSequenceSeesWrongMaps:
    """Each joint of the Hochschild comparison sequence handed one wrong map
    reads ``ok: false``: valid inputs make every check true, so only a wrong
    map tells a check from a weakened copy of it.  Each wrong map enters
    through the module or a map the certificate builds, never through the
    snake lemma's own arguments."""

    def test_homology_inclusion_with_wrong_preimages(self, f, monkeypatch):
        # the connecting map reads each value through the inclusion of H;
        # with the last coordinate dropped its image leaves ker(H -> Milnor)
        real = homassoc.subalgebra

        def wrong(algebra, space, prefix):
            sub, incl = real(algebra, space, prefix)
            if prefix == "z":
                m = _DropsLastCoordinate(f, incl.map.rows, incl.map.cols, incl.map.entries)
                incl = AlgebraHom(incl.source, incl.target, m)
            return sub, incl

        monkeypatch.setattr(homassoc, "subalgebra", wrong)
        assert _failed(sequence_check(hochschild_module(exterior_algebra(f)))) == [
            "exact at the commutator-tensor kernel", "exact at the first homology"]

    def test_first_homology_missing_a_vector(self, f):
        # the inclusion of H misses a vector of ker phi, so the Milnor-type
        # term sees too small an image, and so does the tensor row
        h = hochschild_module(exterior_algebra(f))
        wrong = _MissesFirstHomologyVector(**{name: getattr(h, name) for name in fields(h)})
        assert _failed(sequence_check(wrong)) == [
            "tensor row exact in the middle", "exact at the quotient-tensor kernel",
            "exact at the Milnor-type homology"]

    def test_zero_commutator_column(self, f, monkeypatch):
        # A*C -> C read as zero: its image is not [A, C], and the kernel of
        # the zero column holds a vector the connecting map cannot lift
        real = homassoc.build_tensor

        def zero_column(ma):
            t = real(ma)
            if ma.n_side.labels[:1] == ("c1",):
                col = t.into_n
                t.__dict__["into_n"] = AlgebraHom(col.source, col.target, Matrix.zero(f, col.map.rows, col.map.cols))
            return t

        monkeypatch.setattr(homassoc, "build_tensor", zero_column)
        upper_triangular = HomAssociativeAlgebra.from_products(
            f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}, labels=("e11", "e12", "e22"))
        assert _failed(sequence_check(hochschild_module(upper_triangular))) == [
            "right cokernel matches the commutator quotient", "connecting lifts exist"]

    def test_zero_homology_tensor_map(self, f, monkeypatch):
        # A*H -> A*Q read as zero misses the kernel of the tensored evaluation
        h = hochschild_module(exterior_algebra(f))
        real = homassoc.induced_tensor_map

        def zero_first(f_hom, g_hom, t_src, t_dst):
            hom = real(f_hom, g_hom, t_src, t_dst)
            return hom if g_hom.target is not h.algebra else \
                AlgebraHom(hom.source, hom.target, Matrix.zero(f, hom.map.rows, hom.map.cols))

        monkeypatch.setattr(homassoc, "induced_tensor_map", zero_first)
        assert _failed(sequence_check(h)) == ["tensor row exact in the middle", "exact at the quotient-tensor kernel"]


def _block_sum(a, b):
    """a + b with the product and twist of each on its own summand."""
    f, n = a.field, a.dim + b.dim
    prods = {(i, j): dict(enumerate(a.p[i][j])) for i in range(a.dim) for j in range(a.dim)}
    prods |= {(a.dim + i, a.dim + j): {a.dim + k: x for k, x in enumerate(b.p[i][j])}
              for i in range(b.dim) for j in range(b.dim)}
    tw = [[f.zero()] * n for _ in range(n)]
    for m, off in ((a, 0), (b, a.dim)):
        for i in range(m.dim):
            for j in range(m.dim):
                tw[off + i][off + j] = m.twist.entries[i][j]
    return HomAssociativeAlgebra.from_products(
        f, n, prods, Matrix.from_rows(f, tw),
        labels=tuple(x + ".1" for x in a.labels) + tuple(x + ".2" for x in b.labels))


def _boundary_cases(f):
    """(name, algebra, valid algebra) for the dual numbers, upper
    triangular, gl2 and mixed algebras and their twisted forms, each its
    own valid algebra, and for each of those with one product or twist
    entry bumped."""
    def diag(*xs):
        return Matrix.from_rows(f, [[x if i == j else 0 for j in range(len(xs))] for i, x in enumerate(xs)])

    half = f.div(f.one(), f.from_int(2))
    dual = HomAssociativeAlgebra.from_products(f, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                                               labels=("1", "x"))
    ut = HomAssociativeAlgebra.from_products(
        f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}, labels=("e11", "e12", "e22"))
    gl2 = HomAssociativeAlgebra.from_products(
        f, 4, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
               (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}},
        labels=("e11", "e12", "e21", "e22"))
    # x -> -x, and conjugation by diag(1, 2) on the matrix algebras
    t_dual, t_ut, t_gl2 = (yau_twist_assoc(dual, diag(1, -1)), yau_twist_assoc(ut, diag(1, 2, 1)),
                           yau_twist_assoc(gl2, diag(1, 2, half, 1)))
    valid = [("dual", dual), ("ut", ut), ("gl2", gl2), ("mixed", _block_sum(ut, t_dual)),
             ("twisted dual", t_dual), ("twisted ut", t_ut), ("twisted gl2", t_gl2),
             ("twisted mixed", _block_sum(t_ut, t_dual))]
    bumped = []
    for k, (name, A) in enumerate(valid):
        if k % 2:  # bump the twist's entry at (0, 1)
            rows = [list(r) for r in A.twist.entries]
            rows[0][1] = f.add(rows[0][1], f.one())
            B = HomAssociativeAlgebra.from_sparse(f, A.dim, A.sparse_p, Matrix.from_rows(f, rows), A.labels)
            bumped.append((f"{name}, twist bumped", B, A))
        else:  # bump the first coordinate of e1 e2
            p = [list(r) for r in A.p]
            p[1][0] = (f.add(p[1][0][0], f.one()), *p[1][0][1:])
            bumped.append((f"{name}, product bumped", HomAssociativeAlgebra(f, A.dim, p, A.twist, A.labels), A))
    return [(name, A, A) for name, A in valid] + bumped


BOUNDARY_CASES = [(f, *case) for f in (QQ, GFP) for case in _boundary_cases(f)]
BOUNDARY_IDS = [f"{'Q' if f is QQ else 'GF(1000003)'}:{name}" for f, name, *_ in BOUNDARY_CASES]


class TestBoundaryRows:
    """The boundary family as law data against the dense reference
    ``hochschild_boundary``: valid algebras, their twisted forms and bumped
    entries, over Q and GF(1000003)."""

    @pytest.mark.parametrize("f, name, A, valid", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_rows_are_the_nonzero_columns_in_order(self, f, name, A, valid):
        # on the cleared tables every term is D(p) D(t) times its own, so
        # each row is that K times the boundary's column (K = 1 over GF(p)
        # and on integral tables)
        size = A.dim * A.dim
        single = lambda u, v: dense_outer(f, u, v, size)
        lb = to_leibniz(A)
        d = unwrapped(A.twist.cleared_cols)[1]

        def times(k, columns):
            return [tuple((c, f.mul(k, x)) for c, x in sparse_vec(col)) for col in columns if any(col)]

        assert [r for r in boundary_rows(A, A.cleared_p) if r] == \
            times(unwrapped(A.cleared_p)[1] * d, hochschild_boundary(A).transpose().entries)
        assert [r for r in boundary_rows(A, lb.cleared_c) if r] == \
            times(unwrapped(lb.cleared_c)[1] * d, boundary_shapes(A, lb.c, single))

    @pytest.mark.parametrize("f, name, A, valid", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_presentation_is_the_span_of_the_columns(self, f, name, A, valid):
        assert A.validate().valid is (A is valid)
        image = hochschild_boundary(A).image()
        fold = to_leibniz(A).bracket_map()
        if all(not any(fold.apply(v)) for v in image.basis.entries):
            assert hochschild_module(A).presentation.relations == image
        else:  # a bumped entry whose commutator fold does not kill the image
            with pytest.raises(InternalInconsistency, match="evaluation does not kill the boundary image"):
                hochschild_module(A)

    @pytest.mark.parametrize("f, name, A, valid", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_cyclic_identity_agrees_with_dense_membership(self, f, name, A, valid):
        # the module of the valid algebra, read with the case's twist and
        # commutator algebra, so that a bumped entry can break the identity
        lb = to_leibniz(A)
        h = replace(hochschild_module(valid), parent=A, commutator_algebra=lb)
        size = A.dim * A.dim
        dense = all(h.presentation.relations.contains(v)
                    for v in boundary_shapes(A, lb.c, lambda u, v: dense_outer(f, u, v, size)))
        assert cyclic_identity_holds(h) is dense
        assert dense or A is not valid
