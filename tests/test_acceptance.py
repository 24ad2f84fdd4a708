"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All arithmetic is exact; every tolerance is exact equality.  Stated
runtime bounds are asserted with a monotonic clock."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

from homleib.fields import Field
from homleib.linalg import Matrix, Subspace
from homleib.algebras import (
    HomLeibnizAlgebra,
    derived_subspace,
    direct_sum,
    predicates,
)
from homleib.actions import MutualActions
from homleib.extensions import (
    ExtensionKind,
    classify_extension,
    six_term_check,
    universal_alpha_central_extension,
    universal_central_extension,
)
from homleib.generators import (
    random_corep,
    random_ideal_pair,
    sl2 as make_sl2,
)
from homleib.homassoc import (
    HomAssociativeAlgebra,
    first_homologies,
    hochschild_module,
    sequence_check,
    yau_twist_assoc,
)
from homleib.homology import ChainComplex, adjoint_corep, coinvariants_dim, trivial_corep
from homleib.tensorprod import (
    build_tensor,
    tensor_identity_battery,
)
from homleib_testkit import random_trivial_pair

QQ = Field()


def announce(num: int, ok: bool, elapsed: float, note: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" {note}" if note else ""
    print(f"criterion {num:2d}: {status} ({elapsed:.2f}s){extra}")
    assert ok, f"criterion {num} failed{extra}"


@pytest.fixture(scope="module")
def nonlie2():
    return HomLeibnizAlgebra.from_brackets(
        QQ, 2, {(1, 1): {0: 1}}, Matrix.from_rows(QQ, [[1, 1], [0, 1]]))


@pytest.fixture(scope="module")
def sl2():
    return make_sl2(QQ)


@pytest.fixture(scope="module")
def sl2_twisted(sl2):
    from fractions import Fraction

    from homleib.algebras import yau_twist

    return yau_twist(
        sl2, Matrix.from_rows(QQ, [[4, 0, 0], [0, Fraction(1, 4), 0], [0, 0, 1]]))


def test_criterion_01_axiom_gate(nonlie2):
    start = time.monotonic()
    rep = nonlie2.validate()
    ok = rep.valid and rep.flags["hom_lie"] is False
    perturbed = HomLeibnizAlgebra.from_brackets(
        QQ, 2, {(1, 1): {0: 1}, (0, 1): {0: 1}},
        Matrix.from_rows(QQ, [[1, 1], [0, 1]]))
    bad = perturbed.validate()
    ok = ok and not bad.valid and len(bad.violations) > 0 and bad.violations[0].witness
    elapsed = time.monotonic() - start
    announce(1, ok and elapsed < 1.0, elapsed)


def _criterion2_instances(sl2, nonlie2):
    yield nonlie2, adjoint_corep(nonlie2)
    yield sl2, trivial_corep(sl2)
    rng = random.Random(2024)
    for _ in range(20):
        yield random_corep(QQ, rng, max_dim=4)


def test_criterion_02_complex_property(sl2, nonlie2):
    start = time.monotonic()
    ok = True
    for alg, corep in _criterion2_instances(sl2, nonlie2):
        cx = ChainComplex(alg, corep)
        for n in range(2, 5):
            ok = ok and cx.squares_to_zero(n)
    elapsed = time.monotonic() - start
    announce(2, ok and elapsed < 30.0, elapsed)


def test_criterion_03_closed_forms(sl2, nonlie2):
    start = time.monotonic()
    ok = True
    for alg, corep in _criterion2_instances(sl2, nonlie2):
        ok = ok and ChainComplex(alg, corep).homology_dim(0) == coinvariants_dim(corep)
        triv = trivial_corep(alg)
        expected = alg.dim - derived_subspace(alg).dim
        ok = ok and ChainComplex(alg, triv).homology_dim(1) == expected
    elapsed = time.monotonic() - start
    announce(3, ok, elapsed)


def test_criterion_04_trivial_action_decomposition():
    start = time.monotonic()
    rng = random.Random(37)
    ok = True
    for _ in range(10):
        ma = random_trivial_pair(QQ, rng)
        t = build_tensor(ma)
        m_ab = ma.m_side.dim - derived_subspace(ma.m_side).dim
        n_ab = ma.n_side.dim - derived_subspace(ma.n_side).dim
        ok = ok and t.algebra.dim == 2 * m_ab * n_ab and t.algebra.is_abelian()
    elapsed = time.monotonic() - start
    announce(4, ok, elapsed)


def test_criterion_05_tensor_battery(nonlie2):
    start = time.monotonic()
    ok = True
    instances = [build_tensor(MutualActions.adjoint(nonlie2))]
    rng = random.Random(55)
    for _ in range(2):
        _, ma = random_ideal_pair(QQ, rng)
        instances.append(build_tensor(ma))
    for t in instances:
        # relation preservation re-checked directly, then the identity battery
        twist_amb = t.ambient_twist()
        for r in t.presentation.relations.basis.entries:
            ok = ok and t.presentation.relations.contains(twist_amb.apply(r))
            for g in range(t.ambient_dim):
                unit = tuple(QQ.one() if k == g else QQ.zero() for k in range(t.ambient_dim))
                ok = ok and t.presentation.relations.contains(t.ambient_bracket(r, unit))
                ok = ok and t.presentation.relations.contains(t.ambient_bracket(unit, r))
        rep = tensor_identity_battery(t)
        ok = ok and rep.ok
    elapsed = time.monotonic() - start
    announce(5, ok and elapsed < 60.0, elapsed)


def test_criterion_06_universal_central_extension(sl2, sl2_twisted):
    start = time.monotonic()
    ok = True
    for alg in (sl2, sl2_twisted):
        uce = universal_central_extension(alg)
        ok = ok and classify_extension(uce.extension) is ExtensionKind.CENTRAL
        ok = ok and predicates(uce.extension.total).perfect
        ok = ok and uce.kernel_dim == ChainComplex(alg, trivial_corep(alg)).homology_dim(2)
    elapsed = time.monotonic() - start
    announce(6, ok and elapsed < 60.0, elapsed)


def test_criterion_07_vanishing_for_the_cover(sl2):
    start = time.monotonic()
    uce = universal_central_extension(sl2)
    K = uce.extension.total
    cx = ChainComplex(K, trivial_corep(K))
    ok = cx.homology_dim(1) == 0 and cx.homology_dim(2) == 0
    elapsed = time.monotonic() - start
    announce(7, ok and elapsed < 300.0, elapsed)


def test_criterion_08_alpha_presentation(sl2_twisted):
    start = time.monotonic()
    res = universal_alpha_central_extension(sl2_twisted)
    ok = res.tensor.algebra.dim == res.presented.dim
    ok = ok and res.iso.map.is_injective() and res.iso.map.is_surjective()
    ok = ok and classify_extension(res.extension) is ExtensionKind.CENTRAL
    elapsed = time.monotonic() - start
    announce(8, ok, elapsed)


def test_criterion_09_six_term(sl2):
    start = time.monotonic()
    both = direct_sum(sl2, sl2)
    first = Subspace.span(QQ, 6, [both.unit(i) for i in range(3)])
    ok = six_term_check(both, first).ok
    ok = ok and six_term_check(both, Subspace.zero(QQ, 6)).ok
    ok = ok and six_term_check(both, Subspace.full(QQ, 6)).ok
    elapsed = time.monotonic() - start
    announce(9, ok, elapsed)


def test_criterion_10_hochschild_sequence():
    start = time.monotonic()
    ut = HomAssociativeAlgebra.from_products(
        QQ, 3,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        labels=("e11", "e12", "e22"))
    ok = sequence_check(hochschild_module(ut)).ok
    dual = HomAssociativeAlgebra.from_products(
        QQ, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, labels=("1", "x"))
    twisted_dual = yau_twist_assoc(dual, Matrix.from_rows(QQ, [[1, 0], [0, -1]]))
    for commutative in (dual, twisted_dual):
        fh = first_homologies(hochschild_module(commutative))
        ok = ok and fh.hh1_alpha_dim == fh.hh1_milnor_dim
    elapsed = time.monotonic() - start
    announce(10, ok and elapsed < 60.0, elapsed)


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    e1 = tmp_path / "e1.alg"
    e1.write_text(json.dumps({
        "field": "Q", "kind": "hom-leibniz", "dim": 2, "basis": ["e1", "e2"],
        "bracket": [{"left": "e2", "right": "e2", "value": {"e1": "1"}}],
        "alpha": [["1", "1"], ["0", "1"]]}), encoding="utf-8")
    sl2p = tmp_path / "sl2.alg"
    sl2p.write_text(json.dumps({
        "field": "Q", "kind": "hom-leibniz", "dim": 3, "basis": ["e", "f", "h"],
        "bracket": [
            {"left": "e", "right": "f", "value": {"h": "1"}},
            {"left": "f", "right": "e", "value": {"h": "-1"}},
            {"left": "h", "right": "e", "value": {"e": "2"}},
            {"left": "e", "right": "h", "value": {"e": "-2"}},
            {"left": "h", "right": "f", "value": {"f": "-2"}},
            {"left": "f", "right": "h", "value": {"f": "2"}}],
        "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}), encoding="utf-8")
    ut = tmp_path / "ut.alg"
    ut.write_text(json.dumps({
        "field": "Q", "kind": "hom-associative", "dim": 3,
        "basis": ["e11", "e12", "e22"],
        "product": [
            {"left": "e11", "right": "e11", "value": {"e11": "1"}},
            {"left": "e11", "right": "e12", "value": {"e12": "1"}},
            {"left": "e12", "right": "e22", "value": {"e12": "1"}},
            {"left": "e22", "right": "e22", "value": {"e22": "1"}}],
        "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}), encoding="utf-8")

    commands = [
        ["validate", str(e1), "--json"],
        ["homology", str(e1), "--coeffs", "trivial", "--max-n", "2", "--json"],
        ["tensor", "--square", str(e1), "--json"],
        ["uce", str(sl2p), "--json"],
        ["uce-alpha", str(sl2p), "--json"],
        ["six-term", str(sl2p), "--ideal", "zero", "--json"],
        ["hh1", str(ut), "--json"],
        ["sequence-check", str(ut), "--json"],
        ["check-all", str(e1), "--seed", "0", "--json"],
    ]
    environments = [
        dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1"),
        dict(os.environ, PYTHONHASHSEED="31337", OMP_NUM_THREADS="8"),
    ]
    ok = True
    for cmd in commands:
        outputs = []
        for env in environments:
            proc = subprocess.run([sys.executable, "-m", "homleib.cli", *cmd],
                                  capture_output=True, env=env)
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and outputs[0]
    elapsed = time.monotonic() - start
    announce(11, bool(ok), elapsed)
