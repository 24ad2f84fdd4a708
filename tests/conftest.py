from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from homleib import linalg
from homleib.fields import Field
from homleib.linalg import Matrix
from homleib.algebras import HomLeibnizAlgebra, yau_twist
from homleib.homassoc import HomAssociativeAlgebra

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

QQ = Field()


@pytest.fixture
def field():
    return QQ


@pytest.fixture
def evaluated(monkeypatch):
    """The law instances ``linalg.check_laws`` evaluates from now on, as
    (law name, index tuple) in order: the keys of the sums its engine
    yields, in the order of ``check_laws``."""
    seen = []
    real = linalg._law_sums

    def recording(*args):
        sums, at = real(*args)

        def each():
            keys = []
            for group in sums:
                keys += group
                yield group
            seen.extend((law[0], idx) for idx, law in map(at, sorted(keys)))
        return each(), at

    monkeypatch.setattr(linalg, "_law_sums", recording)
    return seen


@pytest.fixture
def nonlie2():
    """Two dimensions, one square bracket, unipotent twist: the smallest
    multiplicative non-skew example."""
    return HomLeibnizAlgebra.from_brackets(
        QQ, 2, {(1, 1): {0: 1}}, Matrix.from_rows(QQ, [[1, 1], [0, 1]]))


@pytest.fixture
def sl2():
    return HomLeibnizAlgebra.from_brackets(
        QQ, 3,
        {(0, 1): {2: 1}, (1, 0): {2: -1},
         (2, 0): {0: 2}, (0, 2): {0: -2},
         (2, 1): {1: -2}, (1, 2): {1: 2}},
        labels=("e", "f", "h"))


@pytest.fixture
def sl2_twisted(sl2):
    endo = Matrix.from_rows(QQ, [
        [4, 0, 0],
        [0, Fraction(1, 4), 0],
        [0, 0, 1]])
    return yau_twist(sl2, endo)


@pytest.fixture
def heis3():
    return HomLeibnizAlgebra.from_brackets(
        QQ, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}}, labels=("p", "q", "z"))


@pytest.fixture
def abelian3():
    return HomLeibnizAlgebra.abelian(QQ, 3, Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [1, 0, 2]]))


@pytest.fixture
def dual_numbers():
    return HomAssociativeAlgebra.from_products(
        QQ, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, labels=("1", "x"))


@pytest.fixture
def upper_triangular():
    return HomAssociativeAlgebra.from_products(
        QQ, 3,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        labels=("e11", "e12", "e22"))


@pytest.fixture
def gl2():
    return HomAssociativeAlgebra.from_products(
        QQ, 4,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
         (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}},
        labels=("e11", "e12", "e21", "e22"))
