from __future__ import annotations

import json
import time

import pytest

from homleib.cli import main
from homleib.errors import SemanticError
from homleib.documents import parse_field
from homleib.fields import PRIME_BOUND, Field, _is_prime


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(5000) if _is_prime(n)] == \
            [n for n in range(5000) if trial_division(n)]

    def test_mersenne_61_accepted_fast(self):
        start = time.perf_counter()
        field = parse_field({"Fp": 2 ** 61 - 1}, "field")
        assert time.perf_counter() - start < 1
        assert field.p == 2 ** 61 - 1

    @pytest.mark.parametrize("n", [561, 3215031751, 318665857834031151167461])
    def test_pseudoprimes_rejected(self, n):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # the bases 2, 3, 5 and 7; the last one to every prime base up to 37
        assert not _is_prime(n)
        with pytest.raises(SemanticError):
            parse_field({"Fp": n}, "field")

    def test_bound_is_where_the_witnesses_fail(self):
        # the bound is composite yet passes every base up to 41: below it
        # the test is exact, so it is refused by size rather than judged
        assert 1287836182261 * 2575672364521 == PRIME_BOUND
        assert _is_prime(PRIME_BOUND)
        with pytest.raises(ValueError):
            Field(PRIME_BOUND)

    def test_over_bound_prime_exits_two(self, tmp_path, capsys):
        p = 2 ** 89 - 1  # a Mersenne prime above the bound
        assert p > PRIME_BOUND
        with pytest.raises(ValueError):
            Field(p)
        doc = {"field": {"Fp": p}, "kind": "hom-leibniz", "dim": 1,
               "basis": ["e1"], "bracket": [], "alpha": [["1"]]}
        path = tmp_path / "big.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "below" in capsys.readouterr().err
