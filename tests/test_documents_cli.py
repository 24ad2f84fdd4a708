from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homleib.algebras import IdealHandle
from homleib.errors import ParseError, SemanticError
from homleib.fields import Field
from homleib.cli import main
from homleib.documents import (
    parse_algebra_document,
    parse_document,
    serialize_algebra,
)
from homleib.linalg import Subspace
from homleib.report import render_witness

QQ = Field()

E1_DOC = {
    "field": "Q",
    "kind": "hom-leibniz",
    "dim": 2,
    "basis": ["e1", "e2"],
    "bracket": [{"left": "e2", "right": "e2", "value": {"e1": "1"}}],
    "alpha": [["1", "1"], ["0", "1"]],
}

SL2_DOC = {
    "field": "Q",
    "kind": "hom-leibniz",
    "dim": 3,
    "basis": ["e", "f", "h"],
    "bracket": [
        {"left": "e", "right": "f", "value": {"h": "1"}},
        {"left": "f", "right": "e", "value": {"h": "-1"}},
        {"left": "h", "right": "e", "value": {"e": "2"}},
        {"left": "e", "right": "h", "value": {"e": "-2"}},
        {"left": "h", "right": "f", "value": {"f": "-2"}},
        {"left": "f", "right": "h", "value": {"f": "2"}},
    ],
    "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}

UT_DOC = {
    "field": "Q",
    "kind": "hom-associative",
    "dim": 3,
    "basis": ["e11", "e12", "e22"],
    "product": [
        {"left": "e11", "right": "e11", "value": {"e11": "1"}},
        {"left": "e11", "right": "e12", "value": {"e12": "1"}},
        {"left": "e12", "right": "e22", "value": {"e12": "1"}},
        {"left": "e22", "right": "e22", "value": {"e22": "1"}},
    ],
    "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def docs(tmp_path):
    return {
        "e1": write(tmp_path, "e1.alg", E1_DOC),
        "sl2": write(tmp_path, "sl2.alg", SL2_DOC),
        "ut": write(tmp_path, "ut.alg", UT_DOC),
        "dir": tmp_path,
    }


class TestParsing:
    def test_parse_and_build(self, docs, nonlie2):
        doc = parse_document(Path(docs["e1"]))
        alg = doc.build()
        assert alg.c == nonlie2.c
        assert alg.twist == nonlie2.twist
        assert alg.validate().valid

    def test_round_trip(self, docs, sl2_twisted, upper_triangular):
        for alg in (sl2_twisted, upper_triangular):
            doc = serialize_algebra(alg)
            parsed = parse_algebra_document(doc).build()
            table = alg.p if hasattr(alg, "p") else alg.c
            parsed_table = parsed.p if hasattr(parsed, "p") else parsed.c
            assert parsed_table == table
            assert parsed.twist == alg.twist
            assert parsed.labels == alg.labels
            assert parsed.field == alg.field

    def test_round_trip_prime_field(self):
        from homleib.generators import sl2 as make_sl2

        alg = make_sl2(Field(7))
        parsed = parse_algebra_document(serialize_algebra(alg)).build()
        assert parsed.c == alg.c
        assert parsed.field == Field(7)

    def test_zero_denominator_rejected(self):
        doc = dict(E1_DOC, bracket=[{"left": "e2", "right": "e2", "value": {"e1": "1/0"}}])
        with pytest.raises(SemanticError):
            parse_algebra_document(doc)

    def test_characteristic_two_rejected(self):
        with pytest.raises(SemanticError):
            parse_algebra_document(dict(E1_DOC, field={"Fp": 2}))

    def test_unknown_label(self):
        doc = dict(E1_DOC, bracket=[{"left": "e9", "right": "e2", "value": {"e1": "1"}}])
        with pytest.raises(SemanticError):
            parse_algebra_document(doc)

    def test_bool_dimension_rejected(self, tmp_path, capsys):
        doc = dict(E1_DOC, dim=True, basis=["e1"], bracket=[], alpha=[["1"]])
        with pytest.raises(ParseError):
            parse_algebra_document(doc)
        path = write(tmp_path, "bool.alg", doc)
        assert main(["validate", path]) == 2
        assert "dim" in capsys.readouterr().err

    def test_boolean_prime_rejected(self, tmp_path, capsys):
        for p in (True, False):
            with pytest.raises(SemanticError, match="prime must be an integer"):
                parse_algebra_document(dict(E1_DOC, field={"Fp": p}))
        path = write(tmp_path, "bool_prime.alg", dict(E1_DOC, field={"Fp": True}))
        assert main(["validate", path]) == 2
        assert "prime must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, table", [(SL2_DOC, "bracket"), (UT_DOC, "product")])
    def test_duplicate_table_entry_rejected(self, doc, table, tmp_path, capsys):
        # the repeated pair carries a different value: the last one used to win
        entries = doc[table] + [dict(doc[table][1], value={doc["basis"][0]: "5"})]
        dup = dict(doc, **{table: entries})
        message = (f"algebra.{table}[{len(entries) - 1}]: duplicates the (left, right) "
                   f"pair of algebra.{table}[1]")
        with pytest.raises(SemanticError, match=re.escape(message)):
            parse_algebra_document(dup)
        path = write(tmp_path, "dup.alg", dup)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert f"{table}[{len(entries) - 1}]" in err and f"{table}[1]" in err

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_duplicate_action_entry_rejected(self, side, docs, tmp_path, capsys):
        entry = {"actor": "e2", "target": "e2", "value": {"e1": "1"}}
        action = {"actor": "e1.alg", "target": "e1.alg",
                  side: [entry, {"actor": "e1", "target": "e2", "value": {}},
                         dict(entry, value={"e1": "-1"})]}
        path = write(tmp_path, "dup.act", action)
        with pytest.raises(SemanticError, match=rf"{side}\[2\]: .* of .*{side}\[0\]"):
            parse_document(Path(path))
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert f"{side}[2]" in err and f"{side}[0]" in err

    @pytest.mark.parametrize("value", [5, None])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_action_side_must_be_a_list(self, side, value, docs, tmp_path, capsys):
        action = {"actor": "e1.alg", "target": "e1.alg", side: value}
        path = write(tmp_path, "bad.act", action)
        with pytest.raises(ParseError, match=rf"\.{side}: must be a list"):
            parse_document(Path(path))
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert f"{side}: must be a list" in captured.err
        assert "Traceback" not in captured.err

    def test_duplicate_labels(self):
        with pytest.raises(SemanticError):
            parse_algebra_document(dict(E1_DOC, basis=["e1", "e1"]))

    def test_missing_alpha(self):
        doc = {k: v for k, v in E1_DOC.items() if k != "alpha"}
        with pytest.raises(ParseError):
            parse_algebra_document(doc)
        leib = dict(doc, kind="leibniz")
        parsed = parse_algebra_document(leib)
        from homleib.linalg import Matrix

        assert parsed.alpha == Matrix.identity(QQ, 2)

    def test_action_document(self, docs, tmp_path):
        action = {
            "actor": "e1.alg",
            "target": "e1.alg",
            "left": [
                {"actor": "e2", "target": "e2", "value": {"e1": "1"}},
            ],
            "right": [
                {"target": "e2", "actor": "e2", "value": {"e1": "1"}},
            ],
        }
        path = write(tmp_path, "adj.act", action)
        doc = parse_document(Path(path))
        act = doc.build()
        assert act.validate().valid


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_validate_ok(self, docs, capsys):
        code, out = run_cli(capsys, "validate", docs["e1"])
        assert code == 0
        assert "valid: yes" in out
        assert "hom_lie: no" in out

    def test_validate_reports_witness(self, docs, tmp_path, capsys):
        bad = dict(E1_DOC, bracket=E1_DOC["bracket"] + [
            {"left": "e1", "right": "e2", "value": {"e1": "1"}}])
        path = write(tmp_path, "bad.alg", bad)
        code, out = run_cli(capsys, "validate", path)
        assert code == 1
        assert "multiplicativity" in out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.alg"
        path.write_text("{not json", encoding="utf-8")
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.alg"
        path.write_text("[" * 200000, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ['"{}"', "{}"], ids=["string", "number"])
    def test_huge_scalar_exits_two_with_a_short_message(self, entry, tmp_path, capsys):
        # a 5001-digit alpha entry is refused, and the message repeats a
        # bounded part of it
        text = json.dumps(dict(E1_DOC, dim=1, basis=["e1"], bracket=[], alpha=[["ALPHA"]]))
        path = tmp_path / "huge.alg"
        path.write_text(text.replace('"ALPHA"', entry.format("1" * 5001)), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < len(str(path)) + 200

    @pytest.mark.parametrize("entry", ['"{}"', "{}"], ids=["string", "number"])
    def test_scalar_digit_limit(self, entry, tmp_path):
        # an integer of a scalar may have sys.get_int_max_str_digits() digits
        # (Python's default, 4300, pinned here); one digit more exits 2
        text = json.dumps(dict(E1_DOC, dim=1, basis=["e1"], bracket=[], alpha=[["ALPHA"]]))
        path = tmp_path / "long.alg"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for digits, code in ((4300, 0), (4301, 2)):
                path.write_text(text.replace('"ALPHA"', entry.format("7" * digits)), encoding="utf-8")
                assert main(["validate", str(path)]) == code
        finally:
            sys.set_int_max_str_digits(limit)

    def test_long_label_is_cut_in_the_message(self):
        doc = dict(E1_DOC, bracket=[{"left": "x" * 5000, "right": "e2", "value": {"e1": "1"}}])
        with pytest.raises(SemanticError, match="unknown label 'xxx") as err:
            parse_algebra_document(doc)
        assert len(str(err.value)) < 100

    def test_field_check_flag(self, docs, capsys):
        code, out = run_cli(capsys, "validate", docs["e1"], "--field-check")
        assert code == 0
        assert "field: Q" in out

    def test_info(self, docs, capsys):
        code, out = run_cli(capsys, "info", docs["e1"])
        assert code == 0
        assert "center_dim: 1" in out

    def test_homology_json(self, docs, capsys):
        code, out = run_cli(capsys, "homology", docs["e1"],
                            "--coeffs", "trivial", "--max-n", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dims"] == {"hl0": 1, "hl1": 1, "hl2": 1}
        assert data["boundary_squares_to_zero"] is True

    def test_negative_counts_exit_two(self, docs, capsys):
        for argv in (("homology", docs["e1"], "--max-n", "-1"),
                     ("check-all", docs["e1"], "--max-n", "-3"),
                     ("check-all", docs["e1"], "--random-instances", "-2"),
                     ("check-all", docs["e1"], "--max-n", "-3", "--random-instances", "-2")):
            code = main([*argv, "--json"])
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert "must be at least 0" in captured.err

    def test_uce_refuses_imperfect(self, docs, capsys):
        code, out = run_cli(capsys, "uce", docs["e1"], "--json")
        assert code == 1
        assert json.loads(out)["kind"] == "NotPerfect"

    def test_uce_sl2(self, docs, capsys):
        code, out = run_cli(capsys, "uce", docs["sl2"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kernel_dim"] == 0
        assert data["classification"] == "central"

    def test_uce_alpha(self, docs, capsys):
        code, out = run_cli(capsys, "uce-alpha", docs["sl2"], "--json")
        assert code == 0
        assert json.loads(out)["isomorphic"] is True

    def test_tensor_square(self, docs, capsys):
        code, out = run_cli(capsys, "tensor", "--square", docs["e1"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["abelian"] is True

    def test_tensor_square_with_action_documents_exits_two(self, docs, capsys):
        code = main(["tensor", "--square", docs["e1"], docs["e1"], docs["e1"], "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: tensor takes --square FILE or two action documents, not both\n"

    def test_twist(self, docs, tmp_path, capsys):
        base = dict(SL2_DOC, kind="leibniz")
        base.pop("alpha")
        base_path = write(tmp_path, "sl2_plain.alg", base)
        endo = dict(base, alpha=[["4", "0", "0"], ["0", "1/4", "0"], ["0", "0", "1"]])
        endo_path = write(tmp_path, "endo.alg", endo)
        code, out = run_cli(capsys, "twist", base_path, "--endo", endo_path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["predicates"]["alpha_perfect"] is True

    def test_semidirect(self, docs, tmp_path, capsys):
        action = {
            "actor": "e1.alg", "target": "e1.alg",
            "left": [{"actor": "e2", "target": "e2", "value": {"e1": "1"}}],
            "right": [{"target": "e2", "actor": "e2", "value": {"e1": "1"}}],
        }
        path = write(tmp_path, "adj.act", action)
        code, out = run_cli(capsys, "semidirect", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        assert data["split_exact"] is True

    def test_six_term(self, docs, capsys):
        code, out = run_cli(capsys, "six-term", docs["sl2"], "--ideal", "zero", "--json")
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True

    def test_non_ideal_witness_same_over_both_fields(self, docs, tmp_path, capsys):
        fp_path = write(tmp_path, "sl2_fp.alg", dict(SL2_DOC, field={"Fp": 1000003}))
        witnesses = []
        for path in (docs["sl2"], fp_path):
            code, out = run_cli(capsys, "six-term", path, "--ideal", '[["1","0","0"]]', "--json")
            assert code == 1
            data = json.loads(out)
            assert data["kind"] == "NotAnIdeal"
            witnesses.append(data["witness"])
        assert witnesses == ["('left', (1, 0, 0), 'f', (0, 0, 1))"] * 2

    def test_fractional_witness_in_document_notation(self, tmp_path, capsys):
        # [e, f] = h/2 still gives sl2; the escaping bracket is (0, 0, 1/2)
        bracket = [dict(SL2_DOC["bracket"][0], value={"h": "1/2"}),
                   dict(SL2_DOC["bracket"][1], value={"h": "-1/2"})] + SL2_DOC["bracket"][2:]
        path = write(tmp_path, "sl2_half.alg", dict(SL2_DOC, bracket=bracket))
        code, out = run_cli(capsys, "six-term", path, "--ideal", '[["1","0","0"]]', "--json")
        assert code == 1
        assert json.loads(out)["witness"] == "('left', (1, 0, 0), 'f', (0, 0, 1/2))"

    def test_non_ideal_of_a_non_perfect_algebra(self, tmp_path, capsys):
        # Heisenberg is not perfect; the ideal is checked first all the same
        heis = dict(SL2_DOC, bracket=SL2_DOC["bracket"][:2])
        path = write(tmp_path, "heis.alg", heis)
        code, out = run_cli(capsys, "six-term", path, "--ideal", '[["1","0","0"]]', "--json")
        assert code == 1
        assert json.loads(out)["kind"] == "NotAnIdeal"

    def test_six_term_checks_the_ideal_once(self, docs, capsys, monkeypatch):
        checked = []
        real = IdealHandle.ideal_witness
        monkeypatch.setattr(IdealHandle, "ideal_witness", lambda h: checked.append(h.space) or real(h))
        code, _ = run_cli(capsys, "six-term", docs["sl2"], "--ideal", "full", "--json")
        assert code == 0
        assert checked == [Subspace.full(QQ, 3)]

    def test_render_witness(self):
        assert render_witness(("twist", (Fraction(1, 2), Fraction(4), 0), "e")) == \
            "('twist', (1/2, 4, 0), 'e')"
        # a one-item tuple keeps its comma, as str() gives it
        assert render_witness((Fraction(-3, 4),)) == "(-3/4,)"
        for w in (((1, 2),), ("m", 3), ()):
            assert render_witness(w) == str(w)

    def test_hochschild_and_hh1(self, docs, capsys):
        code, out = run_cli(capsys, "hochschild", docs["ut"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["quotient_dim"] == 1
        assert data["cyclic_identity"] is True
        code, out = run_cli(capsys, "hh1", docs["ut"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["hh1_alpha_dim"] == data["hh1_milnor_dim"] == 0

    def test_sequence_check(self, docs, capsys):
        code, out = run_cli(capsys, "sequence-check", docs["ut"], "--json")
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True

    def test_check_all(self, docs, capsys):
        for name in ("e1", "sl2", "ut"):
            code, out = run_cli(capsys, "check-all", docs[name], "--seed", "1", "--json")
            assert code == 0, out
            assert json.loads(out)["ok"] is True

    def test_check_all_stops_after_failed_axioms(self, tmp_path, capsys):
        # the constructions presume the axioms, so an invalid algebra is
        # reported as such, not as an internal inconsistency of a construction
        leibniz = dict(E1_DOC, basis=["a", "b"], alpha=[["1", "0"], ["0", "1"]], bracket=[
            {"left": "a", "right": "a", "value": {"b": "1"}},
            {"left": "b", "right": "a", "value": {"a": "1"}}])
        assoc = dict(UT_DOC, dim=2, basis=["a", "b"], alpha=[["1", "0"], ["0", "1"]], product=[
            {"left": "a", "right": "a", "value": {"b": "1"}},
            {"left": "b", "right": "a", "value": {"a": "1"}}])
        for name, doc in (("leibniz.alg", leibniz), ("assoc.alg", assoc)):
            code, out = run_cli(capsys, "check-all", write(tmp_path, name, doc), "--json")
            assert code == 1, out
            assert json.loads(out) == {"seed": 0, "checks": [{"name": "axioms", "ok": False}],
                                       "ok": False, "error": "axioms"}

    def test_lieize(self, docs, capsys):
        code, out = run_cli(capsys, "lieize", docs["e1"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data["lie_dim"] == 1
        assert data["hom_lie"] is True

    def test_prime_field_document(self, tmp_path, capsys):
        doc = dict(SL2_DOC, field={"Fp": 7})
        path = write(tmp_path, "sl2_f7.alg", doc)
        code, out = run_cli(capsys, "check-all", path, "--seed", "2", "--json")
        assert code == 0, out
        assert json.loads(out)["ok"] is True
        code, out = run_cli(capsys, "uce", path, "--json")
        assert code == 0
        assert json.loads(out)["classification"] == "central"

    def test_json_deterministic_across_hash_seeds(self, docs):
        env0 = dict(os.environ, PYTHONHASHSEED="0")
        env1 = dict(os.environ, PYTHONHASHSEED="12345")
        cmd = [sys.executable, "-m", "homleib.cli", "tensor", "--square", docs["e1"], "--json"]
        out0 = subprocess.run(cmd, capture_output=True, env=env0, check=True).stdout
        out1 = subprocess.run(cmd, capture_output=True, env=env1, check=True).stdout
        assert out0 == out1
