from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homleib.algebras import HomLeibnizAlgebra, IdealHandle
from homleib.errors import ParseError, SemanticError, echo
from homleib.fields import Field
from homleib.cli import dumps, main
from homleib.documents import (
    parse_action_document,
    parse_algebra_document,
    parse_document,
    serialize_algebra,
)
from homleib.linalg import Matrix, Subspace, sparse_table
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

    def test_wide_empty_document_holds_no_dense_table(self, tmp_path):
        # a 200-dim document with an empty bracket parses and builds from
        # its sparse table alone: a dense table of 200 x 200 coordinate
        # vectors of length 200 would take tens of megabytes
        n = 200
        node = {"field": "Q", "kind": "leibniz", "dim": n, "basis": [f"e{i + 1}" for i in range(n)],
                "bracket": []}
        tracemalloc.start()
        try:
            alg = parse_algebra_document(node).build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak
        assert main(["validate", write(tmp_path, "wide.alg", node)]) == 0
        text = json.dumps(serialize_algebra(alg))
        assert json.dumps(serialize_algebra(parse_algebra_document(json.loads(text)).build())) == text

    @settings(derandomize=True, max_examples=80)
    @given(st.data())
    def test_alpha_is_written_as_its_dense_entries_read(self, data):
        # serialize_algebra writes alpha from the twist's sparse columns
        f = data.draw(st.sampled_from([QQ, Field(7), Field(1000003)]))
        n = data.draw(st.integers(1, 4))
        scalar = st.integers(0, f.p - 1) if f.p else st.one_of(
            st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6), st.integers(-9, 9).map(Fraction))
        grid = data.draw(st.lists(st.lists(st.one_of(st.just(0), scalar), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        alg = HomLeibnizAlgebra.abelian(f, n, Matrix(f, n, n, grid))
        assert serialize_algebra(alg)["alpha"] == [[f.to_str(x) for x in row] for row in alg.twist.entries]

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

    @pytest.mark.parametrize("key", ["bracket", "product", "left", "right"])
    @pytest.mark.parametrize("fault", ["not-a-list", "not-an-object", "key-missing", "unknown-first",
                                       "unknown-second", "unknown-value", "duplicate"])
    def test_entry_list_messages(self, key, fault):
        # every fault of an entry list, with its exact class and message, in
        # the two algebra tables and the two action sides
        first, second, where = ("left", "right", "algebra") if key in ("bracket", "product") else \
            ("actor", "target", "action")
        good = {first: "e2", second: "e2", "value": {"e1": "1"}}
        entries, error, message = {
            "not-a-list": ({"e1": good}, ParseError, f"{where}.{key}: must be a list"),
            "not-an-object": ([good, ["e2", "e2"]], ParseError, f"{where}.{key}[1]: needs {first}, {second} and value"),
            "key-missing": ([{first: "e2", "value": {}}], ParseError,
                            f"{where}.{key}[0]: needs {first}, {second} and value"),
            "unknown-first": ([dict(good, **{first: "x"})], SemanticError,
                              f"{where}.{key}[0].{first}: unknown label 'x'"),
            "unknown-second": ([good, dict(good, **{second: "x"})], SemanticError,
                               f"{where}.{key}[1].{second}: unknown label 'x'"),
            "unknown-value": ([dict(good, value={"x": "1"})], SemanticError,
                              f"{where}.{key}[0].value: unknown label 'x'"),
            "duplicate": ([{first: "e1", second: "e2", "value": {}}, good, dict(good, value={})], SemanticError,
                          f"{where}.{key}[2]: duplicates the ({first}, {second}) pair of {where}.{key}[1]"),
        }[fault]
        if key == "product":
            parse = lambda: parse_algebra_document(dict(UT_DOC, basis=["e1", "e2", "e3"], product=entries))
        elif key == "bracket":
            parse = lambda: parse_algebra_document(dict(E1_DOC, bracket=entries))
        else:
            parse = lambda: parse_action_document({"actor": E1_DOC, "target": E1_DOC, key: entries}, Path("."))
        with pytest.raises(error) as info:
            parse()
        assert type(info.value) is error and str(info.value) == message

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

    def test_action_tables_are_canonical(self, docs, tmp_path):
        # values list labels out of basis order and state zeros; each side
        # parses to the sparse table of the dense grid the entries describe
        action = {
            "actor": "sl2.alg",
            "target": "sl2.alg",
            "left": [
                {"actor": "h", "target": "e", "value": {"f": "0", "e": "2"}},
                {"actor": "e", "target": "f", "value": {"h": "1", "e": "0"}},
                {"actor": "f", "target": "h", "value": {"h": "0"}},
            ],
            "right": [{"target": "h", "actor": "f", "value": {"h": "0/3", "f": "2", "e": "0"}}],
        }
        doc = parse_document(Path(write(tmp_path, "partial.act", action)))
        zero = (0, 0, 0)
        left = [[zero] * 3 for _ in range(3)]
        left[2][0], left[0][1] = (2, 0, 0), (0, 0, 1)
        right = [[zero] * 3 for _ in range(3)]
        right[2][1] = (0, 2, 0)
        assert doc.sparse_left == sparse_table(left) and doc.sparse_right == sparse_table(right)
        act = doc.build()
        assert (act.sparse_left, act.sparse_right) == (sparse_table(left), sparse_table(right))


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

    @pytest.mark.parametrize("form", ["{0}", "{0}/", "{0}/.", "{0}//./", "{1}/./{2}", "{1}//{2}", "{1}/sub/../{2}"])
    def test_a_path_reads_and_names_the_file_its_path_names(self, form, tmp_path, capsys):
        # the file read is the one Path(path) names, a trailing "/" or "/."
        # dropped, and a message names it as str(Path(path))
        (tmp_path / "sub").mkdir()
        good, bad = write(tmp_path, "ok.alg", E1_DOC), write(tmp_path, "bad.alg", dict(E1_DOC, kind="lie"))
        for path, code in ((good, 0), (bad, 2)):
            given = form.format(path, tmp_path, Path(path).name)
            assert main(["validate", given]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else f"error: {Path(given)}.kind: must be one of "
                           "hom-leibniz, hom-associative, leibniz\n")

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

    def test_document_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.alg"
        path.write_bytes(json.dumps(dict(E1_DOC, basis=["é1", "e2"])).encode("utf-8").replace(b"\\u00e9", b"\xe9"))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read '") and "'utf-8' codec can't decode byte 0xe9" in err

    @pytest.mark.parametrize("key", ["actor", "target"])
    def test_nul_in_a_referenced_path_exits_two(self, key, docs, capsys):
        action = dict({"actor": "e1.alg", "target": "e1.alg"}, **{key: "e1\0.alg"})
        path = write(docs["dir"], "nul.act", action)
        assert main(["validate", path]) == 2
        # the path is echoed: quoted, cut to a bounded length and the NUL never written raw
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read '") and err.endswith(": embedded null byte\n") and "\0" not in err

    @pytest.mark.parametrize("key", ["actor", "target"])
    def test_unreadable_long_path_gives_a_short_message_naming_the_key(self, key, docs, capsys):
        action = dict({"actor": "e1.alg", "target": "e1.alg"}, **{key: "a" * 100000})
        path = write(docs["dir"], "long.act", action)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read '") and err.endswith(f"... ({key}): File name too long\n")
        assert len(err) < 200

    # each document's bytes are read and decoded once, with universal
    # newlines; the outputs are those of reading it in text mode
    NEWLINE_DOC = json.dumps(E1_DOC, indent=1)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_documents_read_as_lf(self, newline, tmp_path, capsys):
        lf, other = tmp_path / "lf.alg", tmp_path / "other.alg"
        lf.write_bytes(self.NEWLINE_DOC.encode())
        other.write_bytes(self.NEWLINE_DOC.replace("\n", newline).encode())
        assert main(["validate", str(other), "--json"]) == 0
        out = capsys.readouterr().out
        assert main(["validate", str(lf), "--json"]) == 0
        assert out == capsys.readouterr().out and '"document": "hom-leibniz"' in out

    def test_json_error_positions_count_translated_newlines(self, tmp_path, capsys):
        path = tmp_path / "broken.alg"
        path.write_bytes(b'{\r\n "field": "Q",\r "kind":\r\n\r\n}')
        assert main(["validate", str(path), "--json"]) == 2
        assert capsys.readouterr().err == f"error: {path}: invalid JSON (Expecting value: line 5 column 1 (char 27))\n"

    def test_bom_document_exits_two_at_char_zero(self, tmp_path, capsys):
        path = tmp_path / "bom.alg"
        path.write_bytes(b"\xef\xbb\xbf" + self.NEWLINE_DOC.encode())
        assert main(["validate", str(path), "--json"]) == 2
        assert capsys.readouterr().err == (f"error: {path}: invalid JSON (Unexpected UTF-8 BOM "
                                           "(decode using utf-8-sig): line 1 column 1 (char 0))\n")

    def test_not_utf8_error_gives_the_raw_byte_position(self, tmp_path, capsys):
        path = tmp_path / "latin1.alg"
        path.write_bytes(self.NEWLINE_DOC.replace("\n", "\r\n").replace('"e1"', '"\xe91"').encode("latin-1"))
        assert main(["validate", str(path), "--json"]) == 2
        assert capsys.readouterr().err == (f"error: cannot read {echo(str(path))}: 'utf-8' codec can't "
                                           "decode byte 0xe9 in position 72: invalid continuation byte\n")

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

    @pytest.mark.parametrize("scalar", ["1_0", "\u0663", "\uff13", "1/1_0", "\u0663/2", "1/\uff13", "1__0", "_1"],
                             ids=["underscore", "arabic-indic", "fullwidth", "underscore-denominator",
                                  "arabic-indic-numerator", "fullwidth-denominator", "double-underscore",
                                  "leading-underscore"])
    def test_scalar_is_ascii_digits(self, scalar, tmp_path, capsys):
        # a scalar is "a" or "a/b" in ASCII digits: what else int() reads
        # (underscores, another script's digits) is refused before a check runs
        path = write(tmp_path, "odd.alg", dict(E1_DOC, dim=1, basis=["e1"], bracket=[], alpha=[[scalar]]))
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: {path}.alpha: cannot parse scalar {echo(scalar)}\n"

    @pytest.mark.parametrize("scalar, value", [("-3", -3), ("+3", 3), (" 3 ", 3), ("\t-3/6\n", Fraction(-1, 2)),
                                               (" 4 / 6 ", Fraction(2, 3)), ("007", 7)])
    def test_scalar_signs_and_whitespace_read_as_before(self, scalar, value):
        value, gf = Fraction(value), Field(1000003)
        assert QQ.parse(scalar) == value
        assert gf.parse(scalar) == gf.div(gf.from_int(value.numerator), gf.from_int(value.denominator))

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

    @pytest.mark.parametrize("argv", [("validate", ""), ("homology", "", "--coeffs", "trivial"),
                                      ("tensor", "--square", ""), ("tensor", "", "")],
                             ids=["validate", "homology", "tensor-square", "tensor-actions"])
    def test_an_empty_document_path_names_no_file(self, argv, capsys):
        # '' is a path that cannot be read: neither the directory '.' that
        # Path('') names nor a missing argument
        assert main([*argv, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: cannot read '': No such file or directory\n"

    def test_tensor_without_documents_exits_two(self, capsys):
        assert main(["tensor", "--json"]) == 2
        assert capsys.readouterr().err == "error: tensor needs --square FILE or two action documents\n"

    @pytest.mark.parametrize("key", ["actor", "target"])
    def test_an_empty_referenced_path_names_no_file(self, key, docs, capsys):
        # an empty actor or target path is not joined to the action's own directory
        action = dict({"actor": "e1.alg", "target": "e1.alg"}, **{key: ""})
        path = write(docs["dir"], "empty.act", action)
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: cannot read '' ({key}): No such file or directory\n"

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

    @pytest.mark.parametrize("text", ["[" * 50000, "[[" + "7" * 5000 + ", 0, 0]]"],
                             ids=["nested", "long-integer"])
    def test_unreadable_ideal_exits_two(self, docs, capsys, text):
        # the option is read through the documents' JSON error mapping; the
        # integer is past Python's default digit limit, 4300, pinned here
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["six-term", docs["sl2"], "--ideal", text, "--json"]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err == "error: --ideal must be 'zero', 'full' or a JSON list of vectors\n"

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


# strings with every character JSON escapes, other control characters,
# non-ASCII characters, astral ones included, and lone surrogates
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ufeff'),
    st.characters(),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"])))
JSON_INTS = st.one_of(st.integers(), st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=30)


class TestJsonWriter:
    """``--json`` reports are written by ``cli.dumps``, which must give the
    bytes of ``json.dumps(x, sort_keys=True, indent=2)`` on every value."""

    @settings(derandomize=True, max_examples=100)
    @given(JSON_VALUES)
    def test_matches_the_stdlib(self, value):
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {"x": [1.5, -0.0, float("inf"), float("nan")]},  # floats are handed to json.dumps
        [{"a": {2: "b", 1: [True, None]}}],  # and so is a dict with a key that is not a str
        {"k": [{None: 1}, {False: 2}, {1.5: 3, -2: 4}]},
    ])
    def test_values_handed_to_the_stdlib(self, value):
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {"a": [{1, 2}]},  # not serializable
        {"a": {1: 0, "b": 0}},  # keys that do not sort
        {"a": {(1, 2): 0}},  # a key of no JSON type
    ])
    def test_raises_as_the_stdlib(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(want.value))):
            dumps(value)
