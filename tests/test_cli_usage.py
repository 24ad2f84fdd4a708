"""The command line's own bytes: help, version, usage errors and exit codes.

``cli_usage_goldens.json`` holds stdout, stderr and the exit code of each
case below, recorded with ``COLUMNS=80`` so that argparse wraps help text
the same way everywhere.  After a deliberate change to the interface,
record them again with

    PYTHONPATH=src python tests/test_cli_usage.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from homleib.cli import build_parser, main

GOLDENS = Path(__file__).with_name("cli_usage_goldens.json")

E1_DOC = {
    "field": "Q",
    "kind": "hom-leibniz",
    "dim": 2,
    "basis": ["e1", "e2"],
    "bracket": [{"left": "e2", "right": "e2", "value": {"e1": "1"}}],
    "alpha": [["1", "1"], ["0", "1"]],
}

COMMAND_NAMES = ("validate", "info", "lieize", "twist", "semidirect", "tensor", "homology",
                 "uce", "uce-alpha", "six-term", "hochschild", "hh1", "sequence-check",
                 "check-all")

# "{e1}" stands for the path of a file holding E1_DOC
CASES = {
    "help": ["--help"],
    "version": ["--version"],
    **{f"help {name}": [name, "--help"] for name in COMMAND_NAMES},
    "no arguments": [],
    "unknown command": ["frobnicate", "x"],
    "missing positional": ["validate"],
    "six-term without --ideal": ["six-term", "x"],
    "bad choice": ["homology", "x", "--coeffs", "bad"],
    "bad integer": ["homology", "x", "--max-n", "two"],
    "unknown option": ["validate", "x", "--bogus"],
    "abbreviated option": ["homology", "{e1}", "--max", "2", "--json"],
}


def run_case(argv, e1_path) -> dict:
    """Exit code, stdout and stderr of ``homleib <argv>``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{e1}", e1_path) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture
def e1_path(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "e1.alg"
    path.write_text(json.dumps(E1_DOC), encoding="utf-8")
    return str(path)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions; "
                           "the goldens were recorded under 3.11")
@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_golden(name, e1_path):
    assert run_case(CASES[name], e1_path) == json.loads(GOLDENS.read_text(encoding="utf-8"))[name]


def test_every_command_has_a_help_case(e1_path):
    assert "{" + ",".join(COMMAND_NAMES) + "}" in run_case(["--help"], e1_path)["stdout"]


def test_parser_built_once_per_process(e1_path, monkeypatch, capsys):
    made = []
    real = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: made.append(name) or real(self, name, **kw))
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["validate", "x", "--bogus"])
    assert info.value.code == 2
    assert main(["validate", e1_path, "--json"]) == 0
    assert made == list(COMMAND_NAMES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        e1 = Path(tmp) / "e1.alg"
        e1.write_text(json.dumps(E1_DOC), encoding="utf-8")
        goldens = {name: run_case(argv, str(e1)) for name, argv in sorted(CASES.items())}
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
