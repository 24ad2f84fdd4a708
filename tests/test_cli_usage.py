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
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homleib import cli
from homleib.cli import COMMANDS, build_parser, main, read_plain

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
    "option with an equals sign": ["homology", "{e1}", "--max-n=2", "--json"],
    "negative integer value": ["homology", "{e1}", "--max-n", "-1"],
    "double dash": ["validate", "--", "{e1}"],
    "positional after an option": ["tensor", "a", "--square", "{e1}", "b"],
    "repeated flag": ["validate", "{e1}", "--json", "--json"],
    "repeated option": ["homology", "{e1}", "--coeffs", "adjoint", "--coeffs", "trivial", "--json"],
    "option before the command": ["--json", "validate", "{e1}"],
    "help after a positional": ["validate", "{e1}", "-h"],
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


OPTION_STRINGS = sorted({option for c in COMMANDS.values() for option, _ in c.options} | {"--json"})
VALUE_POOL = ["-1", "two", "--max", "=", "--", "-", "", "a b", "\u0663", "2", "0", "trivial",
              "adjoint", "zero", "[[1, 0]]", "-h", "--version", "--max-n=2"]


def fitting_values(kwargs):
    if kwargs.get("type") is int:
        return st.sampled_from(["2", "0", "\u0663"])
    return st.sampled_from(kwargs.get("choices") or ["x", "[[1, 0]]", "a b", ""])


@st.composite
def command_lines(draw):
    """A subcommand or a junk word, then a shuffle of its positionals, its
    options (with values that fit or from the pool), other commands' option
    strings and values from the pool."""
    name = draw(st.sampled_from(COMMAND_NAMES * 3 + ("frobnicate", "", "--json")))
    command = COMMANDS.get(name, COMMANDS["homology"])
    takes = len(command.positionals)
    units = [[draw(st.sampled_from(["x", "y", "z"]))] for _ in range(draw(st.sampled_from([takes] * 4 + [0, 1, 2, 3])))]
    for option, kwargs in (cli.JSON_OPTION, *command.options):
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            flag = kwargs.get("action") == "store_true"
            units.append([option] if flag else [option, draw(st.one_of(fitting_values(kwargs),
                                                                       st.sampled_from(VALUE_POOL)))])
    units += draw(st.lists(st.tuples(st.sampled_from(OPTION_STRINGS + VALUE_POOL)), max_size=1))
    return [name, *(token for unit in draw(st.permutations(units)) for token in unit)]


def argparse_reading(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, or None
    when argparse exits (help, version or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def load_workloads():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestPlainReader:
    """``read_plain`` reads plain command lines from ``COMMANDS``; anything
    else goes to argparse, which must agree with it where it answers."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.data())
    def test_agrees_with_argparse(self, data):
        argv = data.draw(command_lines())
        want, got = argparse_reading(argv), read_plain(argv)
        assert got is None or got == want

    @pytest.mark.parametrize("argv", [
        ["tensor", "x", "--square", "y"],
        ["tensor", "--square", "y", "x", "z"],
        ["homology", "x", "--coeffs", "adjoint", "--max-n", "\u0663", "--json"],
        ["six-term", "--ideal", "[[1, 0]]", "x"],
        ["check-all", "--seed", "7", "x", "--max-n", "1", "--random-instances", "0"],
        ["validate", "x", "--json", "--json", "--field-check"],
        ["homology", "x", "--coeffs", "adjoint", "--coeffs", "trivial"],
        ["twist", "--endo", "y", "x"],
        ["validate", ""],
    ])
    def test_plain_lines_read_as_argparse_reads_them(self, argv):
        assert read_plain(argv) == argparse_reading(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["tensor", "a", "--square", "s", "b"],
        ["validate", "x", "y"],
        ["validate"],
        ["six-term", "x"],
        ["homology", "x", "--max-n", "-1"],
        ["homology", "x", "--max", "2"],
        ["homology", "x", "--max-n=2"],
        ["homology", "x", "--coeffs", "bad"],
        ["homology", "x", "--max-n", "two"],
        ["homology", "x", "--max-n"],
        ["validate", "--", "x"],
        ["validate", "-", "x"],
        ["validate", "x", "-h"],
        ["--json", "validate", "x"],
        ["frobnicate", "x"],
        [],
    ])
    def test_other_lines_go_to_argparse(self, argv):
        assert read_plain(argv) is None

    @pytest.mark.parametrize("workload", ["tensor-square", "homology-ladder", "certificates", "small-docs"])
    def test_benchmark_command_lines_are_plain(self, workload, tmp_path):
        for job in load_workloads().generate(workload, 1, tmp_path):
            argv = [*job.argv, "--json"]
            assert read_plain(argv) == argparse_reading(argv) is not None, argv

    def test_main_reads_sys_argv_on_both_paths(self, e1_path, monkeypatch, capsys):
        fallbacks = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: fallbacks.append(1) or real())
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        for name, fallback in (("repeated flag", []), ("double dash", [1])):
            fallbacks.clear()
            monkeypatch.setattr(sys, "argv", ["homleib", *(a.replace("{e1}", e1_path) for a in CASES[name])])
            assert main() == goldens[name]["code"]
            assert capsys.readouterr().out == goldens[name]["stdout"]
            assert fallbacks == fallback

    @pytest.mark.parametrize("name", ["repeated flag", "double dash"])
    def test_module_entry_point(self, name, e1_path):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [a.replace("{e1}", e1_path) for a in CASES[name]]
        done = subprocess.run([sys.executable, "-m", "homleib.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        want = json.loads(GOLDENS.read_text(encoding="utf-8"))[name]
        assert (done.returncode, done.stdout) == (want["code"], want["stdout"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        e1 = Path(tmp) / "e1.alg"
        e1.write_text(json.dumps(E1_DOC), encoding="utf-8")
        goldens = {name: run_case(argv, str(e1)) for name, argv in sorted(CASES.items())}
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
