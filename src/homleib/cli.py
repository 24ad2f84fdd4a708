"""Command line interface: one subcommand per construction, reports on
standard output.

Exit codes: 0 when the computation succeeds and every certified property
holds; 1 on a mathematical failure (a violated axiom, an unmet hypothesis,
a broken certificate), with witnesses in the report; 2 on unusable input.
Reports are human-readable by default and canonical JSON under ``--json``
(sorted keys, no floats), byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, NamedTuple

from . import __version__
from .errors import MathFailure, ParseError, UsageError
from .actions import MutualActions, semidirect
from .algebras import (
    IdealHandle,
    center,
    derived_subspace,
    is_perfect,
    lieization,
    predicates,
    yau_twist,
)
from .documents import (
    ActionDocument,
    AlgebraDocument,
    parse_document,
    parse_json,
    serialize_algebra,
)
from .extensions import (
    ExtensionKind,
    six_term_check,
    universal_alpha_central_extension,
    universal_central_extension,
)
from .homassoc import (
    cyclic_identity_holds,
    first_homologies,
    hochschild_module,
    sequence_check,
    to_leibniz,
)
from .homology import ChainComplex, adjoint_corep, coinvariants_dim, trivial_corep
from .linalg import Matrix, Subspace, exact
from .report import render_witness
from .tensorprod import build_tensor


def _load_algebra(path: str, kinds=("hom-leibniz", "leibniz")) -> AlgebraDocument:
    doc = parse_document(path)
    if not isinstance(doc, AlgebraDocument):
        raise UsageError(f"{path}: expected an algebra document")
    if doc.kind not in kinds:
        raise UsageError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _load_action(path: str) -> ActionDocument:
    doc = parse_document(path)
    if not isinstance(doc, ActionDocument):
        raise UsageError(f"{path}: expected an action document")
    return doc


def _require(report, what: str):
    report.require(lambda v: MathFailure(f"{what}: {v.law} fails at {v.witness}", witness=v.witness))


def _valid_algebra(path: str, kinds=("hom-leibniz", "leibniz")):
    """The algebra of a document, built and validated."""
    alg = _load_algebra(path, kinds).build()
    _require(alg.validate(), "algebra")
    return alg


def cmd_validate(args) -> dict:
    doc = parse_document(args.file)
    rep = doc.build().validate()
    kind = "action" if isinstance(doc, ActionDocument) else doc.kind
    out = {"document": kind, "report": rep.to_dict()}
    if args.field_check:
        out["field"] = doc.field.describe() if isinstance(doc, AlgebraDocument) \
            else doc.actor.field.describe()
    rep.require(lambda v: ReportedFailure(out, f"{v.law} fails at {v.witness}"))
    return out


def cmd_info(args) -> dict:
    doc = _load_algebra(args.file, kinds=("hom-leibniz", "leibniz", "hom-associative"))
    if doc.kind == "hom-associative":
        alg = to_leibniz(doc.build())
    else:
        alg = doc.build()
    _require(alg.validate(), "algebra")
    z = center(alg)
    der = derived_subspace(alg)
    return {
        "dim": alg.dim,
        "field": alg.field.describe(),
        "hom_lie": alg.is_skew(),
        "center_dim": z.dim,
        "center_basis": [[alg.field.to_str(x) for x in row] for row in z.basis.entries],
        "derived_dim": der.dim,
        "predicates": predicates(alg).to_dict(),
    }


def cmd_lieize(args) -> dict:
    alg = _valid_algebra(args.file)
    quot, proj = lieization(alg)
    return {
        "input_dim": alg.dim,
        "lie_dim": quot.dim,
        "hom_lie": quot.is_skew(),
        "projection_rank": proj.map.rank(),
        "algebra": serialize_algebra(quot),
    }


def cmd_twist(args) -> dict:
    doc = _load_algebra(args.file, kinds=("leibniz",))
    base = doc.build()
    endo_doc = _load_algebra(args.endo, kinds=("leibniz", "hom-leibniz"))
    if endo_doc.dim != doc.dim:
        raise UsageError("endomorphism document has a different dimension")
    twisted = yau_twist(base, endo_doc.alpha)
    _require(twisted.validate(), "twisted algebra")
    return {"algebra": serialize_algebra(twisted), "predicates": predicates(twisted).to_dict()}


def cmd_semidirect(args) -> dict:
    doc = _load_action(args.file)
    action = doc.build()
    _require(action.validate(), "action")
    sd = semidirect(action)
    _require(sd.algebra.validate(), "semidirect product")
    return {
        "dim": sd.algebra.dim,
        "algebra": serialize_algebra(sd.algebra),
        "split_exact": _split_exact(sd),
    }


def _split_exact(sd) -> bool:
    ident = Matrix.identity(sd.algebra.field, sd.project.target.dim)
    return sd.include.map.is_injective() and sd.project.map.is_surjective() \
        and exact(sd.include.map, sd.project.map) and sd.project.map.compose(sd.section.map) == ident


def cmd_tensor(args) -> dict:
    if args.square is not None:
        if args.first is not None or args.second is not None:
            raise UsageError("tensor takes --square FILE or two action documents, not both")
        alg = _valid_algebra(args.square)
        ma = MutualActions.adjoint(alg)
    else:
        if args.first is None or args.second is None:
            raise UsageError("tensor needs --square FILE or two action documents")
        a1, a2 = _load_action(args.first).build(), _load_action(args.second).build()
        _require(a1.validate(), "first action")
        _require(a2.validate(), "second action")
        ma = MutualActions(a1, a2)
    t = build_tensor(ma)
    return {
        "ambient_dim": t.ambient_dim,
        "relation_rank": t.presentation.relations.dim,
        "dim": t.algebra.dim,
        "abelian": t.algebra.is_abelian(),
        "into_first_rank": t.into_m.map.rank(),
        "into_second_rank": t.into_n.map.rank(),
        "algebra": serialize_algebra(t.algebra),
    }


def _nonnegative(value: int, flag: str):
    if value < 0:
        raise UsageError(f"{flag} must be at least 0, got {value}")


def cmd_homology(args) -> dict:
    _nonnegative(args.max_n, "--max-n")
    alg = _valid_algebra(args.file)
    if args.coeffs == "trivial":
        corep = trivial_corep(alg)
    else:
        corep = adjoint_corep(alg)
    _require(corep.validate(), "coefficients")
    # the complex caches each rank and the d^2 verdict its elimination found
    cx = ChainComplex(alg, corep)
    dims = {f"hl{n}": cx.homology_dim(n) for n in range(args.max_n + 1)}
    complex_ok = all(cx.squares_to_zero(n) for n in range(2, args.max_n + 2))
    out = {
        "coefficients": args.coeffs,
        "dims": dims,
        "boundary_squares_to_zero": complex_ok,
        "coinvariants_dim": coinvariants_dim(corep),
    }
    if not complex_ok:
        raise ReportedFailure(out, "boundary does not square to zero")
    return out


def cmd_uce(args) -> dict:
    alg = _valid_algebra(args.file)
    uce = universal_central_extension(alg)
    return {
        "total_dim": uce.extension.total.dim,
        "kernel_dim": uce.kernel_dim,
        "classification": ExtensionKind.CENTRAL.value,  # checked by the constructor
        "total_perfect": is_perfect(uce.extension.total),
    }


def cmd_uce_alpha(args) -> dict:
    alg = _valid_algebra(args.file)
    res = universal_alpha_central_extension(alg)
    return {
        "total_dim": res.extension.total.dim,
        "kernel_dim": res.extension.kernel.dim,
        "presented_dim": res.presented.dim,
        "isomorphic": True,
        "classification": ExtensionKind.CENTRAL.value,  # checked by the constructor
    }


def _parse_ideal(alg, text: str) -> Subspace:
    if text == "zero":
        return Subspace.zero(alg.field, alg.dim)
    if text == "full":
        return Subspace.full(alg.field, alg.dim)
    try:
        rows = parse_json(text, "--ideal")
    except ParseError:
        raise UsageError("--ideal must be 'zero', 'full' or a JSON list of vectors") from None
    if not isinstance(rows, list):
        raise UsageError("--ideal must be a JSON list of coordinate vectors")
    vecs = []
    for row in rows:
        if not isinstance(row, list) or len(row) != alg.dim:
            raise UsageError(f"--ideal vectors must have length {alg.dim}")
        vecs.append(tuple(alg.field.parse(x) for x in row))
    return Subspace.span(alg.field, alg.dim, vecs)


def _certificate(rep) -> dict:
    """An exactness report, or ReportedFailure naming its failed checks."""
    out = {"report": rep.to_dict()}
    if not rep.ok:
        raise ReportedFailure(out, "; ".join(i.name for i in rep.failures()))
    return out


def cmd_six_term(args) -> dict:
    alg = _valid_algebra(args.file)
    return _certificate(six_term_check(alg, _parse_ideal(alg, args.ideal)))


def cmd_hochschild(args) -> dict:
    alg = _valid_algebra(args.file, kinds=("hom-associative",))
    h = hochschild_module(alg)
    return {
        "boundary_rank": h.presentation.relations.dim,
        "quotient_dim": h.algebra.dim,
        "commutator_dim": h.commutator_space.dim,
        "evaluation_rank": h.phi.rank(),
        "cyclic_identity": cyclic_identity_holds(h),
        "quotient_algebra": serialize_algebra(h.algebra),
    }


def cmd_hh1(args) -> dict:
    alg = _valid_algebra(args.file, kinds=("hom-associative",))
    return first_homologies(hochschild_module(alg)).to_dict()


def cmd_sequence_check(args) -> dict:
    alg = _valid_algebra(args.file, kinds=("hom-associative",))
    return _certificate(sequence_check(hochschild_module(alg)))


def cmd_check_all(args) -> dict:
    _nonnegative(args.max_n, "--max-n")
    _nonnegative(args.random_instances, "--random-instances")
    doc = parse_document(args.file)
    if not isinstance(doc, AlgebraDocument):
        raise UsageError("check-all expects an algebra document")
    rng = random.Random(args.seed)
    checks = []

    def note(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    alg = doc.build()
    note("axioms", alg.validate().valid)
    if not checks[0]["ok"]:
        pass  # the constructions below presume the axioms
    elif doc.kind == "hom-associative":
        h = hochschild_module(alg)
        note("cyclic identity", cyclic_identity_holds(h))
        fh = first_homologies(h)
        note("rank-nullity of the evaluation",
             fh.hh1_alpha_dim == h.algebra.dim - h.commutator_space.dim)
        if alg.is_commutative():
            note("homologies agree on commutative input",
                 fh.hh1_alpha_dim == fh.hh1_milnor_dim)
        elif fh.alpha_identity_holds:
            note("comparison sequence", sequence_check(h).ok)
    else:
        quot, proj = lieization(alg)
        note("lie-ization is hom-lie", quot.is_skew())
        note("lie-ization projection", proj.is_homomorphism())
        full = IdealHandle(alg, Subspace.full(alg.field, alg.dim))
        der = derived_subspace(alg)
        note("derived ideal inside the algebra",
             full.space.contains_subspace(der))
        cx = ChainComplex(alg, trivial_corep(alg))
        note("boundary squares to zero",
             all(cx.squares_to_zero(n) for n in range(2, args.max_n + 2)))
        note("degree-zero closed form", cx.homology_dim(0) == coinvariants_dim(cx.coeffs))
        if der.dim == alg.dim:
            uce = universal_central_extension(alg)
            note("tensor square perfect", is_perfect(uce.extension.total))
            note("kernel matches second homology",
                 uce.kernel_dim == cx.homology_dim(2))
        else:
            t = build_tensor(MutualActions.adjoint(alg))
            note("tensor square well-defined", t.algebra.validate().valid)
        from .generators import random_corep

        for k in range(args.random_instances):
            rand = ChainComplex(*random_corep(alg.field, rng, max_dim=3))
            note(f"random co-representation {k} complex",
                 all(rand.squares_to_zero(n) for n in range(2, 4)))
    out = {"seed": args.seed, "checks": checks, "ok": all(c["ok"] for c in checks)}
    if not out["ok"]:
        raise ReportedFailure(out, "; ".join(c["name"] for c in checks if not c["ok"]))
    return out


class ReportedFailure(MathFailure):
    """A mathematical failure with a full report attached for rendering."""

    def __init__(self, report: dict, message: str):
        super().__init__(message)
        self.report = report


def _render_human(data, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, list) and all(not isinstance(x, (dict, list)) for x in value):
                lines.append(f"{pad}- ({', '.join(_scalar(x) for x in value)})")
            elif isinstance(value, (dict, list)):
                lines.append(_render_human(value, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {_scalar(value)}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{_scalar(data)}")
    return "\n".join(lines)


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)) and not value:
        return "(none)"
    return str(value)


class Command(NamedTuple):
    """One subcommand: its function, its help text and its arguments, each
    as the name and the keyword arguments of ``add_argument``."""

    func: Callable
    help: str
    positionals: tuple = (("file", {}),)
    options: tuple = ()


# The one statement of the command line: ``build_parser`` builds argparse's
# parser from it and ``read_plain`` reads plain command lines against it.
JSON_OPTION = ("--json", {"action": "store_true", "help": "machine-readable output"})
COMMANDS = {
    "validate": Command(cmd_validate, "check the axioms of a document", options=(
        ("--field-check", {"action": "store_true", "help": "also report the parsed ground field"}),)),
    "info": Command(cmd_info, "center, derived subalgebra and predicates"),
    "lieize": Command(cmd_lieize, "quotient by the squares ideal"),
    "twist": Command(cmd_twist, "twist a Leibniz algebra along an endomorphism", options=(
        ("--endo", {"required": True, "help": "document whose alpha matrix is the endomorphism"}),)),
    "semidirect": Command(cmd_semidirect, "semi-direct product along an action"),
    "tensor": Command(cmd_tensor, "non-abelian tensor product", positionals=(
        ("first", {"nargs": "?", "help": "action of the first algebra on the second"}),
        ("second", {"nargs": "?", "help": "action of the second algebra on the first"}),
    ), options=(("--square", {"help": "tensor square of one algebra under adjoint actions"}),)),
    "homology": Command(cmd_homology, "homology dimensions", options=(
        ("--coeffs", {"choices": ("trivial", "adjoint"), "default": "trivial"}),
        ("--max-n", {"type": int, "default": 2}),
    )),
    "uce": Command(cmd_uce, "universal central extension of a perfect algebra"),
    "uce-alpha": Command(cmd_uce_alpha, "universal twist-central extension of a twist-perfect algebra"),
    "six-term": Command(cmd_six_term, "exactness certificate for an ideal", options=(
        ("--ideal", {"required": True, "help": "'zero', 'full' or a JSON list of coordinate vectors"}),)),
    "hochschild": Command(cmd_hochschild, "boundary quotient of an associative-type algebra"),
    "hh1": Command(cmd_hh1, "first Hochschild homologies and the twist-identity flag"),
    "sequence-check": Command(cmd_sequence_check,
                              "five-joint exactness certificate for the comparison sequence"),
    "check-all": Command(cmd_check_all, "property battery for a document", options=(
        ("--seed", {"type": int, "default": 0}),
        ("--max-n", {"type": int, "default": 3}),
        ("--random-instances", {"type": int, "default": 3}),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from ``COMMANDS`` once per
    process: ``main`` runs many times in one process, and building the
    fourteen subparsers costs about as much as a small job.  argparse reads
    the terminal width when it formats, so the shared parser prints the same
    bytes as a new one."""
    parser = argparse.ArgumentParser(
        prog="homleib",
        description="Exact computer algebra for Hom-Leibniz and Hom-associative algebras")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, kwargs in command.positionals:
            p.add_argument(dest, **kwargs)
        for option, kwargs in (JSON_OPTION, *command.options):
            p.add_argument(option, **kwargs)
        p.set_defaults(func=command.func)
    return parser


def _plain_grammar(name: str, command: Command) -> tuple:
    """What ``read_plain`` needs of a command: each option string's dest,
    type (None for a flag) and choices; the namespace's defaults; the dests
    of the required options; the positionals' dests and how many of them
    are required."""
    options, defaults, required = {}, {"command": name, "func": command.func}, set()
    for dest, kwargs in command.positionals:
        defaults[dest] = kwargs.get("default")
    for option, kwargs in (JSON_OPTION, *command.options):
        dest = option[2:].replace("-", "_")
        flag = kwargs.get("action") == "store_true"
        options[option] = dest, None if flag else kwargs.get("type", str), kwargs.get("choices")
        defaults[dest] = kwargs.get("default", False if flag else None)
        if kwargs.get("required"):
            required.add(dest)
    dests = tuple(dest for dest, _ in command.positionals)
    least = sum(kwargs.get("nargs") != "?" for _, kwargs in command.positionals)
    return options, defaults, frozenset(required), dests, least


_PLAIN = {name: _plain_grammar(name, command) for name, command in COMMANDS.items()}


def read_plain(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives a plain
    command line, or None when ``argv`` is not one.  A plain command line is
    a subcommand's exact name, then its exact option strings and its
    positionals in any order, where no value or positional starts with "-",
    every value converts by its option's type into its choices, every
    required option is given and the positionals are one run of as many as
    the subcommand takes.  argparse consumes every positional it can at the
    first run of them, so a positional after a later option is its error.
    Help, ``--version``, abbreviations, ``--opt=value``, ``--`` and every
    usage error are left to argparse."""
    grammar = _PLAIN.get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, defaults, required, dests, least = grammar
    values, given, positionals = dict(defaults), set(), []
    closed = False  # a run of positionals has ended
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            positionals.append(token)
            continue
        if token not in options:
            return None
        closed = bool(positionals)
        dest, convert, choices = options[token]
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = convert(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    if not required <= given or not least <= len(positionals) <= len(dests):
        return None
    values.update(zip(dests, positionals))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except ReportedFailure as exc:
        _emit(exc.report | {"error": str(exc)}, args.json)
        return 1
    except MathFailure as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__,
               "witness": render_witness(exc.witness) if exc.witness is not None else None},
              args.json)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.json)
    return 0


def _emit(report: dict, as_json: bool):
    if as_json:
        print(dumps(report))
    else:
        print(_render_human(report))


_escape = json.encoder.encode_basestring_ascii


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set the stdlib encodes in pure Python; this writer
    nests dicts with str keys, lists, tuples, str, int, bool and None
    itself and escapes strings with the C ``encode_basestring_ascii``.  Any
    other value, a dict with a key that is not a str included, is handed to
    ``json.dumps`` at its depth, so it is written, or raises, as there."""
    return _dumps(value, "\n")


def _dumps(value, pad: str) -> str:  # pad: a newline and the indent of value's line
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = map(_escape, value) if {str}.issuperset(map(type, value)) else [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict) and {str}.issuperset(map(type, value)):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([_escape(k) + ": " + _dumps(x, inner)
                                                 for k, x in sorted(value.items())]) + pad + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


if __name__ == "__main__":
    sys.exit(main())
