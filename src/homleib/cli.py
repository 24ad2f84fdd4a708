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
from pathlib import Path

from . import __version__
from .errors import MathFailure, UsageError
from .actions import MutualActions, semidirect
from .algebras import (
    HomLeibnizAlgebra,
    IdealHandle,
    center,
    derived_subspace,
    lieization,
    predicates,
    yau_twist,
)
from .documents import (
    ActionDocument,
    AlgebraDocument,
    parse_document,
    serialize_algebra,
)
from .extensions import (
    classify_extension,
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
from .homology import ChainComplex, adjoint_corep, chain_dim, coinvariants_dim, trivial_corep
from .linalg import Matrix, Subspace
from .report import render_witness
from .tensorprod import build_tensor, factor_maps


def _load_algebra(path: str, kinds=("hom-leibniz", "leibniz")) -> AlgebraDocument:
    doc = parse_document(Path(path))
    if not isinstance(doc, AlgebraDocument):
        raise UsageError(f"{path}: expected an algebra document")
    if doc.kind not in kinds:
        raise UsageError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _load_action(path: str) -> ActionDocument:
    doc = parse_document(Path(path))
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
    doc = parse_document(Path(args.file))
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
    base = HomLeibnizAlgebra(doc.field, doc.dim, doc.table, doc.alpha, doc.basis)
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
    return (sd.include.map.rank() == sd.include.source.dim
            and sd.project.map.rank() == sd.project.target.dim
            and sd.project.map.kernel() == sd.include.map.image()
            and sd.project.map.compose(sd.section.map) == ident)


def cmd_tensor(args) -> dict:
    if args.square:
        if args.first or args.second:
            raise UsageError("tensor takes --square FILE or two action documents, not both")
        alg = _valid_algebra(args.square)
        ma = MutualActions.adjoint(alg)
    else:
        if not (args.first and args.second):
            raise UsageError("tensor needs --square FILE or two action documents")
        a1, a2 = _load_action(args.first).build(), _load_action(args.second).build()
        _require(a1.validate(), "first action")
        _require(a2.validate(), "second action")
        ma = MutualActions(a1, a2)
    t = build_tensor(ma)
    into_m, into_n = factor_maps(t)
    return {
        "ambient_dim": t.ambient_dim,
        "relation_rank": t.presentation.relations.dim,
        "dim": t.algebra.dim,
        "abelian": t.algebra.is_abelian(),
        "into_first_rank": into_m.map.rank(),
        "into_second_rank": into_n.map.rank(),
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
    # dim H_n = dim C_n - rank d_n - rank d_(n+1), each rank computed once;
    # the d^2 check reads the columns the ranks have built
    cx = ChainComplex(alg, corep)
    ranks = [cx.rank(n) for n in range(args.max_n + 2)]
    dims = {f"hl{n}": chain_dim(alg, corep, n) - ranks[n] - ranks[n + 1]
            for n in range(args.max_n + 1)}
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
        "classification": classify_extension(uce.extension).value,
        "total_perfect": predicates(uce.extension.total).perfect,
    }


def cmd_uce_alpha(args) -> dict:
    alg = _valid_algebra(args.file)
    res = universal_alpha_central_extension(alg)
    return {
        "total_dim": res.extension.total.dim,
        "kernel_dim": res.extension.kernel.dim,
        "presented_dim": res.presented.dim,
        "isomorphic": True,
        "classification": classify_extension(res.extension).value,
    }


def _parse_ideal(alg, text: str) -> Subspace:
    if text == "zero":
        return Subspace.zero(alg.field, alg.dim)
    if text == "full":
        return Subspace.full(alg.field, alg.dim)
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
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
    doc = parse_document(Path(args.file))
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
        preds = predicates(alg)
        cx = ChainComplex(alg, trivial_corep(alg))
        note("boundary squares to zero",
             all(cx.squares_to_zero(n) for n in range(2, args.max_n + 2)))
        note("degree-zero closed form", cx.homology_dim(0) == coinvariants_dim(cx.coeffs))
        if preds.perfect:
            uce = universal_central_extension(alg)
            note("tensor square perfect", predicates(uce.extension.total).perfect)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: ``main`` runs
    many times in one process, and building the fourteen subparsers costs
    about as much as a small job.  argparse reads the terminal width when it
    formats, so the shared parser prints the same bytes as a new one."""
    parser = argparse.ArgumentParser(
        prog="homleib",
        description="Exact computer algebra for Hom-Leibniz and Hom-associative algebras")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check the axioms of a document")
    p.add_argument("file")
    p.add_argument("--field-check", action="store_true",
                   help="also report the parsed ground field")

    p = add("info", cmd_info, "center, derived subalgebra and predicates")
    p.add_argument("file")

    p = add("lieize", cmd_lieize, "quotient by the squares ideal")
    p.add_argument("file")

    p = add("twist", cmd_twist, "twist a Leibniz algebra along an endomorphism")
    p.add_argument("file")
    p.add_argument("--endo", required=True,
                   help="document whose alpha matrix is the endomorphism")

    p = add("semidirect", cmd_semidirect, "semi-direct product along an action")
    p.add_argument("file")

    p = add("tensor", cmd_tensor, "non-abelian tensor product")
    p.add_argument("--square", help="tensor square of one algebra under adjoint actions")
    p.add_argument("first", nargs="?", help="action of the first algebra on the second")
    p.add_argument("second", nargs="?", help="action of the second algebra on the first")

    p = add("homology", cmd_homology, "homology dimensions")
    p.add_argument("file")
    p.add_argument("--coeffs", choices=("trivial", "adjoint"), default="trivial")
    p.add_argument("--max-n", type=int, default=2)

    p = add("uce", cmd_uce, "universal central extension of a perfect algebra")
    p.add_argument("file")

    p = add("uce-alpha", cmd_uce_alpha,
            "universal twist-central extension of a twist-perfect algebra")
    p.add_argument("file")

    p = add("six-term", cmd_six_term, "exactness certificate for an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True,
                   help="'zero', 'full' or a JSON list of coordinate vectors")

    p = add("hochschild", cmd_hochschild, "boundary quotient of an associative-type algebra")
    p.add_argument("file")

    p = add("hh1", cmd_hh1, "first Hochschild homologies and the twist-identity flag")
    p.add_argument("file")

    p = add("sequence-check", cmd_sequence_check,
            "five-joint exactness certificate for the comparison sequence")
    p.add_argument("file")

    p = add("check-all", cmd_check_all, "property battery for a document")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--random-instances", type=int, default=3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_human(report))


if __name__ == "__main__":
    sys.exit(main())
