"""Seeded instances, documents and job lists for the four workloads.

Every instance is built once over Q from integer structure constants and
written twice: as a Q document and, with only the ``field`` key changed, as
a GF(1000003) document.  The composition of each workload (which pieces,
which twists, which subcommands) is fixed.  The seed rescales every basis
vector of every instance by +1 or -1 and shuffles the job order.  A sign
change of basis gives an isomorphic algebra with different structure
constants, and every elimination on it meets the same zero pattern and the
same fraction sizes, so two seeds give different documents of equal cost.

Nothing here imports homleib at module level: the runner re-imports the
package for every set-up repetition.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PRIME = 1000003
FIELDS = ("Q", "Fp")
FIELD_NODES = {"Q": "Q", "Fp": {"Fp": PRIME}}
DEFAULT_SEED = 1

WORKLOADS = ("tensor-square", "homology-ladder", "certificates", "small-docs")

# Exit codes of the homleib CLI.
OK, MATH_FAILURE, USAGE_ERROR = 0, 1, 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``homleib <argv> --json``."""

    id: str          # unique within the workload, e.g. "sl2+sq tensor [Q]"
    pair: str        # the same for the Q and the GF(p) run of one instance
    field: str       # "Q" or "Fp"
    doc: str         # the document the job reads
    argv: tuple      # CLI arguments without "--json"
    expect: int      # expected exit code


# -- stock pieces over Q, twisted along fixed endomorphisms --------------------

def _matrix(F, rows):
    from homleib.linalg import Matrix
    return Matrix.from_rows(F, [[Fraction(x) for x in r] for r in rows])


def sl2(F, t=None):
    """sl2, or sl2 twisted along the automorphism diag(t, 1/t, 1)."""
    from homleib import generators
    from homleib.algebras import yau_twist
    if t is None:
        return generators.sl2(F)
    return yau_twist(generators.sl2(F), _matrix(F, [[t, 0, 0], [0, Fraction(1, t), 0], [0, 0, 1]]))


def heis(F, a, b):
    """Heisenberg twisted along diag(a, b, ab)."""
    from homleib import generators
    from homleib.algebras import yau_twist
    return yau_twist(generators.heisenberg(F), _matrix(F, [[a, 0, 0], [0, b, 0], [0, 0, a * b]]))


def square(F, d, c):
    """The square-bracket algebra twisted along [[d^2, c], [0, d]]."""
    from homleib import generators
    from homleib.algebras import yau_twist
    return yau_twist(generators.square_bracket_algebra(F), _matrix(F, [[d * d, c], [0, d]]))


def abelian(F, *diag):
    """An abelian algebra twisted along diag(*diag)."""
    from homleib.algebras import HomLeibnizAlgebra
    n = len(diag)
    return HomLeibnizAlgebra.abelian(F, n, _matrix(F, [[diag[i] if i == j else 0 for j in range(n)]
                                                       for i in range(n)]))


def dsum(*parts):
    from homleib.algebras import direct_sum
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def upper_triangular(F):
    from homleib.homassoc import HomAssociativeAlgebra
    return HomAssociativeAlgebra.from_products(
        F, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        labels=("e11", "e12", "e22"))


def gl2(F):
    from homleib.homassoc import HomAssociativeAlgebra
    return HomAssociativeAlgebra.from_products(
        F, 4,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {0: 1}, (1, 3): {1: 1},
         (2, 0): {2: 1}, (2, 1): {3: 1}, (3, 2): {2: 1}, (3, 3): {3: 1}},
        labels=("e11", "e12", "e21", "e22"))


def dual_numbers(F):
    from homleib.homassoc import HomAssociativeAlgebra
    return HomAssociativeAlgebra.from_products(
        F, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, labels=("1", "x"))


def twisted_assoc(F, which, c):
    """ut, gl2 or the dual numbers twisted by conjugation with diag(1, c).
    For c != 1 only the dual numbers keep the twist identity that
    sequence-check needs; hh1 reports it as a flag."""
    from homleib.homassoc import yau_twist_assoc
    if which == "ut":
        return yau_twist_assoc(upper_triangular(F), _matrix(F, [[1, 0, 0], [0, Fraction(1, c), 0], [0, 0, 1]]))
    if which == "gl2":
        return yau_twist_assoc(gl2(F), _matrix(
            F, [[1, 0, 0, 0], [0, Fraction(1, c), 0, 0], [0, 0, c, 0], [0, 0, 0, 1]]))
    return yau_twist_assoc(dual_numbers(F), _matrix(F, [[1, 0], [0, c]]))


def resign(alg, rng):
    """The same algebra in the basis s_i e_i, with seeded signs s_i: the
    structure constant c_ij^k becomes s_i s_j s_k c_ij^k and the twist entry
    a_ij becomes s_i s_j a_ij."""
    from homleib.linalg import Matrix
    n = alg.dim
    s = [rng.choice((1, -1)) for _ in range(n)]
    table = alg.c if hasattr(alg, "c") else alg.p
    table = tuple(tuple(tuple(s[i] * s[j] * s[k] * table[i][j][k] for k in range(n))
                        for j in range(n)) for i in range(n))
    twist = Matrix(alg.field, n, n, tuple(tuple(s[i] * s[j] * alg.twist.entries[i][j]
                                                for j in range(n)) for i in range(n)))
    return type(alg)(alg.field, n, table, twist, alg.labels)


# -- documents ----------------------------------------------------------------

def algebra_doc(alg) -> dict:
    from homleib.documents import serialize_algebra
    return serialize_algebra(alg)


def action_doc(alg) -> dict:
    """The adjoint action of an algebra on itself, with both sides inline."""
    doc = algebra_doc(alg)
    labels = alg.labels

    def entries(first_acts):
        out = []
        for a in range(alg.dim):
            for b in range(alg.dim):
                value = {labels[k]: str(x) for k, x in enumerate(alg.c[a][b]) if x}
                if value:
                    actor, target = (a, b) if first_acts else (b, a)
                    out.append({"actor": labels[actor], "target": labels[target], "value": value})
        return out

    return {"actor": doc, "target": doc, "left": entries(True), "right": entries(False)}


def with_field(doc: dict, field: str) -> dict:
    if "actor" in doc:
        return dict(doc, actor=with_field(doc["actor"], field),
                    target=with_field(doc["target"], field))
    return dict(doc, field=FIELD_NODES[field])


def broken_identity(doc: dict, rng) -> dict:
    """An sl2-type document (identity twist, basis signs s) with [h, e] set
    to c.e and [e, h] to -c.e, c in {3, 4, 5}.

    The Leibniz identity on (h, e, f) then reads [h, [e, f]] = 0 against
    [[h, e], f] + [e, [h, f]] = s_e s_f s_h (c - 2 s_h).h, which is nonzero
    over Q and over GF(p), so ``validate`` must exit 1 with a witness."""
    c = rng.choice([3, 4, 5])
    bracket = []
    for entry in doc["bracket"]:
        pair = (entry["left"].split(".")[0], entry["right"].split(".")[0])
        if pair in (("h", "e"), ("e", "h")):
            (label, _), = entry["value"].items()
            entry = dict(entry, value={label: str(c if pair == ("h", "e") else -c)})
        bracket.append(entry)
    return dict(doc, bracket=bracket)


def malformed(doc: dict, rng) -> dict:
    """A document the parser must refuse with exit 2: a zero denominator,
    a scalar that is not a number, or a basis shorter than ``dim``."""
    kind = rng.choice(["zero-denominator", "not-a-number", "dimension"])
    if kind == "dimension":
        return dict(doc, dim=doc["dim"] + 1)
    alpha = [list(r) for r in doc["alpha"]]
    alpha[0][0] = "1/0" if kind == "zero-denominator" else "two"
    return dict(doc, alpha=alpha)


# -- workloads ----------------------------------------------------------------
#
# Each recipe returns [(instance name, document, [(command, args, expected
# exit code)])].  ``doc`` turns an algebra into its seeded document.

TRIVIAL = ("homology", ("--coeffs", "trivial", "--max-n", "3"), OK)
ADJOINT = ("homology", ("--coeffs", "adjoint", "--max-n", "3"), OK)
TENSOR = ("tensor", (), OK)
UCE = ("uce", (), OK)


def _tensor_square(F, doc, rng):
    return [(name, doc(alg), cmds) for name, alg, cmds in [
        ("sq1", square(F, 1, 1), [TENSOR]),
        ("sq2", square(F, 2, 1), [TENSOR]),
        ("sq3", square(F, -3, 1), [TENSOR]),
        ("ab2", abelian(F, 2, -2), [TENSOR]),
        ("ab2'", abelian(F, 3, 2), [TENSOR]),
        ("heis2", heis(F, 2, -2), [TENSOR]),
        ("heis3", heis(F, 3, 2), [TENSOR]),
        ("sl2", sl2(F), [TENSOR, UCE]),
        ("sl2t2", sl2(F, 2), [TENSOR, UCE]),
        ("sl2t3", sl2(F, -3), [UCE]),
        ("sq+ab1", dsum(square(F, 2, -1), abelian(F, 2)), [TENSOR]),
        ("ab3", abelian(F, 2, -2, 3), [TENSOR]),
        ("sq+sq", dsum(square(F, 2, 1), square(F, -1, 1)), [TENSOR]),
        ("sl2+sq", dsum(sl2(F, 2), square(F, 2, 1)), [TENSOR]),
        ("sl2+sl2", dsum(sl2(F, -2), sl2(F, 2)), [UCE]),
    ]]


def _homology_ladder(F, doc, rng):
    return [(name, doc(alg), cmds) for name, alg, cmds in [
        ("sq2", square(F, 2, 1), [TRIVIAL, ADJOINT]),
        ("sq3", square(F, -3, 1), [TRIVIAL]),
        ("ab2", abelian(F, 2, -2), [TRIVIAL, ADJOINT]),
        ("heis2", heis(F, 2, -2), [TRIVIAL, ADJOINT]),
        ("heis3", heis(F, 3, 2), [TRIVIAL]),
        ("sl2t2", sl2(F, 2), [TRIVIAL, ADJOINT]),
        ("sl2", sl2(F), [TRIVIAL]),
        ("ab3", abelian(F, 2, -2, 3), [TRIVIAL]),
        ("sq+ab1", dsum(square(F, 2, -1), abelian(F, 2)), [TRIVIAL, ADJOINT]),
        ("sq+sq", dsum(square(F, 2, 1), square(F, -1, 1)), [TRIVIAL]),
        ("sq+sq+ab1", dsum(square(F, 1, 1), square(F, 2, -1), abelian(F, 2)), [TRIVIAL]),
    ]]


def _certificates(F, doc, rng):
    zero = ("six-term", ("--ideal", "zero"), OK)
    full = ("six-term", ("--ideal", "full"), OK)
    first = ("six-term", ("--ideal", json.dumps(
        [[1 if j == i else 0 for j in range(6)] for i in range(3)])), OK)
    alpha = ("uce-alpha", (), OK)
    seq = ("sequence-check", (), OK)
    hh1 = ("hh1", (), OK)
    return [(name, doc(alg), cmds) for name, alg, cmds in [
        ("sl2", sl2(F), [zero, full, alpha]),
        ("sl2t2", sl2(F, 2), [zero, full, alpha]),
        ("sl2t3", sl2(F, -3), [zero, alpha]),
        ("sl2+sl2", dsum(sl2(F, 2), sl2(F, 3)), [first]),
        ("ut", upper_triangular(F), [seq, hh1]),
        ("gl2", gl2(F), [seq, hh1]),
        ("dual", dual_numbers(F), [seq]),
        ("dual-t", twisted_assoc(F, "dual", -2), [seq, hh1]),
        ("ut-t2", twisted_assoc(F, "ut", 2), [hh1]),
        ("ut-t3", twisted_assoc(F, "ut", -3), [hh1]),
        ("gl2-t", twisted_assoc(F, "gl2", 2), [hh1]),
        ("sl2t5", sl2(F, 5), [alpha]),
        ("sl2t-2", sl2(F, -2), [alpha]),
        ("dual-t3", twisted_assoc(F, "dual", 3), [seq, hh1]),
        ("ut-t5", twisted_assoc(F, "ut", 5), [hh1]),
        ("gl2-t3", twisted_assoc(F, "gl2", -3), [hh1]),
    ]]


SMALL_DOCS_PER_PASS = 60
SMALL_COMMANDS = ("validate", "info", "lieize", "semidirect", "hochschild", "hh1")


def _small_docs(F, doc, rng):
    """Instance k runs SMALL_COMMANDS[k % 6] on the next piece of its kind;
    every tenth instance is an invalid document instead."""
    leibniz = [lambda: square(F, 2, 1), lambda: heis(F, 2, -1), lambda: sl2(F, 2),
               lambda: dsum(square(F, 1, 1), square(F, -2, 1)), lambda: abelian(F, 2, -3, 2),
               lambda: dsum(square(F, 2, -1), abelian(F, 3)), lambda: sl2(F)]
    assoc = [lambda: upper_triangular(F), lambda: dual_numbers(F),
             lambda: twisted_assoc(F, "ut", 2), lambda: twisted_assoc(F, "dual", 3)]
    invalid = [lambda: sl2(F), lambda: dsum(sl2(F), abelian(F, 3))]
    turn = {}

    def take(stock):
        k = turn[id(stock)] = turn.get(id(stock), -1) + 1
        return stock[k % len(stock)]()

    out = []
    for k in range(SMALL_DOCS_PER_PASS):
        command = SMALL_COMMANDS[k % 6]
        if k % 20 == 9:
            out.append((f"{k}:identity", broken_identity(doc(take(invalid)), rng),
                        [("validate", (), MATH_FAILURE)]))
        elif k % 10 == 9:
            out.append((f"{k}:malformed", malformed(doc(take(invalid)), rng),
                        [(SMALL_COMMANDS[k % 3], (), USAGE_ERROR)]))
        elif command == "semidirect":
            out.append((f"{k}", action_doc(resign(take(leibniz), rng)), [(command, (), OK)]))
        else:
            stock = assoc if command in ("hochschild", "hh1") or k % 12 == 1 else leibniz
            out.append((f"{k}", doc(take(stock)), [(command, (), OK)]))
    return out


# About the reference seconds (speed.py) one pass over a workload's jobs
# takes at the seed commit.  A run makes --seconds / PASS_SECONDS whole
# passes, a number fixed by its arguments: every run of a workload, on any
# commit, has the same runs, so each percentile falls on the same rank.
PASS_SECONDS = {"tensor-square": 9, "homology-ladder": 7.5, "certificates": 9, "small-docs": 1}

RECIPES = {
    "tensor-square": _tensor_square,
    "homology-ladder": _homology_ladder,
    "certificates": _certificates,
    "small-docs": _small_docs,
}


def generate(workload: str, seed: int, out_dir: Path) -> list:
    """Write the workload's documents under ``out_dir`` and return its job
    list for one pass, in seeded order."""
    from homleib.fields import Field

    rng = random.Random(f"{workload}:{seed}")
    instances = RECIPES[workload](Field(), lambda alg: algebra_doc(resign(alg, rng)), rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.json"):
        stale.unlink()
    jobs = []
    for n, (name, node, commands) in enumerate(instances):
        for field in FIELDS:
            path = out_dir / f"{n:03d}-{field}.json"
            path.write_text(canonical(with_field(node, field)), encoding="utf-8")
            for command, args, expect in commands:
                where = ("--square", str(path)) if command == "tensor" else (str(path),)
                key = " ".join((name, command) + args)
                jobs.append(Job(f"{key} [{field}]", key, field, str(path),
                                (command,) + where + args, expect))
    rng.shuffle(jobs)
    return jobs


def canonical(node) -> str:
    return json.dumps(node, sort_keys=True, indent=1) + "\n"
