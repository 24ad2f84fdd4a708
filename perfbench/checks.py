"""Output checks for every job: exit code, certificates, agreement of the Q
and GF(p) runs of one instance, and, for the default seed, the sha256 of
the ``--json`` stdout against digests recorded from the library as it was
when the benchmark was defined."""

from __future__ import annotations

import hashlib
import json

# Values a successful run of each subcommand certifies, besides every "ok"
# and "valid" key anywhere in its report, which must be true.
CERTIFIED = {
    "homology": {"boundary_squares_to_zero": True},
    "lieize": {"hom_lie": True},
    "semidirect": {"split_exact": True},
    "uce": {"classification": "central", "total_perfect": True},
    "uce-alpha": {"classification": "central", "isomorphic": True},
    "hochschild": {"cyclic_identity": True},
}

# Keys whose values are written in the field's own scalars and so differ
# between the Q and the GF(p) run of one instance.
FIELD_DEPENDENT = ("field", "algebra", "quotient_algebra", "center_basis")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _flags(node, key):
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            yield from _flags(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from _flags(v, key)


def check_job(job, code: int, stdout: str, stderr: str):
    """None when the job's output is right, else the reason it is not."""
    if code != job.expect:
        return f"exit {code}, expected {job.expect}"
    if job.expect == 2:
        if stdout or not stderr.startswith("error: "):
            return "usage error without its message on stderr"
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if job.expect == 1:
        if "error" not in report:
            return "failure without an error message"
        if job.argv[0] == "validate":
            violations = report.get("report", {}).get("violations", [])
            if not violations or not violations[0].get("witness"):
                return "invalid document without a witness"
        return None
    for key in ("ok", "valid"):
        if any(v is not True for v in _flags(report, key)):
            return f"a certificate reports {key} = false"
    for key, want in CERTIFIED.get(job.argv[0], {}).items():
        if report.get(key) != want:
            return f"{key} is {report.get(key)!r}, expected {want!r}"
    return None


def field_free(node):
    """The report with every field-dependent value removed."""
    if isinstance(node, dict):
        return {k: field_free(v) for k, v in node.items() if k not in FIELD_DEPENDENT}
    if isinstance(node, list):
        return [field_free(v) for v in node]
    return node


def field_free_digest(stdout: str) -> str:
    """sha256 of the report with every field-dependent value removed: the Q
    and GF(p) runs of one instance must give the same, which means they match
    on every dimension, rank, flag and certificate."""
    if not stdout:
        return digest("")
    return digest(json.dumps(field_free(json.loads(stdout)), sort_keys=True))
