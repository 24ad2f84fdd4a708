"""Report containers shared by the validators and the exactness certificates.

Reports are plain data, deterministic in content and ordering, and convert
to JSON-safe dictionaries (ints, strings, bools, lists, dicts only).
"""

from __future__ import annotations


def render_witness(w) -> str:
    """A witness as text: a tuple renders as a tuple of its rendered items, a
    label as its repr, and a scalar as ``str``, the document notation
    (``1/2``), whether it is an int or a ``Fraction``."""
    if isinstance(w, tuple):
        items = [render_witness(x) for x in w]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    if isinstance(w, str):
        return repr(w)
    return str(w)


class Violation:
    """One failed instance of a law: the law's name, the witness labels and an optional detail."""

    law: str
    witness: tuple
    detail: str
    __slots__ = ("law", "witness", "detail")

    def __init__(self, law: str, witness: tuple, detail: str = ""):
        self.law, self.witness, self.detail = law, witness, detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.law, self.witness, self.detail) == (other.law, other.witness, other.detail)

    def to_dict(self) -> dict:
        out = {"law": self.law, "witness": [str(w) for w in self.witness]}
        if self.detail:
            out["detail"] = self.detail
        return out


class ValidationReport:
    """The violations found in one subject, with its flags and the status of each axiom."""

    subject: str
    violations: list[Violation]
    flags: dict
    axiom_status: dict
    __slots__ = ("subject", "violations", "flags", "axiom_status")

    def __init__(self, subject: str, violations: list[Violation] | None = None, flags: dict | None = None,
                 axiom_status: dict | None = None):
        self.subject = subject
        self.violations = [] if violations is None else violations
        self.flags = {} if flags is None else flags
        self.axiom_status = {} if axiom_status is None else axiom_status

    @property
    def valid(self) -> bool:
        return not self.violations

    def record(self, law: str, witness: tuple, detail: str = ""):
        self.violations.append(Violation(law, witness, detail))
        if law in self.axiom_status:
            self.axiom_status[law] = False

    def require(self, error):
        """Raise ``error(v)`` for the first violation v, if there is one."""
        if self.violations:
            raise error(self.violations[0])

    def to_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "valid": self.valid,
            "violations": [v.to_dict() for v in self.violations],
        }
        if self.flags:
            out["flags"] = dict(self.flags)
        if self.axiom_status:
            out["axioms"] = dict(self.axiom_status)
        return out


class CheckItem:
    """One named check of an exactness certificate and whether it holds."""

    name: str
    ok: bool
    __slots__ = ("name", "ok")

    def __init__(self, name: str, ok: bool):
        self.name, self.ok = name, ok

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok}


class ExactnessReport:
    """The checks of an exactness certificate, in order, with the dimensions it read."""

    subject: str
    items: list[CheckItem]
    dims: dict
    __slots__ = ("subject", "items", "dims")

    def __init__(self, subject: str, items: list[CheckItem] | None = None, dims: dict | None = None):
        self.subject = subject
        self.items = [] if items is None else items
        self.dims = {} if dims is None else dims

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def check(self, name: str, ok: bool):
        self.items.append(CheckItem(name, bool(ok)))

    def failures(self) -> list[CheckItem]:
        return [i for i in self.items if not i.ok]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [i.to_dict() for i in self.items],
            "dims": dict(self.dims),
        }
