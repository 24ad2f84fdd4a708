"""Exact scalar arithmetic over the rationals or a prime field GF(p), p odd.

Over Q a scalar is a plain ``int`` when it is integral and a
``fractions.Fraction`` only when it is not; over GF(p) it is an int in
``range(p)``.  Every operation goes through the owning :class:`Field` so the
rest of the library is field-agnostic.  Over Q the operations accept int and
``Fraction`` operands in any mix and return the canonical form, so integral
arithmetic never pays for ``Fraction``; an int and a ``Fraction`` of the same
value compare, hash and print alike.  The one true division is
:meth:`Field.div`, which divides ``Fraction(a)`` so that int / int never
yields a float.  ``Field.clearing`` is the lcm of some scalars'
denominators, so a caller can clear them and work on integers without
naming ``Fraction``.  A scalar is zero exactly when it is falsy, so callers
test ``if x:`` rather than comparing with ``zero()``.
Characteristic 2 is rejected because the polarization identity used for
Lie-ization needs 2 to be invertible, and p must lie below ``PRIME_BOUND``,
where primality is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import SemanticError, echo
from .values import Frozen, Value


# Miller-Rabin over the first thirteen prime bases is exact for every n
# below PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017); a larger
# modulus is refused.  The bases up to 37 alone stop being exact at
# 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < PRIME_BOUND, decided once per
    modulus while it is among the last 64 asked about: every GF(p) document
    builds its ``Field``, so a process that reads many runs one test."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canon(x):
    """The canonical form of a rational: an int when it is integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


class Field(Value):
    """The ground field: rationals when ``p`` is None, otherwise GF(p) for
    an ``int`` p (a bool or a float is refused)."""

    p: int | None
    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if type(p) is not int:
                raise ValueError(f"prime modulus must be an int, got {echo(p)}")
            if p >= PRIME_BOUND:
                raise ValueError(f"prime modulus must be below {PRIME_BOUND}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p < 3:
                raise ValueError("characteristic 2 is not supported")
        Frozen.__init__(self, p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_canonical(self, x) -> bool:
        """Whether x is a scalar of this field in its canonical form: over
        GF(p) an int in ``range(p)``, over Q an int, or a ``Fraction`` that
        is not integral."""
        if self.p is not None:
            return type(x) is int and 0 <= x < self.p
        return type(x) is int or type(x) is Fraction and x.denominator != 1

    def is_scalar(self, x) -> bool:
        """Whether x is a scalar of this field: canonical, or over Q also an
        integral ``Fraction``, which equals its int."""
        p = self.p
        return type(x) in (int, Fraction) if p is None else type(x) is int and 0 <= x < p

    def from_int(self, n: int):
        return int(n) if self.p is None else n % self.p

    # over Q an int result is canonical as it is, so only a ``Fraction`` one
    # pays for ``_canon``
    def add(self, a, b):
        if self.p is None:
            return x if type(x := a + b) is int else _canon(x)
        return (a + b) % self.p

    def sub(self, a, b):
        if self.p is None:
            return x if type(x := a - b) is int else _canon(x)
        return (a - b) % self.p

    def mul(self, a, b):
        if self.p is None:
            return x if type(x := a * b) is int else _canon(x)
        return (a * b) % self.p

    def neg(self, a):
        return _canon(-a) if self.p is None else (-a) % self.p

    def div(self, a, b):
        if self.p is None:
            if b == 0:
                raise ZeroDivisionError("division by zero")
            return _canon(Fraction(a) / b)
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def canon(self, x):
        """The canonical form of x, a sum of products of this field's
        scalars taken with Python's own + and *."""
        return _canon(x) if self.p is None else x % self.p

    def inv(self, a):
        return self.div(self.one(), a)

    def clearing(self, values) -> int:
        """The least positive integer D with D x integral for every x in
        ``values``: the lcm of their denominators over Q, 1 over GF(p)."""
        if self.p is not None:
            return 1
        return lcm(*(x.denominator for x in values if type(x) is not int))

    def parse(self, text):
        """Parse a scalar written as ``a`` or ``a/b``, each an optional sign
        and ASCII decimal digits, with whitespace around; ints are accepted
        too."""
        if isinstance(text, int) and not isinstance(text, bool):
            return self.from_int(text)
        if not isinstance(text, str):
            raise SemanticError(f"scalar must be a string or int, got {echo(text)}")
        try:
            # an optional sign and ASCII digits, the usual scalar, is read at once: int() refuses it
            # only past Python's limit on the digits of an int, which the except below reports
            if text.isascii() and (text.isdigit() or text[1:].isdigit() and text[0] in "+-"):
                n = int(text)
                return n if self.p is None else n % self.p
            # on ASCII text with no underscore int() reads only a sign and
            # digits (and whitespace around them); it would read underscores
            # and other scripts' digits too, so those are refused here
            stripped = text.strip()
            if "_" in stripped or not stripped.isascii():
                raise ValueError
            parts = stripped.split("/")
            if len(parts) == 1:
                return self.from_int(int(parts[0]))
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise SemanticError(f"cannot parse scalar {echo(text)}") from None
        if den == 0 or (self.p is not None and den % self.p == 0):
            raise SemanticError(f"zero denominator in scalar {echo(text)}")
        return self.div(self.from_int(num), self.from_int(den))

    def to_str(self, a) -> str:
        return str(a)

    def describe(self):
        return "Q" if self.p is None else {"Fp": self.p}


QQ = Field()
