"""Exact scalar domains: arbitrary-precision rationals and prime fields.

Field elements are plain Python objects (``int`` for F_p, ``Fraction`` for Q)
and the field object only coerces into them: arithmetic is Python's, on
scalars, or numpy's, on the arrays of ``DenseMatrix``, reduced mod p there.
Prime-field elements are canonical representatives in ``[0, p)``; rationals
are always in lowest terms with positive denominator (guaranteed by
``Fraction``).  Coercing ``Fraction(1, a)`` gives the inverse of a nonzero a
in either field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .modp import PRIME_BOUND


class FieldError(ValueError):
    """Raised for invalid field construction or coercion."""


def _fraction(text: str, field) -> Fraction:
    """The rational number ``text`` spells, or FieldError if none."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldError(f"{text!r} is not a number of {field!r}") from exc


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The prime field F_p with canonical representatives ``0..p-1``.

    Only p < ``modp.PRIME_BOUND`` is accepted: the exact numpy kernels that
    ``DenseMatrix`` and the scans use over F_p would overflow beyond it.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise FieldError(f"prime {p} is too large: the exact kernels need "
                             f"p < {PRIME_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    # -- element construction ------------------------------------------------

    def __call__(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {x} is divisible by {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self(_fraction(x, self))
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def characteristic(self) -> int:
        return self.p

    def random_element(self, rng):
        return rng.randrange(self.p)

    def to_str(self, a) -> str:
        return str(a)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rational numbers with exact ``Fraction`` arithmetic."""

    __slots__ = ()

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return _fraction(x, self)
        raise FieldError(f"cannot coerce {x!r} into Q")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    @property
    def characteristic(self) -> int:
        return 0

    def random_element(self, rng):
        # Small integers keep coefficient growth tame in randomized tests.
        return Fraction(rng.randint(-9, 9))

    def to_str(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
