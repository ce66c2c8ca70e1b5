"""Exact scalar domains: arbitrary-precision rationals and prime fields.

Field elements are plain Python objects (``int`` for F_p, ``Fraction`` for Q)
and all arithmetic goes through the field object, so matrices can stay
field-generic.  Prime-field elements are canonical representatives in
``[0, p)``; rationals are always in lowest terms with positive denominator
(guaranteed by ``Fraction``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .modp import PRIME_BOUND


class FieldError(ValueError):
    """Raised for invalid field construction or coercion."""


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
            if "/" in x:
                return self(Fraction(x))
            return int(x) % self.p
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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

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
            return Fraction(x)
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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

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
