"""Exact scalar arithmetic over the rationals and prime fields.

A rational scalar is an `int` when it is integral and a
`fractions.Fraction` otherwise, so integer structure constants never pay
for `Fraction` arithmetic.  Equal ints and Fractions compare, hash and
print the same, so printed output does not depend on which one a value
is.  Elements of F_p are plain ints reduced to [0, p).  Every operation is
exact -- there is no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record


# Miller-Rabin on the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


class CharacteristicTooLarge(ValueError):
    def __init__(self, p):
        super().__init__(
            f"characteristic {p} is too large: primality is decided only below 3.3e24"
        )


def normal(c: Fraction):
    """The normal form of a rational: its numerator when integral."""
    return c.numerator if c.denominator == 1 else c


def _is_prime(n: int) -> bool:
    """Exact for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """The ground field: characteristic 0 means Q, otherwise F_p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= MAX_CHARACTERISTIC:
            raise CharacteristicTooLarge(p)
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, value):
        """Coerce an int, Fraction or 'p/q' string into the field."""
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                return self.div(self.of(int(num)), self.of(int(den)))
            value = int(value)
        if self.characteristic == 0:
            return normal(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator % self.characteristic
            return self.div(self.of(value.numerator), self.of(value.denominator))
        return value % self.characteristic

    # The normal form of a result c: `c % p` over F_p; over Q an int is
    # already normal, and only a result that a Fraction took part in can be
    # integral, so `c if c.__class__ is int else normal(c)`.  The vector
    # kernels of `linear.py` inline this rule for speed.

    def add(self, a, b):
        c = a + b
        if self.characteristic:
            return c % self.characteristic
        return c if c.__class__ is int else normal(c)

    def sub(self, a, b):
        c = a - b
        if self.characteristic:
            return c % self.characteristic
        return c if c.__class__ is int else normal(c)

    def mul(self, a, b):
        c = a * b
        if self.characteristic:
            return c % self.characteristic
        return c if c.__class__ is int else normal(c)

    def neg(self, a):
        if self.characteristic:
            return (-a) % self.characteristic
        return -a if a.__class__ is int else normal(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return normal(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return "Q" if self.is_rationals else f"F{self.characteristic}"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
