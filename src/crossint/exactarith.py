"""Exact and real-argument binomial arithmetic.

Integer quantities (family sizes, shadow sizes, maximum products) live in
Python's arbitrary-precision ints and exact rationals in
``fractions.Fraction``; nothing on that side ever rounds.  The real-valued
side of the calculus (boundary curves, roots) uses doubles, and `bisect`
narrows a root's bracket to ``DEFAULT_TOL``.

The real-argument binomial C(x, t) extends the integer one by the falling
factorial x(x-1)...(x-t+1)/t!, with C(x, 0) = 1 and C(x, t) = 0 for x < t.
For fixed t >= 1 it is continuous and strictly increasing on x >= t, which
makes the inverse problem "find x with C(x, r) = m" solvable by bisection.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable

from .errors import BracketingError, CapacityError

#: The bracket width at which `bisect` stops.
DEFAULT_TOL = 1e-12


class _Record:
    """A value class whose fields are its __slots__: compared and printed by them."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({text})"


class _Frozen(_Record):
    """A record whose fields are set once: assigning one raises, hash is by fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"negative upper index: {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_text(value: int | Fraction) -> str:
    """Decimal text of an exact result.

    Python refuses to convert integers longer than its int-to-str digit
    limit; such a result is past capacity, not a usage error.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise CapacityError(
            f"result exceeds the {sys.get_int_max_str_digits()}-digit limit "
            "for integer string conversion"
        ) from exc


def gen_binom(x: float, t: int) -> float:
    """Real-argument binomial x(x-1)...(x-t+1)/t! for x >= t.

    By convention the value is 1 for t = 0 and exactly 0 for x < t.
    """
    if t < 0:
        raise ValueError(f"negative lower index: {t}")
    if t == 0:
        return 1.0
    if x < t:
        return 0.0
    if float(x).is_integer():
        # exact path; keeps integer evaluations free of product round-off
        try:
            return float(math.comb(int(x), t))
        except OverflowError:
            return math.inf
    return _falling(x, t)


def _falling(x: float, t: int) -> float:
    # Interleave multiplication and division so intermediates stay near the
    # result's magnitude; a plain numerator product overflows much earlier.
    out = 1.0
    for i in range(t):
        out *= (x - i) / (i + 1)
    return out


def binom_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) > cap, without computing C(n, k) when it is huge.

    C(n, i) grows with i up to min(k, n - k), so the multiplicative
    recurrence can stop at the first partial value past the cap.
    """
    k = min(k, n - k)
    if k < 0:
        return False
    value = 1
    for i in range(1, k + 1):
        value = value * (n - i + 1) // i
        if value > cap:
            return True
    return value > cap


def bisect(below: Callable[[float], bool], lo: float, hi: float) -> float:
    """Locate the switch point of a monotone predicate on [lo, hi].

    below(x) must be true left of the switch and false right of it.  The
    bracket is halved until it is no wider than DEFAULT_TOL or no float
    lies strictly inside it; the midpoint is returned.  A finite bracket
    ends within about 1,100 halvings, its width falling from at most
    2^1024 to DEFAULT_TOL; a NaN or infinite one ends at once.
    """
    while hi - lo > DEFAULT_TOL:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def solve_binom_x(m: float, r: int, lo: float, hi: float) -> float:
    """Solve C(x, r) = m for x in [lo, hi] by bisection.

    Requires gen_binom(lo, r) <= m <= gen_binom(hi, r).  The solver works
    on the continuous falling-factorial form, which is strictly increasing
    for x > r - 1 and agrees with gen_binom wherever m >= 1, so the root
    is unique.
    """
    if r < 1:
        raise ValueError(f"lower index must be >= 1: {r}")
    if not (gen_binom(lo, r) <= m <= gen_binom(hi, r)):
        raise BracketingError(
            f"no root of C(x, {r}) = {m} bracketed by [{lo}, {hi}]"
        )
    return bisect(lambda x: _falling(x, r) < m, max(lo, r - 1.0), hi)


def binom_ratio(n: int, k: int, s: int, t: int) -> Fraction:
    """Exact ratio C(n-s, n-k-t) / C(n, k).

    With k close to alpha*n the ratio tends to alpha^(s-t) * (1-alpha)^t
    as n grows, which is how finite size counts connect to the biased
    measures of the perturbed families.
    """
    denom = binom(n, k)
    if denom == 0:
        raise ValueError(f"C({n}, {k}) is zero; ratio undefined")
    return Fraction(binom(n - s, n - k - t), denom)
