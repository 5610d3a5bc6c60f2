"""Explicit uniform families on [n]: constructors, serialization, and the
closed-form measures of the blocking pairs.

Subsets of [n] = {1, ..., n} are bitmasks (element e is bit e-1) held in
Python ints; ground sets larger than 64 are rejected since all desk-scale
work fits well below that.

Besides stars, the module builds the two j-indexed blocking pairs: the
first family is a star plus every set meeting a (j+2)-prefix in exactly
the prefix minus the star's center, the second is the star minus every
set meeting the prefix in the center alone.  The pairs are
cross-intersecting, and whenever their size (or measure) product reaches
the star product the star pair cannot be the unique optimum; the whole
boundary-region calculus is about when that happens.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CapacityError
from .exactarith import _Frozen, binom

MAX_GROUND_SET = 64
#: Most members a constructor materializes; sizes are known from binomials
#: before any member is built, so an oversized request fails at once.
MAX_MEMBERS = 10**6
#: Most member pairs a cross-intersection test compares, a few seconds' work.
MAX_CROSS_PAIRS = 10**8


def _check_ground(n: int) -> None:
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND_SET}], got {n}")


def _check_members(count: int) -> None:
    if count > MAX_MEMBERS:
        raise CapacityError(f"{count} sets exceed the family cap {MAX_MEMBERS}")


def mask_of(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


class UniformFamily(_Frozen):
    """A family of k-subsets of [n], members stored as bitmasks."""

    __slots__ = ("n", "k", "members")

    def __init__(self, n: int, k: int, members: tuple[int, ...]) -> None:
        self._set_fields(n, k, members)
        _check_ground(self.n)
        if not 0 <= self.k <= self.n:
            raise ValueError(f"uniform size must be in [0, {self.n}], got {self.k}")
        full = (1 << self.n) - 1
        seen = set()
        for m in self.members:
            if m & ~full:
                raise ValueError("member outside the ground set")
            if m.bit_count() != self.k:
                raise ValueError("member of wrong size in uniform family")
            if m in seen:
                raise ValueError("duplicate member")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.members)

    def sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.members]


def colex_masks(n: int, u: int) -> Iterator[int]:
    """All u-subsets of [n] as bitmasks in colex order, which is increasing
    mask order.

    Over the bits taken from high to low, the (n-u)-subsets come out in
    decreasing mask order, so their complements come out increasing.
    """
    if u > n:
        return iter(())
    full = (1 << n) - 1
    high_first = [1 << b for b in reversed(range(n))]
    return (full ^ sum(rest) for rest in itertools.combinations(high_first, n - u))


def colex_segment(m: int, u: int, n: int) -> UniformFamily:
    """The first m u-subsets of [n] in colex order (the shadow minimizer)."""
    _check_ground(n)
    if not 0 <= u <= n:
        raise ValueError(f"need 0 <= u <= n, got u={u}")
    if m < 0:
        raise ValueError(f"need m >= 0 sets, got m={m}")
    if m > binom(n, u):
        raise ValueError(f"requested {m} sets but C({n},{u}) = {binom(n, u)}")
    _check_members(m)
    return UniformFamily(n, u, tuple(itertools.islice(colex_masks(n, u), m)))


def star_uniform(n: int, k: int, center: int) -> UniformFamily:
    """All k-subsets of [n] containing the center element."""
    _check_ground(n)
    if not 1 <= center <= n:
        raise ValueError(f"center {center} outside [1, {n}]")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    _check_members(binom(n - 1, k - 1))
    bit = 1 << (center - 1)
    others = [1 << b for b in range(n) if b != center - 1]
    members = (sum(combo, bit) for combo in itertools.combinations(others, k - 1))
    return UniformFamily(n, k, tuple(members))


def a_family_uniform(n: int, k: int, j: int) -> UniformFamily:
    """Star at 1 plus all k-sets meeting [j+2] in exactly [j+2] \\ {1}."""
    if j < 0 or j + 2 > n:
        raise ValueError(f"need 0 <= j <= n-2, got j={j}, n={n}")
    if k < j + 1:
        raise ValueError(f"need k >= j+1, got k={k}, j={j}")
    _check_ground(n)
    _check_members(binom(n - 1, k - 1) + binom(n - j - 2, k - j - 1))
    block = (1 << (j + 2)) - 2  # [j+2] \ {1}
    outside = [1 << b for b in range(j + 2, n)]
    extra = (sum(combo, block) for combo in itertools.combinations(outside, k - j - 1))
    return UniformFamily(n, k, star_uniform(n, k, 1).members + tuple(extra))


def b_family_uniform(n: int, l: int, j: int) -> UniformFamily:
    """Star at 1 minus all l-sets meeting [j+2] in {1} alone."""
    if j < 0 or j + 2 > n:
        raise ValueError(f"need 0 <= j <= n-2, got j={j}, n={n}")
    prefix = (1 << (j + 2)) - 1
    members = [m for m in star_uniform(n, l, 1).members if m & prefix != 1]
    return UniformFamily(n, l, tuple(members))


def is_cross_intersecting(fam_a: UniformFamily, fam_b: UniformFamily) -> bool:
    """True iff every member of the first family meets every member of the second."""
    if fam_a.n != fam_b.n:
        raise ValueError("families live on different ground sets")
    if len(fam_a) * len(fam_b) > MAX_CROSS_PAIRS:
        raise CapacityError(
            f"{len(fam_a)} x {len(fam_b)} member pairs exceed the cap {MAX_CROSS_PAIRS}"
        )
    for a in fam_a.members:
        for b in fam_b.members:
            if not a & b:
                return False
    return True


def measure_aj(alpha: float | Fraction, j: int) -> float | Fraction:
    """Closed-form measure of the j-th blocking first family: a + (1-a) a^(j+1).

    Exact when alpha is a Fraction.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    return alpha + (1 - alpha) * alpha ** (j + 1)


def measure_bj(beta: float | Fraction, j: int) -> float | Fraction:
    """Closed-form measure of the j-th blocking second family: b - b (1-b)^(j+1).

    Exact when beta is a Fraction.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    return beta - beta * (1 - beta) ** (j + 1)


def _check_text_k(k: int) -> None:
    if k == 0:
        raise ValueError("k = 0: a line of the text format cannot carry the empty set")


def to_text(fam: UniformFamily) -> str:
    """Line format: header "n k", then one sorted subset per line (k >= 1)."""
    _check_text_k(fam.k)
    lines = [f"{fam.n} {fam.k}"]
    for m in fam.members:
        lines.append(" ".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> UniformFamily:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty family file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n k'")
    n, k = int(header[0]), int(header[1])
    _check_ground(n)
    _check_text_k(k)
    # one int per field, checked and set in mask_of as it is read
    members = tuple(mask_of(map(int, ln.split()), n) for ln in lines[1:])
    return UniformFamily(n, k, members)
