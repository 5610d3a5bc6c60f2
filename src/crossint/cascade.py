"""Cascade representations and Kruskal-Katona shadow bounds.

Every integer m >= 1 has a unique u-cascade form

    m = C(a_u, u) + C(a_{u-1}, u-1) + ... + C(a_{u-t}, u-t)

with a_u > a_{u-1} > ... > a_{u-t} >= u-t >= 1 and levels decreasing by
exactly one.  The Kruskal-Katona theorem bounds the v-shadow of any family
of m u-sets from below by the same sum with every level shifted down by
u - v, and colexicographic initial segments attain the bound exactly.

Replacing a tail of the integer form by a single real-argument term
C(x, u-s-1) gives the Lovasz form of the bound: weaker, but a smooth
function of x, which is what the boundary-region calculus needs.

For cross-intersecting families F (u-sets) and G (v-sets) on [n], no
member of G may lie in the v-shadow of the complements of F, so the
shadow bound turns into an upper bound on |G| given |F|; kk_cross_bound
evaluates it, and the bound is attained by complementing a colex segment.
"""

from __future__ import annotations

from .errors import InvalidTruncationError
from .exactarith import _Frozen, binom, gen_binom, solve_binom_x


def _largest_a(m: int, lev: int) -> int:
    """Largest a with C(a, lev) <= m, for m >= 1."""
    # the bracket's offset above lev doubles, so a high level never
    # evaluates C(2 * lev, lev) when the answer is close to lev
    lo, hi = lev, lev + 1
    while binom(hi, lev) <= m:
        lo, hi = hi, lev + 2 * (hi - lev)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom(mid, lev) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def _digits(m: int, u: int) -> list[tuple[int, int]]:
    """Greedy cascade digits [(a_u, u), (a_{u-1}, u-1), ...] of m."""
    digits = []
    rem = m
    lev = u
    while rem > 0:
        a = _largest_a(rem, lev)
        digits.append((a, lev))
        rem -= binom(a, lev)
        lev -= 1
    return digits


def _advance(digits: list[tuple[int, int]]) -> int:
    """Increment the digits of m to those of m + 1 in place; return the new last level.

    Counting in the cascade system: below level 1 a new unit digit is
    appended; at level 1 the digit is bumped, merging with the digit above,
    which sits one level up, via C(a, j+1) + C(a, j) = C(a+1, j+1) whenever
    the two values collide.
    """
    a, lev = digits[-1]
    if lev > 1:
        digits.append((lev - 1, lev - 1))
        return lev - 1
    digits.pop()
    a += 1
    while digits and digits[-1][0] == a:
        digits.pop()
        a += 1
        lev += 1
    digits.append((a, lev))
    return lev


class CascadeForm(_Frozen):
    """The unique cascade representation of an integer at level u."""

    __slots__ = ("u", "pairs")

    def __init__(self, u: int, pairs: tuple[tuple[int, int], ...]) -> None:
        self._set_fields(u, pairs)
        if self.u < 1 or not self.pairs:
            raise ValueError("cascade form needs u >= 1 and at least one term")
        prev_a = None
        for idx, (a, lev) in enumerate(self.pairs):
            if lev != self.u - idx:
                raise ValueError("cascade levels must decrease by exactly one")
            if lev < 1 or a < lev:
                raise ValueError(f"invalid cascade digit C({a}, {lev})")
            if prev_a is not None and a >= prev_a:
                raise ValueError("cascade digits must strictly decrease")
            prev_a = a

    @property
    def t(self) -> int:
        """Depth of the form: levels run from u down to u - t."""
        return len(self.pairs) - 1

    @property
    def value(self) -> int:
        return sum(binom(a, lev) for a, lev in self.pairs)


def cascade_decompose(m: int, u: int) -> CascadeForm:
    """Cascade form of m at level u (greedy; the result is unique)."""
    if m < 1 or u < 1:
        raise ValueError(f"need m >= 1 and u >= 1, got m={m}, u={u}")
    return CascadeForm(u, tuple(_digits(m, u)))


class TruncatedCascade(_Frozen):
    """Cascade form with its tail collapsed into one real-argument term.

    ``pairs`` holds the kept integer digits (levels u down to x_level + 1,
    possibly none), and x satisfies C(x, x_level) = dropped tail sum, with
    a_{x_level} <= x < a_{x_level + 1} whenever digits were actually dropped.
    """

    __slots__ = ("u", "pairs", "x")

    def __init__(self, u: int, pairs: tuple[tuple[int, int], ...], x: float) -> None:
        self._set_fields(u, pairs, x)

    @property
    def x_level(self) -> int:
        return self.u - len(self.pairs)

    @property
    def value(self) -> float:
        return sum(binom(a, lev) for a, lev in self.pairs) + gen_binom(
            self.x, self.x_level
        )


def truncate_cascade(form: CascadeForm, s: int) -> TruncatedCascade:
    """Keep levels u..u-s and solve the dropped tail into one term C(x, u-s-1)."""
    if not 0 < s < form.t:
        raise InvalidTruncationError(
            f"truncation index must satisfy 0 < s < {form.t}, got {s}"
        )
    kept = form.pairs[: s + 1]
    dropped = form.pairs[s + 1 :]
    tail = sum(binom(a, lev) for a, lev in dropped)
    level = form.u - s - 1
    # bracket: C(a_{u-s-1}, level) <= tail < C(a_{u-s}, level)
    x = solve_binom_x(tail, level, float(dropped[0][0]), float(kept[-1][0]))
    return TruncatedCascade(form.u, kept, x)


def fractional_cascade(m: int, u: int) -> TruncatedCascade:
    """Pure fractional form m = C(x, u); exact when m is a single binomial."""
    if m < 1 or u < 1:
        raise ValueError(f"need m >= 1 and u >= 1, got m={m}, u={u}")
    hi = float(u + 1)
    while gen_binom(hi, u) < m:
        hi *= 2
    return TruncatedCascade(u, (), solve_binom_x(float(m), u, float(u), hi))


def shadow_lower_bound(m: int, u: int, v: int) -> int:
    """Exact minimum size of the v-shadow over families of m u-sets.

    Each cascade digit C(a, lev) contributes C(a, lev - (u - v)).  For
    v = u the shadow is the family itself by convention, so the bound
    is m; that convention is what lets the cross bound cover k + l = n.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if not 1 <= v <= u:
        raise ValueError(f"need 1 <= v <= u, got v={v}, u={u}")
    if v == u:
        return m
    drop = u - v
    return sum(binom(a, lev - drop) for a, lev in _digits(m, u))


def lovasz_bound(tc: TruncatedCascade, v: int) -> float:
    """Smooth shadow lower bound from a truncated form.

    Never exceeds shadow_lower_bound for the same represented integer;
    equality holds when the collapsed tail was a single exact term.
    """
    if not 1 <= v < tc.u:
        raise ValueError(f"need 1 <= v < u, got v={v}, u={tc.u}")
    drop = tc.u - v
    total = float(sum(binom(a, lev - drop) for a, lev in tc.pairs))
    tail_level = tc.x_level - drop
    if tail_level >= 0:
        total += gen_binom(tc.x, tail_level)
    return total


def kk_cross_bound(n: int, k: int, l: int, m: int) -> int:
    """Largest possible |B| over l-sets cross-intersecting a family of m k-sets.

    Equals C(n, l) minus the minimum l-shadow of m (n-k)-sets: the shadow
    of the complements of the first family is forbidden to the second.
    Attained by taking the first family to be complements of a colex
    segment and the second to be every l-set outside the segment's shadow.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if not 1 <= l <= n - k:
        raise ValueError(f"need 1 <= l <= n-k, got l={l}, n-k={n - k}")
    if not 1 <= m <= binom(n, k):
        raise ValueError(f"need 1 <= m <= C({n},{k}), got {m}")
    return binom(n, l) - shadow_lower_bound(m, n - k, l)
