"""Exact maximum-product oracles for cross-intersecting families.

Uniform side.  The cascade sweep maximizes m * (C(n,l) - minimum l-shadow
of m (n-k)-sets) over all m: the shadow of the complements of the first
family is forbidden to the second family, which makes the expression an
upper bound for every cross-intersecting pair, and complementing a colex
segment attains it, so the sweep maximum is exactly M(n,k,l).  The sweep
alone decides every reported maximum and, through its witness list, every
scan verdict on whether stars are the unique optimum.
The enumeration oracle instead scores every subset of the k-layer against
the largest compatible second family; exponential, but free of any shadow
reasoning, so it is an independent cross-check of the sweep, run only by
`mnkl --method enum|both` and by the tests.  It needs only the standard
library: it counts each l-set under the mask of k-sets it meets, then
takes superset sums over 2^C(n,k) 32-bit lanes packed 4096 to a Python
int, shifting and masking inside each int for the low 12 index bits and
adding whole ints for the rest.

Measure side.  The search space shrinks losslessly to up-closed
(monotone) families: up-closing the first family preserves
cross-intersection and never lowers a biased measure, and the best second
family is then determined pointwise, because a set B is compatible with
an up-closed family exactly when the complement of B is not a member.
The objective collapses to mu_alpha(A) * (1 - mu_{1-beta}(A)), and both
measures depend only on the layer profile of A, the number a_c of its
members of size c.  Kruskal-Katona, applied to the complements (a
down-set), says exactly which profiles up-sets have, so the maximum is
one walk over those profiles (96 at n = 5, 553 at n = 6) carrying exact
integer numerators over the fixed denominators q^n and s^n.  The
witnesses are then listed profile by profile, depth first over subset
masks in descending order, include first; a mask left out rules out its
one-element subsets, and a branch ends once some layer has fewer live
masks than its quota.  Each family is one int of 2^n bits, bit m set when
mask m is a member; the first WITNESS_CAP in descending int order are
reported, their minimal members found by whole-family shifts.

k + l > n makes every pair of a k-set and an l-set intersect, so both
oracles short-circuit to C(n,k) * C(n,l) there, refusing layers too
large to print before they are multiplied.  Elsewhere the sweep refuses
a star factor C(n-1,k-1) or C(n-1,l-1) too large to print before it
starts, since the maximum is at least the star product.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Any, Union

from .cascade import _advance, kk_cross_bound, shadow_lower_bound
from .errors import CapacityError
from .exactarith import _Record, binom, binom_exceeds, exact_text
from .families import colex_masks, elements_of
from .regions import _check_uniform_params, in_omega_prime

#: Most first-family sizes the cascade sweep walks; about 50 s of sweeping.
DEFAULT_SWEEP_BUDGET = 10**8
ENUMERATION_CAP = 24
#: The enumeration oracle packs 2^_CHUNK_BITS 32-bit lanes into each int.
_CHUNK_BITS = 12
MEASURE_CAP = 6
WITNESS_CAP = 64


class OracleResult(_Record):
    """A certified maximum with the configurations that achieve it."""

    __slots__ = ("value", "witnesses", "method", "params")

    def __init__(
        self, value: Union[int, Fraction], witnesses: Any, method: str, params: dict
    ) -> None:
        self._set_fields(value, witnesses, method, params)

    def to_dict(self) -> dict:
        out = dict(self.params)
        out["value"] = exact_text(self.value)
        out["witnesses"] = self.witnesses
        out["method"] = self.method
        return out


def _refuse_past_digit_limit(n: int, k: int, l: int) -> None:
    """Refuse when C(n,k) or C(n,l) is past Python's int-to-str digit limit.

    A product with such a factor could never be printed; the test builds
    neither binomial.  A limit of 0 means no limit.
    """
    digits = sys.get_int_max_str_digits()
    if digits and (
        binom_exceeds(n, k, 10**digits) or binom_exceeds(n, l, 10**digits)
    ):
        raise CapacityError(
            f"C({n},{k}) * C({n},{l}) has a factor past the {digits}-digit limit"
        )


def _full_layers(n: int, k: int, l: int) -> tuple[int, int, int]:
    """C(n,k), C(n,l) and their product, the optimum when k + l > n."""
    _refuse_past_digit_limit(n, k, l)
    size_a, size_b = binom(n, k), binom(n, l)
    return size_a, size_b, size_a * size_b


def _sweep(n: int, k: int, l: int) -> tuple[int, list[int]]:
    """Max of m * kk_cross_bound over m = 1..C(n,k), with every argmax m.

    The shadow bound is additive over cascade digits and _advance rewrites
    only the last digit, so shadow[i], the bound of the first i digits, is
    kept current with one table lookup per size instead of being re-summed.
    """
    u, drop = n - k, n - k - l
    layer = binom(n, l)
    # Digits strictly decrease from a top digit of at most n, so a digit
    # (a, lev) of any m <= C(n,k) has lev <= a <= k + lev; the size _advance
    # emits after the last one needs a = k + lev + 1 only for C(n+1, 1) when
    # u = 1.  Row lev holds C(a, lev - drop) at index a - lev for those k + 2
    # values of a.  No row evaluates a binomial: with t = lev - drop, C(lev, t)
    # comes from the previous row's first entry C(lev-1, t-1) times lev/t,
    # and the row goes on by C(a+1, t) = C(a, t) * (a+1)/(a+1-t); both
    # divisions are exact, and t <= 0 gives a row of 1s or 0s.
    term = [[]]
    first = binom(0, -drop)
    for lev in range(1, u + 1):
        t = lev - drop
        first = first * lev // t if t > 0 else binom(lev, t)
        row = [first]
        for a in range(lev, lev + k + 1):
            row.append(row[-1] * (a + 1) // (a + 1 - t))
        term.append(row)
    digits, depth = [(u, u)], 1  # m = 1 is the one digit C(u, u)
    shadow = [0] * (u + 1)
    shadow[1] = term[u][0]
    best, wits = -1, []
    for m in range(1, binom(n, k) + 1):
        val = m * (layer - shadow[depth])
        if val > best:
            best, wits = val, [m]
        elif val == best:
            wits.append(m)
        _advance(digits)
        depth = len(digits)
        a, lev = digits[-1]
        shadow[depth] = shadow[depth - 1] + term[lev][a - lev]
    return best, wits


def max_product_cascade(n: int, k: int, l: int) -> OracleResult:
    """M(n, k, l) by sweeping every first-family size against the shadow bound."""
    _check_uniform_params(n, k, l)
    params = {"n": n, "k": k, "l": l}
    if k + l > n:
        size_a, size_b, value = _full_layers(n, k, l)
        return OracleResult(
            value, [{"a_size": size_a, "b_size": size_b}], "cascade", params
        )
    if binom_exceeds(n, k, DEFAULT_SWEEP_BUDGET):
        raise CapacityError(
            f"sweep over C({n},{k}) sizes exceeds the budget of {DEFAULT_SWEEP_BUDGET}"
        )
    # M(n,k,l) is at least the star product C(n-1,k-1) * C(n-1,l-1)
    _refuse_past_digit_limit(n - 1, k - 1, l - 1)
    best, wits = _sweep(n, k, l)
    return OracleResult(
        best,
        [{"a_size": m, "b_size": kk_cross_bound(n, k, l, m)} for m in wits],
        "cascade",
        params,
    )


def max_product_enumeration(n: int, k: int, l: int) -> OracleResult:
    """M(n, k, l) by exhausting all 2^C(n,k) first families.

    For each subset S of the k-layer, the best second family is every
    l-set meeting all chosen members, g(S) of them, and the oracle
    maximizes |S| * g(S).  Witness structure is summarized (count, sizes,
    whether only stars attain the maximum).
    """
    _check_uniform_params(n, k, l)
    params = {"n": n, "k": k, "l": l}
    if k + l > n:
        size_a, _, value = _full_layers(n, k, l)
        return OracleResult(
            value,
            {"optimal_count": 1, "optimal_sizes": [size_a], "all_stars": False},
            "enumeration",
            params,
        )
    if binom_exceeds(n, k, ENUMERATION_CAP):
        raise CapacityError(f"C({n},{k}) exceeds enumeration cap {ENUMERATION_CAP}")
    nk = binom(n, k)
    # stars[e]: bit i set when the i-th k-set contains element e, so the
    # k-sets an l-set meets are the OR of its elements' stars
    stars = [0] * n
    for idx, kset in enumerate(colex_masks(n, k)):
        for e in elements_of(kset):
            stars[e - 1] |= 1 << idx
    counts = array("I", [0]) * (1 << nk)
    for chosen in combinations(stars, l):
        counts[reduce(or_, chosen)] += 1
    # g[S] = number of l-sets meeting every k-set indexed by S, the sum of
    # counts over supersets of S.  Lane j of chunks[c] holds index
    # (c << low) + j, and clear[b] keeps the lanes whose index has bit b
    # clear.  No sum carries out of a lane: every lane stays below
    # C(n,k) * C(n,l) < 2^31 here, scores included.
    low = min(nk, _CHUNK_BITS)
    width = 4 << low
    clear = [
        int.from_bytes(
            (b"\xff" * (4 << b) + bytes(4 << b)) * (1 << (low - b - 1)), "little"
        )
        for b in range(low)
    ]
    if sys.byteorder == "big":
        counts.byteswap()
    view = memoryview(counts).cast("B")
    chunks = []
    for at in range(0, len(view), width):
        chunk = int.from_bytes(view[at : at + width], "little")
        for b, mask in enumerate(clear):
            chunk += chunk >> (32 << b) & mask
        chunks.append(chunk)
    view.release()
    del counts
    for b in range(nk - low):
        bit = 1 << b
        for c in range(len(chunks)):
            if not c & bit:
                chunks[c] += chunks[c | bit]
    # score |S| * g[S]: the chunk index's popcount times the chunk, plus the
    # chunk once for each low index bit a lane has set.  Bit 31 of a lane of
    # (score | flags) - t * ones is set exactly when the lane holds at least t.
    sets = [mask << (32 << b) for b, mask in enumerate(clear)]
    ones = int.from_bytes(b"\1\0\0\0" * (1 << low), "little")
    flags = ones << 31
    star_set = set(stars)
    best, count, sizes, all_stars = -1, 0, set(), True
    for c, chunk in enumerate(chunks):
        score = c.bit_count() * chunk + sum(chunk & mask for mask in sets)
        above = (score | flags) - (best + 1) * ones & flags
        if not above and not (score | flags) - best * ones & flags:
            continue
        lanes = array("I", score.to_bytes(width, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        if above:
            best, count, sizes, all_stars = max(lanes), 0, set(), True
        j = -1
        for _ in range(lanes.count(best)):
            j = lanes.index(best, j + 1)
            index = (c << low) + j
            count += 1
            sizes.add(index.bit_count())
            all_stars = all_stars and index in star_set
    witnesses: dict[str, Any] = {
        "optimal_count": count,
        "optimal_sizes": sorted(sizes),
        "all_stars": all_stars,
    }
    return OracleResult(best, witnesses, "enumeration", params)


# ---------------------------------------------------------------------------
# Measure oracle over monotone families
# ---------------------------------------------------------------------------


def _optimal_profiles(
    n: int, weight_a: list[int], weight_b: list[int], total_b: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Max of num_a * (total_b - num_b) over the profiles of up-sets, with every argmax.

    (a_0, ..., a_n) is the profile of some up-set on [n] exactly when, for
    each c, the fewest (c+1)-sets lying over a_c c-sets is at most a_{c+1}
    (module notes): the minimum (n-c-1)-shadow of a_c (n-c)-sets, and 1
    for any (n-1)-sets.  One walk picks a_n, ..., a_0, carrying
    num_a = sum a_c * weight_a[c] and num_b alike, so a leaf costs O(1).
    """
    # over[c][x]: the fewest (c+1)-sets lying over x c-sets; a_n is 0 or 1
    over = [
        [0] + [shadow_lower_bound(x, n - c, n - c - 1) for x in range(1, binom(n, c) + 1)]
        for c in range(n - 1)
    ] + [[0] + [1] * n, [0, 0]]
    profile = [0] * (n + 1)
    best, optimal = -1, []

    def walk(c: int, above: int, num_a: int, num_b: int) -> None:
        nonlocal best, optimal
        if c < 0:
            value = num_a * (total_b - num_b)
            if value > best:
                best, optimal = value, [tuple(profile)]
            elif value == best:
                optimal.append(tuple(profile))
            return
        for x, need in enumerate(over[c]):  # over[c] never decreases in x
            if need > above:
                break
            profile[c] = x
            walk(c - 1, x, num_a + x * weight_a[c], num_b + x * weight_b[c])

    walk(n, 0, 0, 0)
    return best, optimal


def _up_sets(n: int, profile: tuple[int, ...], limit: int) -> list[int]:
    """The first `limit` up-sets with layer profile `profile`, as family ints.

    Depth-first over subset masks in descending order, include first, so
    the families come out in descending int order.  A mask left out rules
    out its one-element subsets, down[mask], which join the dead family
    and pass that on when the walk reaches them; a mask joins only when it
    is not dead and its layer still needs members.  live[c] counts the
    undecided masks of layer c that are not dead, and a branch with some
    live[c] below the quota has no completion, so it is cut.  No mask is
    left out once `limit` families are found.
    """
    # down[m]: the one-element subsets of m, as family bits; for b the lowest
    # bit of m they are m - b and those of m - b with b added
    down = [0] * (1 << n)
    for mask in range(1, 1 << n):
        b = mask & -mask
        down[mask] = down[mask ^ b] << b | 1 << (mask ^ b)
    need = list(profile)
    live = [binom(n, c) for c in range(n + 1)]
    found: list[int] = []

    def walk(mask: int, fam: int, dead: int) -> None:
        if mask < 0:
            found.append(fam)
            return
        c = mask.bit_count()
        alive = not dead >> mask & 1
        live[c] -= alive
        if alive and need[c]:
            need[c] -= 1
            walk(mask - 1, fam | 1 << mask, dead)
            need[c] += 1
        if live[c] >= need[c] and len(found) < limit:
            # for mask 0 this reads layer n, whose quota the first step met
            fresh = down[mask] & ~dead
            cut = fresh.bit_count()
            live[c - 1] -= cut
            if live[c - 1] >= need[c - 1]:
                walk(mask - 1, fam, dead | fresh)
            live[c - 1] += cut
        live[c] += alive

    walk((1 << n) - 1, 0, 0)
    return found


def measure_oracle(n: int, alpha: Fraction, beta: Fraction) -> OracleResult:
    """Exact maximum of mu_alpha(A) * mu_beta(B) over cross-intersecting pairs.

    Scores every layer profile an up-set can have (lossless; see module
    notes), then lists the up-sets of the optimal profiles by a quota-cut
    walk, keeping each family as one int and its measures as exact integer
    numerators.  Witnesses are the antichains of minimal members of each
    optimal pair.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("biases must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MEASURE_CAP:
        raise CapacityError(
            f"monotone-family search is capped at n = {MEASURE_CAP}, got {n}"
        )
    p, q = alpha.numerator, alpha.denominator
    r, s = beta.numerator, beta.denominator
    # numerators of mu_alpha and of mu_{1-beta} of one c-set
    weight_a = [p**c * (q - p) ** (n - c) for c in range(n + 1)]
    weight_b = [(s - r) ** c * r ** (n - c) for c in range(n + 1)]
    total_b = s**n
    best, optimal = _optimal_profiles(n, weight_a, weight_b, total_b)
    winners = sorted(
        (fam for profile in optimal for fam in _up_sets(n, profile, WITNESS_CAP + 1)),
        reverse=True,
    )
    value = Fraction(best, q**n * total_b)
    witnesses = {
        "optimal_count": len(winners) if len(winners) <= WITNESS_CAP else f">{WITNESS_CAP}",
        "pairs": [_witness_pair(bits, n) for bits in winners[:WITNESS_CAP]],
    }
    return OracleResult(
        value, witnesses, "enumeration", {"n": n, "alpha": str(alpha), "beta": str(beta)}
    )


def _witness_pair(bits: int, n: int) -> dict:
    """Antichains generating an optimal up-closed pair.

    A left shift by 2^e adds e to each mask without e, so a member of F is
    minimal unless it is in OR_e (F & lacks[e]) << 2^e.  B, the sets whose
    complement is not in A, is ~A reversed over 2^n bits: m -> full ^ m.
    """
    every = (1 << (1 << n)) - 1
    # lacks[e]: the masks without e as family bits, 2^e set then 2^e clear
    lacks = [every // ((1 << (1 << e)) + 1) for e in range(n)]

    def minimal(fam: int) -> list[tuple[int, ...]]:
        low = fam
        for e, without in enumerate(lacks):
            low &= ~((fam & without) << (1 << e))
        return [elements_of(m) for m, bit in enumerate(f"{low:b}"[::-1]) if bit == "1"]

    b_bits = every ^ int(f"{bits:0{1 << n}b}"[::-1], 2)
    return {"a_min": minimal(bits), "b_min": minimal(b_bits)}


# ---------------------------------------------------------------------------
# Conjecture scanning
# ---------------------------------------------------------------------------


def conjecture_scan(n: int, k: int, l: int) -> dict:
    """Evidence report: blocking-pair hypothesis vs. the oracle's verdict.

    The hypothesis asks that every j-indexed blocking pair have a size
    product strictly below the star product.  Pairs j = 0 to
    max(k, n-l) - 1 are checked, each as an exact integer product; from
    j = max(k, n-l) on both perturbation terms vanish and the pair IS the
    star pair, so that tail is degenerate and always certified.
    The verdict is read from the sweep's witness list: in Omega' (k + l < n)
    an optimum of the star size must be a star, by the shadow equality
    condition, so stars are the unique optimum exactly when that is the
    only maximizing size.  Output labels the instance as evidence only;
    nothing here resolves the general question.
    """
    if not in_omega_prime(n, k, l):
        raise ValueError(f"(k, l) = ({k}, {l}) is not in the integer region for n={n}")
    star_a, star_b = binom(n - 1, k - 1), binom(n - 1, l - 1)
    star_product = star_a * star_b
    degenerate_from = max(k, n - l)
    checked = []
    first_violation = None
    for j in range(degenerate_from):
        size_a = star_a + binom(n - j - 2, k - j - 1)
        size_b = star_b - binom(n - j - 2, l - 1)
        holds = size_a * size_b < star_product
        checked.append(
            {"j": j, "product": exact_text(size_a * size_b), "holds": holds}
        )
        if not holds and first_violation is None:
            first_violation = j
    hypothesis = {
        "holds": first_violation is None,
        "first_violation": first_violation,
        "checked_up_to": degenerate_from - 1,
        "degenerate_from": degenerate_from,
        "tail_certified": True,
        "per_j": checked,
    }
    report: dict[str, Any] = {
        "n": n,
        "k": k,
        "l": l,
        "star_product": exact_text(star_product),
        "hypothesis": hypothesis,
    }
    try:
        sweep = max_product_cascade(n, k, l)
        value = exact_text(sweep.value)
    except CapacityError:
        report["oracle"] = None
        report["label"] = "out-of-reach"
        return report
    sizes = [w["a_size"] for w in sweep.witnesses]
    conclusion = sizes == [star_a]
    report["oracle"] = {
        "n": n,
        "k": k,
        "l": l,
        "value": value,
        "maximizing_sizes": sizes,
        "star_size": star_a,
        "unique_size": conclusion,
        "star_forced": conclusion,
    }
    report["conclusion_holds"] = conclusion
    if hypothesis["holds"]:
        report["label"] = "confirming" if conclusion else "refuting"
    else:
        report["label"] = "vacuous"
        report["necessity_consistent"] = not conclusion
    return report
