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
one walk over those profiles carrying exact integer numerators over the
fixed denominators q^n and s^n.  The walk tries each layer's count from
the largest allowed down and skips a subtree once even its fullest
completion, with the second measure left where it is, scores strictly
below the best so far: about 120 of the 298 nodes of the whole walk at
n = 5, 450 of 1,806 at n = 6.  The witnesses are then listed profile by
profile, depth first over subset masks in descending order, include
first; a mask left out rules out its one-element subsets, and a branch
ends once some layer has fewer live masks than its quota.  Each family
is one int of 2^n bits, bit m set when mask m is a member; the first
WITNESS_CAP in descending int order are reported, their minimal members
found by whole-family shifts.  The Kruskal-Katona table and the bit
tables of the listing are built once per n and kept; nothing that
depends on the biases is.

k + l > n makes every pair of a k-set and an l-set intersect, so both
oracles short-circuit to C(n,k) * C(n,l) there, refusing layers too
large to print before they are multiplied.  Elsewhere the sweep refuses
a star factor C(n-1,k-1) or C(n-1,l-1) too large to print before it
starts, since the maximum is at least the star product.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce
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

    The shadow bound of m is S(m) = sum of C(a, lev - drop) over the cascade
    digits (a, lev) of m, and _advance moves it by step[lev] =
    C(lev-1, lev-1-drop), where lev is the level of m's last digit.  Above
    level 1, _advance appends the digit (lev-1, lev-1), adding exactly that.
    At level 1 it bumps (a, 1) to (a+1, 1), adding C(a, -drop) = C(0, -drop),
    1 when drop = 0 and 0 otherwise.  Each merge of C(a, j+1) + C(a, j) into
    C(a+1, j+1) leaves S as it was, by Pascal's rule C(a, t) + C(a, t-1) =
    C(a+1, t), which holds for every integer t.  So one addition per size
    keeps S current.
    """
    u, drop = n - k, n - k - l
    layer = binom(n, l)
    # step[x + 1] = C(x, x - drop): 0 below x = drop, 1 at it, and above it
    # C(x, x - drop) = C(x-1, x-1-drop) * x / (x - drop), an exact division
    step, c = [0], 0
    for x in range(u):
        c = 1 if x == drop else c * x // (x - drop)
        step.append(c)
    digits, shadow = [(u, u)], binom(u, l)  # m = 1 is the one digit C(u, u)
    best, wits = -1, []
    for m in range(1, binom(n, k) + 1):
        val = m * (layer - shadow)
        if val > best:
            best, wits = val, [m]
        elif val == best:
            wits.append(m)
        shadow += step[digits[-1][1]]
        _advance(digits)
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


@cache
def _tables(n: int) -> tuple:
    """The Kruskal-Katona and bit tables of [n], built once per n.

    top[c][y] is the largest a_c an up-set allows when a_{c+1} = y: the
    most c-sets whose fewest (c+1)-sets lying over them (the minimum
    (n-c-1)-shadow of their complements, module notes) number at most y.
    Any (n-1)-sets need the full set over them, and a_n is 0 or 1.
    top[c] never decreases in y.  down[m] holds the one-element subsets of
    mask m as family bits, lacks[e] the masks without element e, and
    members[m] the elements of m.  Nothing here depends on a bias, so
    these are the only state kept between calls.
    """
    top = []
    for c in range(n - 1):
        # over[x - 1]: the fewest (c+1)-sets over x c-sets; it never decreases,
        # so the number of x >= 1 with over[x - 1] <= y is the largest such x
        over = [
            shadow_lower_bound(x, n - c, n - c - 1) for x in range(1, binom(n, c) + 1)
        ]
        top.append(tuple(bisect_right(over, y) for y in range(binom(n, c + 1) + 1)))
    top += [(0, n), (1,)]
    # down[m]: the one-element subsets of m, as family bits; for b the lowest
    # bit of m they are m - b and those of m - b with b added
    down = [0] * (1 << n)
    for mask in range(1, 1 << n):
        b = mask & -mask
        down[mask] = down[mask ^ b] << b | 1 << (mask ^ b)
    every = (1 << (1 << n)) - 1
    # lacks[e]: the masks without e as family bits, 2^e set then 2^e clear
    lacks = tuple(every // ((1 << (1 << e)) + 1) for e in range(n))
    members = tuple(elements_of(mask) for mask in range(1 << n))
    return tuple(top), tuple(down), lacks, members


def _optimal_profiles(
    n: int, weight_a: list[int], weight_b: list[int], total_b: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Max of num_a * (total_b - num_b) over the profiles of up-sets, with every argmax.

    (a_0, ..., a_n) is the profile of some up-set on [n] exactly when
    a_c <= top[c][a_{c+1}] for each c (see `_tables`).  One walk picks
    a_n, ..., a_0, each from its largest allowed value down, carrying
    num_a = sum a_c * weight_a[c] and num_b alike.  reach[c][y], the most
    layers c, ..., 0 can add to num_a under a_{c+1} = y, comes from the
    fullest chain, since top never decreases; num_b can stay as it is, as
    lower layers may be empty.  A subtree whose (num_a + reach) *
    (total_b - num_b) is strictly below the best value so far is skipped,
    so every tie is kept.  That bound holds when every weight is >= 0 and
    total_b >= num_b at every leaf, as it does for the bias numerators of
    `measure_oracle` (the full layers sum to s^n) and for the weights
    C(N-n, k-c), C(N-n, l-n+c) over C(N, l) of lifting an up-set on [n]
    to k-sets and l-sets of [N] (Vandermonde).  The optimal profiles come
    out in ascending order of (a_n, ..., a_0).
    """
    top = _tables(n)[0]
    reach, below = [], (0, 0)  # a_0 is 0 or 1, and no layer lies below it
    for c, row in enumerate(top):
        below = tuple(x * weight_a[c] + below[x] for x in row)
        reach.append(below)
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
        if (num_a + reach[c][above]) * (total_b - num_b) < best:
            return
        for x in range(top[c][above], -1, -1):
            profile[c] = x
            walk(c - 1, x, num_a + x * weight_a[c], num_b + x * weight_b[c])

    walk(n, 0, 0, 0)
    optimal.reverse()  # the walk met them in descending order
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
    down = _tables(n)[1]
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

    Finds every optimal layer profile an up-set can have by a bounded
    walk (lossless; see module notes), then lists the up-sets of those
    profiles by a quota-cut walk, keeping each family as one int and its
    measures as exact integer numerators.  Witnesses are the antichains of
    minimal members of each optimal pair.
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
    config = {"n": n, "alpha": exact_text(alpha), "beta": exact_text(beta)}
    return OracleResult(value, witnesses, "enumeration", config)


def _witness_pair(bits: int, n: int) -> dict:
    """Antichains generating an optimal up-closed pair.

    A left shift by 2^e adds e to each mask without e, so a member of F is
    minimal unless it is in OR_e (F & lacks[e]) << 2^e.  B, the sets whose
    complement is not in A, is ~A reversed over 2^n bits: m -> full ^ m.
    """
    _, _, lacks, members = _tables(n)
    every = (1 << (1 << n)) - 1

    def minimal(fam: int) -> list[tuple[int, ...]]:
        low = fam
        for e, without in enumerate(lacks):
            low &= ~((fam & without) << (1 << e))
        out = []
        while low:
            bit = low & -low
            out.append(members[bit.bit_length() - 1])
            low ^= bit
        return out

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
    extra_a, extra_b = binom(n - 2, k - 1), binom(n - 2, l - 1)
    for j in range(degenerate_from):
        size_a, size_b = star_a + extra_a, star_b - extra_b
        holds = size_a * size_b < star_product
        checked.append(
            {"j": j, "product": exact_text(size_a * size_b), "holds": holds}
        )
        if not holds and first_violation is None:
            first_violation = j
        # m = n-j-2 >= l-1 > 0: C(m-1, s-1) = C(m, s) s/m, C(m-1, r) = C(m, r) (m-r)/m
        extra_a = extra_a * (k - j - 1) // (n - j - 2)
        extra_b = extra_b * (n - j - 1 - l) // (n - j - 2)
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
