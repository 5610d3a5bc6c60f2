"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities by definition-level enumeration:
no cascade arithmetic, no shadow formulas, no closed forms.  Tests freeze
expected values from these, then check the fast paths against them.  The
exceptions are searches the package used to run: reference_sweep takes
the shadow bound of each size from that size's own cascade form,
independently of the incremental bound kept by the production sweep;
reference_measure_search finds the measure optima by branch and bound
over up-closed families, with no layer profiles;
reference_optimal_profiles walks every layer profile with no completion
bound; and reference_up_sets lists up-sets by profile without the
dead-family cut.  window writes out, digit by digit, the size windows
that the window conditions of regions are about.  The region references
at the end evaluate each side of a predicate's comparison at 50 digits
instead of in doubles.
"""

import decimal
import functools
import itertools
import math
from fractions import Fraction


def pascal_binom(n, k):
    """C(n, k) by the Pascal recurrence only."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def colex_sorted_subsets(n, u):
    """All u-subsets of [n] ordered by descending-tuple comparison."""
    combos = itertools.combinations(range(1, n + 1), u)
    return sorted(combos, key=lambda c: tuple(reversed(c)))


def brute_shadow(sets_of_ints, v):
    """v-shadow by direct subset enumeration."""
    out = set()
    for s in sets_of_ints:
        for sub in itertools.combinations(sorted(s), v):
            out.add(frozenset(sub))
    return out


def all_cascade_sequences(m, u):
    """Every decreasing sequence with consecutive levels summing to m.

    The search runs over all (a_u, a_{u-1}, ..., a_{u-t}) with
    a_u > a_{u-1} > ... > a_{u-t} >= u-t >= 1 and sum C(a_i, i) = m,
    which is the uniqueness oracle for the cascade form.
    """
    from math import comb

    results = []

    def extend(prefix, lev, remaining, a_cap):
        if remaining == 0:
            results.append(tuple(prefix))
            return
        if lev < 1:
            return
        a = lev
        while comb(a, lev) <= remaining and a < a_cap:
            prefix.append((a, lev))
            extend(prefix, lev - 1, remaining - comb(a, lev), a)
            prefix.pop()
            a += 1

    extend([], u, m, 10**9)
    return results


def brute_max_product(n, k, l):
    """M(n, k, l) by trying every subset of the k-layer (tiny n only)."""
    ksets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    lsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), l)]
    best = 0
    for bits in range(1, 1 << len(ksets)):
        fam_a = [ksets[i] for i in range(len(ksets)) if bits >> i & 1]
        fam_b = [b for b in lsets if all(b & a for a in fam_a)]
        best = max(best, len(fam_a) * len(fam_b))
    return best


def brute_measure(masks, n, p):
    """Biased measure of a family of masks: the sum of p^|S| (1-p)^(n-|S|)."""
    p = Fraction(p)
    return sum(
        (p ** bin(s).count("1") * (1 - p) ** (n - bin(s).count("1")) for s in masks),
        Fraction(0),
    )


def brute_measure_product(n, alpha, beta):
    """Measure maximum over all cross-intersecting pairs of families, n <= 3.

    Completely assumption-free: enumerates both families over all
    2^(2^n) subsets of the power set.
    """
    subsets = list(range(1 << n))
    best = Fraction(0)
    for bits_a in range(1, 1 << len(subsets)):
        fam_a = [s for i, s in enumerate(subsets) if bits_a >> i & 1]
        fam_b = [t for t in subsets if all(t & s for s in fam_a)]
        best = max(best, brute_measure(fam_a, n, alpha) * brute_measure(fam_b, n, beta))
    return best


def blocking_measure_pair(n, j):
    """The j-th blocking pair over all of 2^[n], as two lists of masks.

    The first family is every set that contains 1 or meets [j+2] in
    exactly [j+2] minus 1; the second is every set that contains 1 and
    meets [j+2] in more than 1.
    """
    prefix = (1 << (j + 2)) - 1
    sets = range(1 << n)
    return (
        [s for s in sets if s & 1 or s & prefix == prefix - 1],
        [s for s in sets if s & 1 and s & prefix != 1],
    )


def achieving_pair(n, k, l, m):
    """The colex pair for first-family size m, as two lists of frozensets.

    The first family is the complements of the first m (n-k)-sets in colex
    order; the second is every l-set outside the l-shadow of those
    (n-k)-sets, which for l = n-k is the sets themselves.
    """
    ground = frozenset(range(1, n + 1))
    segment = [frozenset(s) for s in colex_sorted_subsets(n, n - k)[:m]]
    forbidden = brute_shadow(segment, l)
    lsets = map(frozenset, itertools.combinations(sorted(ground), l))
    return [ground - s for s in segment], [b for b in lsets if b not in forbidden]


def window(kind, n, k, l, i, epsilon):
    """X, Y, the two x levels and the integer x range of one size window.

    Kinds C, A and B take t = 1, 2, 3 prefix terms.  X sums the first t
    cascade digits of the first family's size, the second at
    C(n-i, n-k-1); Y is the matching bound on the second family.  Over
    the window the size product is (X + C(x, n-k-t)) (Y - C(x, l-t)).
    """
    t = {"C": 1, "A": 2, "B": 3}[kind]
    digits = [(n - 1, n - k, l - 1), (n - i, n - k - 1, l - 1), (n - i - 1, n - k - 2, l - 2)]
    digits = digits[:t]
    x_sum = sum(math.comb(a, u) for a, u, _ in digits)
    y_sum = math.comb(n - 1, l - 1) - sum(math.comb(a, v) for a, _, v in digits[1:])
    return x_sum, y_sum, n - k - t, l - t, range(n - k - t, n - i - epsilon + 1)


@functools.lru_cache(maxsize=None)
def up_closed_families(n):
    """Every up-closed family on [n], as frozensets of masks (n <= 4).

    Filters all 2^(2^n) families of subsets for closure under adding one
    element.
    """
    size = 1 << n
    found = []
    for bits in range(1 << size):
        fam = frozenset(m for m in range(size) if bits >> m & 1)
        if all(m | 1 << e in fam for m in fam for e in range(n)):
            found.append(fam)
    return found


def reference_measure_optima(n, alpha, beta):
    """The measure maximum over up-closed families, with every optimal pair.

    Each up-closed A is paired with its largest compatible partner, the
    sets whose complement is not in A.  Returns the maximum value and the
    set of optimal pairs, each as the minimal members of A and of B, by the
    definition: members with no other member inside them.  A member is a
    frozenset of elements 1..n.
    """
    full = (1 << n) - 1

    def minimal(fam):
        return frozenset(
            frozenset(e + 1 for e in range(n) if m >> e & 1)
            for m in fam
            if not any(t != m and t & m == t for t in fam)
        )

    best, optima = None, []
    for fam_a in up_closed_families(n):
        fam_b = frozenset(t for t in range(full + 1) if full ^ t not in fam_a)
        value = brute_measure(fam_a, n, alpha) * brute_measure(fam_b, n, beta)
        if best is None or value > best:
            best, optima = value, [(fam_a, fam_b)]
        elif value == best:
            optima.append((fam_a, fam_b))
    return best, {(minimal(a), minimal(b)) for a, b in optima}


def reference_measure_search(n, alpha, beta, leaves=None):
    """The measure oracle as an exact branch-and-bound over up-closed families.

    Depth-first extension over subset masks in descending order, include
    first, so families are met in descending int order; a mask may join
    only when its one-element supersets all have.  The star value seeds the
    bound cut, and ties with the best are kept, so the first WITNESS_CAP
    optimal families are reported in that order.  A list passed as
    `leaves` receives every up-closed family the walk completes, and then
    nothing is cut, so it receives all of them.
    """
    from itertools import accumulate

    from crossint.oracle import WITNESS_CAP, OracleResult, _witness_pair

    alpha, beta = Fraction(alpha), Fraction(beta)
    p, q = alpha.numerator, alpha.denominator
    r, s = beta.numerator, beta.denominator
    size = 1 << n
    counts = [mask.bit_count() for mask in range(size)]
    # numerators of mu_alpha and of mu_{1-beta}
    weight_a = [p**c * (q - p) ** (n - c) for c in counts]
    weight_b = [(s - r) ** c * r ** (n - c) for c in counts]
    total_b = s**n
    # open_a[m]: the most the still undecided masks m, m-1, ..., 0 can add
    open_a = list(accumulate(weight_a))
    # up[m]: the one-element supersets of m, as family bits
    up = [
        sum(1 << (mask | 1 << e) for e in range(n) if not mask >> e & 1)
        for mask in range(size)
    ]
    # the stars achieve alpha * beta, which seeds the branch-and-bound cut
    best = p * q ** (n - 1) * r * s ** (n - 1)
    winners = []
    truncated = False

    def search(mask, fam, num_a, num_b):
        nonlocal best, winners, truncated
        if mask < 0:
            if leaves is not None:
                leaves.append(fam)
            value = num_a * (total_b - num_b)
            if value > best:
                best, winners, truncated = value, [fam], False
            elif value == best:
                if len(winners) < WITNESS_CAP:
                    winners.append(fam)
                else:
                    truncated = True
            return
        if leaves is None and (num_a + open_a[mask]) * (total_b - num_b) < best:
            return
        if fam & up[mask] == up[mask]:
            search(
                mask - 1, fam | 1 << mask, num_a + weight_a[mask], num_b + weight_b[mask]
            )
        search(mask - 1, fam, num_a, num_b)

    search(size - 1, 0, 0, 0)
    value = Fraction(best, q**n * total_b)
    witnesses = {
        "optimal_count": len(winners) if not truncated else f">{WITNESS_CAP}",
        "pairs": [_witness_pair(bits, n) for bits in winners],
    }
    return OracleResult(
        value, witnesses, "enumeration", {"n": n, "alpha": str(alpha), "beta": str(beta)}
    )


def reference_optimal_profiles(n, weight_a, weight_b, total_b):
    """Max of num_a * (total_b - num_b) over the profiles of up-sets, with every argmax.

    The profile walk the measure oracle ran before its completion bound:
    every profile Kruskal-Katona allows is visited, a_n first, each a_c
    in ascending order, and the table over[c][x], the fewest (c+1)-sets
    lying over x c-sets, is rebuilt on each call.
    """
    from crossint.cascade import shadow_lower_bound

    # over[c][x]: the fewest (c+1)-sets lying over x c-sets; a_n is 0 or 1
    over = [
        [0] + [shadow_lower_bound(x, n - c, n - c - 1) for x in range(1, math.comb(n, c) + 1)]
        for c in range(n - 1)
    ] + [[0] + [1] * n, [0, 0]]
    profile = [0] * (n + 1)
    best, optimal = -1, []

    def walk(c, above, num_a, num_b):
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


def reference_up_sets(n, profile, limit):
    """The first `limit` up-sets with layer profile `profile`, as family ints.

    The listing walk the measure oracle ran before its dead-family cut:
    depth-first over subset masks in descending order, include first; a
    mask joins only when its one-element supersets all have (one AND
    against up[mask]) and its layer still needs members; it is left out
    only when enough of its layer is still undecided to meet the quota.
    """
    # up[m]: the one-element supersets of m, as family bits
    up = [
        sum(1 << (mask | 1 << e) for e in range(n) if not mask >> e & 1)
        for mask in range(1 << n)
    ]
    need = list(profile)
    left = [math.comb(n, c) for c in range(n + 1)]
    found = []

    def walk(mask, fam):
        if mask < 0:
            found.append(fam)
            return
        c = mask.bit_count()
        left[c] -= 1
        if need[c] and fam & up[mask] == up[mask]:
            need[c] -= 1
            walk(mask - 1, fam | 1 << mask)
            need[c] += 1
        if left[c] >= need[c] and len(found) < limit:
            walk(mask - 1, fam)
        left[c] += 1

    walk((1 << n) - 1, 0)
    return found


def reference_witness_pair(bits, n):
    """The minimal members of an up-closed A and of its largest partner B.

    A member is minimal when removing any one of its elements leaves the
    family; B is every S whose complement [n] minus S is not in A.  Members
    are tuples of elements 1..n in ascending mask order.
    """
    full = (1 << n) - 1

    def minimal(fam):
        return [
            tuple(e + 1 for e in range(n) if mask >> e & 1)
            for mask in range(full + 1)
            if fam >> mask & 1
            and not any(fam >> (mask ^ 1 << e) & 1 for e in range(n) if mask >> e & 1)
        ]

    b_bits = sum(1 << mask for mask in range(full + 1) if not bits >> (full ^ mask) & 1)
    return {"a_min": minimal(bits), "b_min": minimal(b_bits)}


def reference_sweep(n, k, l):
    """Max of m * (C(n,l) - shadow bound of m) over m = 1..C(n,k), with all argmax m.

    Nothing carries over from one m to the next: each m is decomposed afresh.
    """
    from crossint.cascade import cascade_decompose

    u, drop = n - k, n - k - l
    best, wits = -1, []
    for m in range(1, math.comb(n, k) + 1):
        pairs = cascade_decompose(m, u).pairs
        shadow = sum(math.comb(a, lev - drop) for a, lev in pairs if lev >= drop)
        val = m * (math.comb(n, l) - shadow)
        if val > best:
            best, wits = val, [m]
        elif val == best:
            wits.append(m)
    return best, wits


# ---------------------------------------------------------------------------
# Region predicates at 50 digits
# ---------------------------------------------------------------------------
#
# Each function returns both sides of one comparison a region predicate
# makes, evaluated from the exact inputs: Fractions for the polynomial
# tests, decimal's ln and exp at REFERENCE_DIGITS digits for the log ones.
# The relative gap between the sides says how far a point lies from that
# boundary.

REFERENCE_DIGITS = 50


def _digits():
    ctx = decimal.Context(prec=REFERENCE_DIGITS)
    return decimal.localcontext(ctx)


def _dec(x):
    if isinstance(x, Fraction):
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    return +decimal.Decimal(x)


def relative_gap(lhs, rhs):
    """|lhs - rhs| / max(|lhs|, |rhs|): how far two sides lie from a tie."""
    with _digits():
        lhs, rhs = _dec(lhs), _dec(rhs)
        larger = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / larger if larger else decimal.Decimal(0)


def reference_boundary_sides(alpha, beta, j):
    """(1 + (1-a) a^j)(1 - (1-b)^(j+1)) against 1, exactly."""
    a, b = Fraction(alpha), Fraction(beta)
    return (1 + (1 - a) * a**j) * (1 - (1 - b) ** (j + 1)), Fraction(1)


def reference_e(alpha, j):
    """e_j(a) = 1 - (a^j (1-a) / (1 + a^j (1-a)))^(1/(j+1))."""
    with _digits():
        a = decimal.Decimal(alpha)
        t = a**j * (1 - a)
        return 1 - ((t.ln() - (1 + t).ln()) / (j + 1)).exp()


def reference_tail_floor(alpha, j):
    """The lower bound 1 - (a^j (1-a))^(1/(j+1)) on e_j."""
    with _digits():
        a = decimal.Decimal(alpha)
        return 1 - ((a**j * (1 - a)).ln() / (j + 1)).exp()


def reference_envelope(alpha):
    """min over j >= 0 of e_j(alpha), walked until the tail floor reaches it,
    and the j whose floor did.

    The floor increases in j for alpha < 1/2, so no later curve lies below.
    """
    best = None
    for j in itertools.count():
        curve = reference_e(alpha, j)
        best = curve if best is None else min(best, curve)
        if reference_tail_floor(alpha, j) >= best:
            return best, j


def reference_delta_prime_sides(alpha, beta):
    """The linear test (2-a) b < 1, then the log test of Delta'."""
    a, b = Fraction(alpha), Fraction(beta)
    with _digits():
        da, db = decimal.Decimal(alpha), decimal.Decimal(beta)
        log_test = ((1 - da) * -(1 - db).ln(), (1 - db) * -da.ln())
    return [((2 - a) * b, Fraction(1)), log_test]


def reference_window_sides(alpha, beta, i, epsilon, kind):
    """The window-product inequality of one kind, each side multiplied out.

    The kinds compare, for C, A and B,
        (1-b)^-(i-1) lb  against  la / (a^(i-2) (1-a)),
        (1 - (1-b)^(i-1)) lb / (b (1-b)^(i-2+e))
            against  (1 + a^(i-2) (1-a)) la / (a^(i-3+e) (1-a)^2),
        (1 - (1-b)^(i-1) - b (1-b)^(i-1)) lb / (b^2 (1-b)^(i-3+e))
            against  (1 + (1-a) a^(i-2) + (1-a)^2 a^(i-2)) la / ((1-a)^3 a^(i-4+e)),
    with la = log(1/a) and lb = log(1/(1-b)).  Every denominator is moved
    to the other side, and kinds A and B are multiplied by a, so that no
    power is negative.
    """
    a, b = Fraction(alpha), Fraction(beta)
    abar, bbar = 1 - a, 1 - b
    e = epsilon or 0
    if kind == "C":
        lhs, rhs = abar * a ** (i - 2), bbar ** (i - 1)
    elif kind == "A":
        lhs = (1 - bbar ** (i - 1)) * abar**2 * a ** (i - 2 + e)
        rhs = (1 + a ** (i - 2) * abar) * a * b * bbar ** (i - 2 + e)
    else:
        lhs = (1 - bbar ** (i - 1) - b * bbar ** (i - 1)) * abar**3 * a ** (i - 3 + e)
        rhs = (1 + abar * a ** (i - 2) + abar**2 * a ** (i - 2)) * a * b**2 * bbar ** (
            i - 3 + e
        )
    with _digits():
        la = -decimal.Decimal(alpha).ln()
        lb = -(1 - decimal.Decimal(beta)).ln()
        return _dec(lhs) * lb, _dec(rhs) * la


def reference_tail_bound_sides(t, alpha, beta):
    """(1 + (1-a) + ... + (1-a)^t) b^(t-1) against 1, exactly."""
    a, b = Fraction(alpha), Fraction(beta)
    return sum((1 - a) ** p for p in range(t + 1)) * b ** (t - 1), Fraction(1)


def reference_i0_sides(alpha, i_max):
    """For i = 2 .. i_max, both sides of the window test that i0 scans:

        (1 + a^(i-2) (1-a)) log(1/(1 - e_{i-2}(a)))  against  log(1/a).
    """
    with _digits():
        a = decimal.Decimal(alpha)
        log_a, log_abar = a.ln(), (1 - a).ln()
        sides = []
        for j in range(i_max - 1):
            inner = 1 + a**j * (1 - a)
            log_inv_one_minus_e = -(j * log_a + log_abar - inner.ln()) / (j + 1)
            sides.append((inner * log_inv_one_minus_e, -log_a))
        return sides


def reference_root(sides, lo, hi):
    """The last float x in [lo, hi] on lo's side of the comparison sides(x).

    Bisects down to adjacent floats, so sides(x) are as close as two
    doubles can put them: a point on that boundary.
    """
    lhs, rhs = sides(lo)
    lo_below = lhs < rhs
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lhs, rhs = sides(mid)
        if (lhs < rhs) == lo_below:
            lo = mid
        else:
            hi = mid
    return lo
