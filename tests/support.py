"""Independent brute-force oracles shared by the test modules.

Everything here recomputes quantities by definition-level enumeration:
no cascade arithmetic, no shadow formulas, no closed forms.  Tests freeze
expected values from these, then check the fast paths against them.  The
one exception is reference_sweep, which takes the shadow bound of each
size from that size's own cascade form, independently of the incremental
bound kept by the production sweep.
"""

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


def brute_measure_product(n, alpha, beta):
    """Measure maximum over all cross-intersecting pairs of families, n <= 3.

    Completely assumption-free: enumerates both families over all
    2^(2^n) subsets of the power set.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    subsets = list(range(1 << n))

    def mu(members, p):
        return sum(
            p ** bin(s).count("1") * (1 - p) ** (n - bin(s).count("1"))
            for s in members
        )

    best = Fraction(0)
    for bits_a in range(1, 1 << len(subsets)):
        fam_a = [s for i, s in enumerate(subsets) if bits_a >> i & 1]
        fam_b = [t for t in subsets if all(t & s for s in fam_a)]
        best = max(best, mu(fam_a, alpha) * mu(fam_b, beta))
    return best


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

    def mu(fam, p):
        return sum(
            p ** bin(m).count("1") * (1 - p) ** (n - bin(m).count("1")) for m in fam
        )

    def minimal(fam):
        return frozenset(
            frozenset(e + 1 for e in range(n) if m >> e & 1)
            for m in fam
            if not any(t != m and t & m == t for t in fam)
        )

    alpha, beta = Fraction(alpha), Fraction(beta)
    best, optima = None, []
    for fam_a in up_closed_families(n):
        fam_b = frozenset(t for t in range(full + 1) if full ^ t not in fam_a)
        value = mu(fam_a, alpha) * mu(fam_b, beta)
        if best is None or value > best:
            best, optima = value, [(fam_a, fam_b)]
        elif value == best:
            optima.append((fam_a, fam_b))
    return best, {(minimal(a), minimal(b)) for a, b in optima}


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
