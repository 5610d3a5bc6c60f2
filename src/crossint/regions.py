"""Boundary curves and region predicates in the (alpha, beta) parameter square.

Omega is the open triangle alpha > 0, beta > 1/2, alpha + beta < 1 where
the maximum measure product is unresolved.  For each j >= 0 the j-th
blocking pair beats the star pair once beta reaches the curve

    e_j(alpha) = 1 - r_j^(1/(j+1)),  r_j = t_j / (1 + t_j),  t_j = a^j (1-a),

so the candidate region Delta is the part of Omega lying strictly below
every e_j.  One finite walk over the curves certifies their minimum (see
`_envelope`), and beta is compared with it alone; the walk stops by e_8
for alpha <= 0.49.

The integer-side analogues C1 and C2 (exact rational evaluations) and the
strengthened region Delta' defined by (2-a) b < 1 together with
(1-a) log(1/(1-b)) < (1-b) log(1/a) live here too, as do the asymptotic
conditions under which a window of first-family sizes keeps its size
product below the star product; the window index i0 is found by a walk
that stops where its test turns monotone.

Every predicate reads its point as exact rationals (a float is one) and
decides it with no tolerance band: polynomial tests in integers or
Fraction, tests between logarithms by `_logs_below`.  A point on a
boundary is not below it.  Curve values (e_j, the tables) stay floats.
"""

from __future__ import annotations

import itertools
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

from .errors import CapacityError, NotFoundError
from .exactarith import DEFAULT_TOL, bisect

#: Most digits `_logs_below` tries (30, 120, 480, 1920); an exact tie costs 0.5 s.
MAX_LOG_DIGITS = 2000
#: Most alphas one curve table may hold; every row is built in memory.
MAX_GRID = 10**5
#: Largest n condition_c2 takes; its harmonic sums grow O(n) Fractions whose
#: denominators keep growing, about 0.25 s at the cap.
MAX_C2_N = 10**4


def _logs_below(lhs, rhs, what: str, logs: dict | None = None) -> bool:
    """Decide sum(c log x for c, x in lhs) < the same sum over rhs, where
    each c >= 0 and x > 0 is an int or a Fraction.

    The gap is evaluated in decimal at 30 digits, then four times as many
    each round.  At p digits each quotient, product and sum rounds by at
    most 5 * 10^-p relatively and Decimal.ln is correctly rounded, so with
    a few terms the gap is off by under 10^(2-p) sum(c (|log x| + 1)); it
    decides once it exceeds ten times that.  An exact tie never does: past
    MAX_LOG_DIGITS digits this raises CapacityError naming `what`.
    `logs` maps (digits, x) to log x at that precision; each distinct x
    is taken once per round, and a caller deciding many tests over the
    same x passes one dict to all of them.
    """
    logs = {} if logs is None else logs
    digits = 30
    while digits <= MAX_LOG_DIGITS:
        with localcontext(Context(digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            gap = size = Decimal(0)
            for sign, terms in ((1, lhs), (-1, rhs)):
                for c, x in terms:
                    coefficient = Decimal(c.numerator) / c.denominator
                    log = logs.get((digits, x))
                    if log is None:
                        log = (Decimal(x.numerator) / x.denominator).ln()
                        logs[digits, x] = log
                    gap += sign * coefficient * log
                    size += coefficient * (abs(log) + 1)
            if abs(gap) > size.scaleb(3 - digits):
                return gap < 0
        digits *= 4
    raise CapacityError(f"{what}: not decided within {MAX_LOG_DIGITS} digits")


def in_omega(alpha: float, beta: float) -> bool:
    """The open triangle where the maximum is unresolved."""
    a, b = Fraction(alpha), Fraction(beta)
    return a > 0 and 2 * b > 1 and a + b < 1


def in_omega_prime(n: int, k: int, l: int) -> bool:
    """Integer analogue: k > 0, l > n/2, k + l < n."""
    return k > 0 and 2 * l > n and k + l < n


def e_j(alpha: float, j: int) -> float:
    """Threshold curve: the j-th blocking pair wins exactly when beta >= e_j."""
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    # log(1 - e_j) in the log domain, to survive large j
    inner = alpha**j * (1.0 - alpha)
    log = (j * math.log(alpha) + math.log1p(-alpha) - math.log1p(inner)) / (j + 1)
    return 1.0 - math.exp(log)


def _envelope(alpha: float) -> tuple[int, int, int, int]:
    """(first, certified, N_f, D_f): the first j attaining min_j e_j(alpha),
    the j whose tail floor certified it, and r_f = N_f / D_f.

    With alpha = p/q, N_j = p^j (q-p) = t_j q^(j+1) and D_j = q^(j+1) + N_j,
    e_i < e_f iff r_i^(f+1) > r_f^(i+1), and the floor 1 - t_j^(1/(j+1)) <= e_j
    reaches e_f iff t_j^(f+1) <= r_f^(j+1): integer cross-products.  The
    floor rises to 1 - a (t_j^(1/(j+1)) = a ((1-a)/a)^(1/(j+1)) falls to a),
    so no later curve lies below a minimum it reaches, and it reaches one:
    e_j < 1 - a iff a^(j+1) (1-a) < 1 - 2a, true from some j on.
    """
    p, q = alpha.as_integer_ratio()
    if not 0 < 2 * p < q:
        raise ValueError(f"need 0 < alpha < 1/2, got {float(alpha)}")
    num, scale = q - p, q
    first, first_num, first_den = 0, num, scale + num
    for j in itertools.count():
        lead = num ** (first + 1)
        ref_num, ref_den = first_num ** (j + 1), first_den ** (j + 1)
        if lead * ref_den > ref_num * (scale + num) ** (first + 1):
            first, first_num, first_den = j, num, scale + num
        elif lead * ref_den <= ref_num * scale ** (first + 1):
            return first, j, first_num, first_den
        num, scale = num * p, scale * q


def delta_report(alpha: float, beta: float) -> dict:
    """Detailed membership certificate for the region below every e_j.

    Beta lies below every e_j exactly when it lies below their certified
    minimum e_f (see `_envelope`): (1-b)^(f+1) > r_f, in integers.
    checked_j counts the curves walked, tail_certified_at is the j whose
    tail floor certified the minimum, min_margin is the float minimum minus
    beta, and violating_j, when beta is not below, is the first curve
    attaining the minimum.
    """
    report = {
        "alpha": alpha,
        "beta": beta,
        "in_omega": in_omega(alpha, beta),
        "holds": False,
        "checked_j": 0,
        "tail_certified_at": None,
        "min_margin": None,
        "violating_j": None,
    }
    if not report["in_omega"]:
        return report
    first, certified, r_num, r_den = _envelope(alpha)
    holds = (1 - Fraction(beta)) ** (first + 1) * r_den > r_num
    report.update(
        holds=holds,
        checked_j=certified + 1,
        tail_certified_at=certified,
        min_margin=e_j(alpha, first) - beta,
        violating_j=None if holds else first,
    )
    return report


def in_delta(alpha: float, beta: float) -> bool:
    """Strict membership below every curve e_j (finitely certified)."""
    return delta_report(alpha, beta)["holds"]


def delta_boundary(alpha: float) -> float:
    """min over all j >= 0 of e_j(alpha), at the certified first minimizer."""
    return e_j(alpha, _envelope(alpha)[0])


def _check_uniform_params(n: int, k: int, l: int) -> None:
    if not (1 <= k <= n - 1 and 1 <= l <= n - 1):
        raise ValueError(f"need 1 <= k, l <= n-1, got n={n}, k={k}, l={l}")


def condition_c1(n: int, k: int, l: int) -> bool:
    """Exact rational test (1 + (n-k)/(n-1)) (l-1)/(n-1) < 1."""
    _check_uniform_params(n, k, l)
    value = (1 + Fraction(n - k, n - 1)) * Fraction(l - 1, n - 1)
    return value < 1


def condition_c2(n: int, k: int, l: int) -> bool:
    """Exact rational test (n-k) H[n-l, n-2] - (n-l) H[k, n-2] < 0."""
    _check_uniform_params(n, k, l)
    if n > MAX_C2_N:
        raise CapacityError(f"n = {n} exceeds the C2 cap {MAX_C2_N}")
    first = sum(Fraction(1, i) for i in range(n - l, n - 1))
    second = sum(Fraction(1, i) for i in range(k, n - 1))
    return (n - k) * first - (n - l) * second < 0


def in_delta_prime(alpha: float, beta: float) -> bool:
    """Strengthened region: (2-a) b < 1 and (1-a) log(1/(1-b)) < (1-b) log(1/a)."""
    if not in_omega(alpha, beta):
        return False
    a, b = Fraction(alpha), Fraction(beta)
    what = f"Delta' at ({float(a)}, {float(b)})"
    linear = (2 - a) * b < 1
    return linear and _logs_below([(1 - a, 1 / (1 - b))], [(1 - b, 1 / a)], what)


def delta_prime_boundary(alpha: float) -> float:
    """Upper beta limit of the strengthened region at this alpha.

    The logarithmic condition is strictly increasing in beta, so its root
    is found by bisection and then capped by the linear condition.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {float(alpha)}")

    def below(b: float) -> bool:
        la, lb = math.log(1.0 / alpha), math.log(1.0 / (1.0 - b))
        return (1.0 - alpha) * lb < (1.0 - b) * la

    root = bisect(below, DEFAULT_TOL, 1.0 - DEFAULT_TOL)
    return min(root, 1.0 / (2.0 - alpha))


def cusp_constants() -> tuple[float, float]:
    """The cusp of the lower envelope of the e_j curves.

    e_0 and e_1 cross at alpha = 1 - 1/sqrt(2), where both equal
    2 - sqrt(2); below every curve, beta can never exceed that value.
    """
    alpha = 1.0 - 1.0 / math.sqrt(2.0)
    return alpha, 2.0 * alpha


def e_crossing(i: int) -> tuple[float, float]:
    """Solve e_{i-2}(alpha) = e_{i-3}(alpha) for alpha in (0, 1/2).

    Returns (alpha, common curve value).  Defined for i >= 4; consecutive
    curves with those indices are both decreasing, which makes the
    crossing the right place to check the deep-window conditions.
    """
    if i < 4:
        raise ValueError(f"need i >= 4, got {i}")

    def gap(a: float) -> float:
        return e_j(a, i - 2) - e_j(a, i - 3)

    steps = 2048
    lo_edge, hi_edge = 1e-6, 0.5 - 1e-9
    prev_a, prev_g = lo_edge, gap(lo_edge)
    for step in range(1, steps + 1):
        a = lo_edge + (hi_edge - lo_edge) * step / steps
        g = gap(a)
        if prev_g == 0.0:
            return prev_a, e_j(prev_a, i - 2)
        if (prev_g < 0) != (g < 0):
            left_sign = prev_g < 0
            alpha = bisect(lambda x: (gap(x) < 0) == left_sign, prev_a, a)
            return alpha, e_j(alpha, i - 2)
        prev_a, prev_g = a, g
    raise NotFoundError(f"no crossing of e_{i - 2} and e_{i - 3} in (0, 1/2)")


def i0(alpha: float) -> int:
    """Smallest index from which the single-prefix window stays controlled.

    Returns the least i >= 2 such that

        (1 + a^(i-2) (1-a)) log(1/(1 - e_{i-2}(a))) < log(1/a)

    holds for every i' >= i.  With j = i - 2, t = a^j (1-a), la = log(1/a),
    lb = log(1/(1-a)) and L = log(1 + t), the test times j + 1 reads
    (1 + t)(j la + lb + L) < (j + 1) la, that is g(j) = L + t (j la + lb + L)
    < la - lb, and la - lb > 0 for a < 1/2.  For j >= 1, g strictly
    decreases to 0: t, L and j a^j all fall, since (j + 1) a < j.  So the
    walk ends at the first j >= 1 that passes.  Each test is decided by
    `_logs_below`, and the walk takes log(1/a) and log(1/(1-a)) once per
    precision.
    """
    a = Fraction(alpha)
    if not 0 < 2 * a < 1:
        raise ValueError(f"need 0 < alpha < 1/2, got {float(a)}")
    inv_a, inv_abar = 1 / a, 1 / (1 - a)
    what = f"window condition of i0 at alpha = {float(a)}"
    last_fail, t, logs = None, 1 - a, {}
    for j in itertools.count():
        lhs = [((1 + t) * j, inv_a), (1 + t, inv_abar), (1 + t, 1 + t)]
        if not _logs_below(lhs, [(j + 1, inv_a)], what, logs):
            last_fail = j + 2
        elif j >= 1:
            return 2 if last_fail is None else last_fail + 1
        t *= a


# ---------------------------------------------------------------------------
# Window conditions
# ---------------------------------------------------------------------------

_KIND_PREFIX_TERMS = {"C": 1, "A": 2, "B": 3}


def product_bound_condition(
    alpha: float,
    beta: float,
    i: int,
    epsilon: int | None,
    kind: str,
) -> bool:
    """Asymptotic sufficient condition for the window bound to stay below its cap.

    The window product is (X + C(x, n-k-t)) (Y - C(x, l-t)): X sums the
    first t cascade digits of the first family's size, the window index i
    placing the second at C(n-i, n-k-1), Y is the matching second-family
    bound, and x runs up to n - i - e.  When the condition holds, that
    product never exceeds max(XY, value at the right endpoint) for large
    n.  With t = 1, 2, 3 prefix terms for kinds
    C, A, B, e = 0 for C, la = log(1/a) and lb = log(1/(1-b)), it reads
    (1 - (1-b)^(i-1) (1 + b + ... + b^(t-2))) lb (1-a)^t a^(i-t+e) <
    (1 + a^(i-2) ((1-a) + ... + (1-a)^(t-1))) la a b^(t-1) (1-b)^(i-t+e).
    """
    if kind not in _KIND_PREFIX_TERMS:
        raise ValueError(f"kind must be one of A, B, C; got {kind!r}")
    if i < 2:
        raise ValueError(f"need i >= 2, got {i}")
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError(f"point ({alpha}, {beta}) outside (0,1)^2")
    t = _KIND_PREFIX_TERMS[kind]
    if t == 1 and epsilon not in (None, 0):
        raise ValueError("kind C has no epsilon offset")
    if t > 1 and (epsilon is None or epsilon < t - 2):
        raise ValueError(f"kind {kind} needs an epsilon offset >= {t - 2}")
    e = epsilon or 0
    a, b = Fraction(alpha), Fraction(beta)
    abar, bbar = 1 - a, 1 - b
    first = 1 - bbar ** (i - 2) + bbar ** (i - 2) * b ** (t - 1)
    lhs = first * abar**t * a ** (i - t + e)
    growth = 1 + a ** (i - 2) * sum(abar**s for s in range(1, t))
    rhs = growth * a * b ** (t - 1) * bbar ** (i - t + e)
    what = f"window bound {kind}({i}, {e}) at ({float(a)}, {float(b)})"
    return _logs_below([(lhs, 1 / bbar)], [(rhs, 1 / a)], what)


def tail_bound(t: int, alpha: float, beta: float) -> bool:
    """Coarse cut for deep windows: (1 + (1-a) + ... + (1-a)^t) b^(t-1) < 1."""
    if t < 4:
        raise ValueError(f"need t >= 4, got {t}")
    a, b = Fraction(alpha), Fraction(beta)
    return (1 - (1 - a) ** (t + 1)) / a * b ** (t - 1) < 1


# ---------------------------------------------------------------------------
# Sampling and figure data
# ---------------------------------------------------------------------------


def delta_sample(count: int = 50) -> list[tuple[float, float]]:
    """Deterministic sample of points strictly inside the candidate region."""
    alpha_lo, alpha_hi = 0.05, 0.45
    points: list[tuple[float, float]] = []
    slots = max(count // 2, 1)
    for idx in range(slots):
        alpha = alpha_lo + (alpha_hi - alpha_lo) * idx / max(slots - 1, 1)
        hi = min(delta_boundary(alpha), 1.0 - alpha)
        lo = 0.5
        if hi - lo < 0.004:
            continue
        for frac in (0.3, 0.7):
            beta = lo + (hi - lo) * frac
            if in_delta(alpha, beta):
                points.append((alpha, beta))
            if len(points) == count:
                return points
    return points


def curve_samples(
    which: str,
    grid: int,
    *,
    alpha_range: tuple[float, float] = (0.01, 0.49),
) -> tuple[list[str], list[tuple]]:
    """Tabulate figure data; returns (header, rows) with a stable row order.

    which: "ej" for the labelled threshold curves e0 to e5, "delta" for the
    certified lower envelope, "delta-prime" for the strengthened boundary.
    """
    if grid < 2:
        raise ValueError(f"need at least 2 grid points, got {grid}")
    if grid > MAX_GRID:
        raise CapacityError(f"{grid} grid points exceed the grid cap {MAX_GRID}")
    lo, hi = alpha_range
    if not 0 < lo < hi < 1:
        raise ValueError(f"bad alpha range ({lo}, {hi})")
    alphas = [lo + (hi - lo) * idx / (grid - 1) for idx in range(grid)]
    if which == "ej":
        rows = [
            (alpha, e_j(alpha, j), f"e{j}") for j in range(6) for alpha in alphas
        ]
        return ["alpha", "value", "label"], rows
    if which == "delta":
        return ["alpha", "value"], [
            (alpha, delta_boundary(alpha)) for alpha in alphas
        ]
    if which == "delta-prime":
        return ["alpha", "value"], [
            (alpha, delta_prime_boundary(alpha)) for alpha in alphas
        ]
    raise ValueError(f"unknown curve table {which!r}")
