"""Boundary curves and region predicates in the (alpha, beta) parameter square.

Omega is the open triangle alpha > 0, beta > 1/2, alpha + beta < 1 where
the maximum measure product is unresolved.  For each j >= 0 the j-th
blocking pair beats the star pair once beta reaches the curve

    e_j(alpha) = 1 - (a^j (1-a) / (1 + a^j (1-a)))^(1/(j+1)),

so the candidate region Delta is the part of Omega lying strictly below
every e_j.  Membership is decided finitely, by one walk over the curves:
it keeps their running minimum until the lower bound
e_j >= 1 - (a^j (1-a))^(1/(j+1)), which increases to 1 - alpha, reaches
it, so no later curve lies below.  Beta is then compared with that
certified minimum alone; the walk stops by e_8 for alpha <= 0.49.

The integer-side analogues C1 and C2 (exact rational evaluations) and the
strengthened region Delta' defined by (2-a) b < 1 together with
(1-a) log(1/(1-b)) < (1-b) log(1/a) live here too, as do the asymptotic
conditions under which a window of first-family sizes keeps its size
product below the star product; the window index i0 is found by a walk
that stops where its test turns monotone.

Every verdict on computed floats goes through one near-boundary rule,
`_below`: lhs < rhs is decided only when |lhs - rhs| > DEFAULT_TOL *
max(|lhs|, |rhs|), and raises UndecidableAtTolerance otherwise.  Raw
inputs compare exactly; curve values are computed without the band.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    CapacityError,
    CertificationError,
    NotFoundError,
    UndecidableAtTolerance,
)
from .exactarith import DEFAULT_TOL, bisect

#: The envelope walk gives up unless a tail floor by e_DEFAULT_J_CAP certifies it.
DEFAULT_J_CAP = 64
#: Most alphas one curve table may hold; every row is built in memory.
MAX_GRID = 10**5
#: Largest n condition_c2 takes; its harmonic sums grow O(n) Fractions whose
#: denominators keep growing, about 0.25 s at the cap.
MAX_C2_N = 10**4


def _below(lhs: float, rhs: float, what: str) -> bool:
    """lhs < rhs under the near-boundary rule.

    Inside the band it raises UndecidableAtTolerance naming `what`.
    """
    if abs(lhs - rhs) > DEFAULT_TOL * max(abs(lhs), abs(rhs)):
        return lhs < rhs
    message = f"{what}: {lhs!r} vs {rhs!r}, within relative {DEFAULT_TOL}"
    raise UndecidableAtTolerance(message)


def in_omega(alpha: float, beta: float) -> bool:
    """The open triangle where the maximum is unresolved."""
    return alpha > 0 and beta > 0.5 and alpha + beta < 1


def in_omega_prime(n: int, k: int, l: int) -> bool:
    """Integer analogue: k > 0, l > n/2, k + l < n."""
    return k > 0 and 2 * l > n and k + l < n


def _log_one_minus_e(alpha: float, j: int) -> float:
    """log(1 - e_j(alpha)), computed in the log domain to survive large j."""
    inner = alpha**j * (1.0 - alpha)
    return (j * math.log(alpha) + math.log1p(-alpha) - math.log1p(inner)) / (j + 1)


def e_j(alpha: float, j: int) -> float:
    """Threshold curve: the j-th blocking pair wins exactly when beta >= e_j."""
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    return 1.0 - math.exp(_log_one_minus_e(alpha, j))


def _e_tail_floor(alpha: float, j: int) -> float:
    """Lower bound 1 - (a^j (1-a))^(1/(j+1)) <= e_j, increasing to 1 - alpha."""
    return 1.0 - math.exp((j * math.log(alpha) + math.log1p(-alpha)) / (j + 1))


def _envelope(alpha: float) -> tuple[float, int, int]:
    """Certified min over all j >= 0 of e_j(alpha), the first j attaining it,
    and the j whose tail floor certified it.

    The floor increases in j, so once it reaches the running minimum no
    later curve can lie below that minimum.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"need 0 < alpha < 1/2, got {alpha}")
    best, first = math.inf, 0
    for j in range(DEFAULT_J_CAP + 1):
        curve = e_j(alpha, j)
        if curve < best:
            best, first = curve, j
        if _e_tail_floor(alpha, j) >= best:
            return best, first, j
    raise CertificationError(
        f"minimum over e_j not certified for alpha={alpha} within j <= {DEFAULT_J_CAP}"
    )


def delta_report(alpha: float, beta: float) -> dict:
    """Detailed membership certificate for the region below every e_j.

    Beta is compared with the certified minimum of the curves (see
    `_envelope`): it lies below every e_j exactly when it lies below that
    minimum.  checked_j counts the curves evaluated, tail_certified_at is
    the j whose tail floor certified the minimum, min_margin is the
    minimum minus beta, and violating_j, when beta is not below, is the
    first curve attaining the minimum.
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
    value, first, certified = _envelope(alpha)
    holds = _below(beta, value, f"Delta at ({alpha}, {beta})")
    report.update(
        holds=holds,
        checked_j=certified + 1,
        tail_certified_at=certified,
        min_margin=value - beta,
        violating_j=None if holds else first,
    )
    return report


def in_delta(alpha: float, beta: float) -> bool:
    """Strict membership below every curve e_j (finitely certified)."""
    return delta_report(alpha, beta)["holds"]


def delta_boundary(alpha: float) -> float:
    """Certified value of min over all j >= 0 of e_j(alpha)."""
    return _envelope(alpha)[0]


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


def _delta_prime_log_sides(alpha: float, beta: float) -> tuple[float, float]:
    """Both sides of the Delta' log test (1-a) log(1/(1-b)) < (1-b) log(1/a)."""
    la, lb = math.log(1.0 / alpha), math.log(1.0 / (1.0 - beta))
    return (1.0 - alpha) * lb, (1.0 - beta) * la


def in_delta_prime(alpha: float, beta: float) -> bool:
    """Strengthened region: (2-a) b < 1 and (1-a) log(1/(1-b)) < (1-b) log(1/a)."""
    if not in_omega(alpha, beta):
        return False
    what = f"Delta' at ({alpha}, {beta})"
    linear = _below((2.0 - alpha) * beta, 1.0, what)
    return linear and _below(*_delta_prime_log_sides(alpha, beta), what)


def delta_prime_boundary(alpha: float) -> float:
    """Upper beta limit of the strengthened region at this alpha.

    The logarithmic condition is strictly increasing in beta, so its root
    is found by bisection and then capped by the linear condition.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")

    def below(b: float) -> bool:
        lhs, rhs = _delta_prime_log_sides(alpha, b)
        return lhs < rhs

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
    g(j) = L + t (j la + lb + L) < la - lb, and la - lb > 0 for a < 1/2.
    For j >= 1, g strictly decreases to 0: t, L and j a^j all fall, since
    (j + 1) a < j.  So the walk ends at the first j >= 1 that passes.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"need 0 < alpha < 1/2, got {alpha}")
    log_inv_alpha = -math.log(alpha)
    what = f"window condition of i0 at alpha = {alpha}"
    last_fail = None
    for j in itertools.count():
        lhs = -(1.0 + alpha**j * (1.0 - alpha)) * _log_one_minus_e(alpha, j)
        if not _below(lhs, log_inv_alpha, what):
            last_fail = j + 2
        elif j >= 1:
            return 2 if last_fail is None else last_fail + 1


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
    ab, bb = 1.0 - alpha, 1.0 - beta
    la, lb = -math.log(alpha), -math.log1p(-beta)
    # the first factor as 1 - (1-b)^(i-2) + (1-b)^(i-2) b^(t-1): no cancellation
    first = -math.expm1(-(i - 2) * lb) + bb ** (i - 2) * beta ** (t - 1)
    lhs = first * lb * ab**t * alpha ** (i - t + e)
    growth = 1.0 + alpha ** (i - 2) * sum(ab**s for s in range(1, t))
    rhs = growth * la * alpha * beta ** (t - 1) * bb ** (i - t + e)
    return _below(lhs, rhs, f"window bound {kind}({i}, {e}) at ({alpha}, {beta})")


def tail_bound(t: int, alpha: float, beta: float) -> bool:
    """Coarse cut for deep windows: (1 + (1-a) + ... + (1-a)^t) b^(t-1) < 1."""
    if t < 4:
        raise ValueError(f"need t >= 4, got {t}")
    gamma = sum((1.0 - alpha) ** p for p in range(t + 1))
    return _below(gamma * beta ** (t - 1), 1.0, f"tail bound {t} at ({alpha}, {beta})")


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
