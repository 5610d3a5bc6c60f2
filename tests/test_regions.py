import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossint import regions
from crossint.errors import CapacityError
from crossint.exactarith import binom
from crossint.families import (
    a_family_uniform,
    b_family_uniform,
    measure_aj,
    measure_bj,
)
from crossint.regions import (
    condition_c1,
    condition_c2,
    curve_samples,
    cusp_constants,
    delta_boundary,
    delta_prime_boundary,
    delta_report,
    delta_sample,
    e_crossing,
    e_j,
    i0,
    in_delta,
    in_delta_prime,
    in_omega,
    in_omega_prime,
    product_bound_condition,
    tail_bound,
)
from support import (
    reference_boundary_sides,
    reference_delta_prime_sides,
    reference_envelope,
    reference_i0_sides,
    reference_root,
    reference_tail_bound_sides,
    reference_window_sides,
    relative_gap,
    window,
)


def test_e_curve_values():
    # e_0 simplifies to 1 / (2 - alpha)
    for alpha in (0.1, 0.25, 0.4):
        assert e_j(alpha, 0) == pytest.approx(1 / (2 - alpha), rel=1e-12)
    assert e_j(0.25, 0) == pytest.approx(0.5714285714285714, abs=1e-12)


def test_e_curves_cross_at_cusp():
    alpha_t, beta_t = cusp_constants()
    assert alpha_t == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)
    assert beta_t == pytest.approx(2 - math.sqrt(2), abs=1e-15)
    assert e_j(alpha_t, 0) == pytest.approx(beta_t, abs=1e-12)
    assert e_j(alpha_t, 1) == pytest.approx(beta_t, abs=1e-12)


def test_e_curve_tends_to_one_minus_alpha():
    # the gap shrinks monotonically in j and passes 1e-6 far out
    alpha = 0.25
    gaps = [abs(e_j(alpha, j) - (1 - alpha)) for j in (50, 200, 2000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(e_j(alpha, 300_000) - (1 - alpha)) < 1e-6


def test_three_way_equivalence():
    rng = random.Random(41)
    for _ in range(300):
        alpha = rng.uniform(0.05, 0.6)
        beta = rng.uniform(0.05, 0.9)
        j = rng.randint(0, 6)
        margin = e_j(alpha, j) - beta
        if abs(margin) < 1e-9:
            continue
        lhs, rhs = reference_boundary_sides(alpha, beta, j)
        bc = lhs < rhs
        measures = measure_aj(alpha, j) * measure_bj(beta, j) < alpha * beta
        assert bc == measures == (margin > 0)


def test_omega_membership():
    assert in_omega(0.25, 0.55)
    assert not in_omega(0.3, 0.5)
    assert not in_omega(0.5, 0.55)
    assert in_omega_prime(20, 5, 11)
    assert not in_omega_prime(20, 5, 10)
    assert not in_omega_prime(20, 9, 11)


def test_in_delta_examples():
    assert in_delta(0.25, 0.55)
    assert not in_delta(0.2, 0.6)
    assert in_delta(2 / 7, 4 / 7)
    assert not in_delta(0.3, 0.5)  # outside the open triangle


def test_in_delta_monotone_in_beta():
    rng = random.Random(43)
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(0.505, 0.94)
        if alpha + beta >= 1:
            continue
        if in_delta(alpha, beta):
            lower = 0.5 + (beta - 0.5) * rng.random()
            if lower > 0.5 + 1e-9:
                assert in_delta(alpha, lower)


def test_in_delta_is_false_on_its_boundary():
    # at alpha = 1/4 the minimum of the curves is e_0 = 1 / (2 - alpha) = 4/7
    alpha, beta = Fraction(1, 4), Fraction(4, 7)
    assert delta_report(alpha, beta)["violating_j"] == 0
    assert not in_delta(alpha, beta)
    assert in_delta(alpha, beta - Fraction(1, 10**30))
    # the nearest double to 4/7 lies on one side of it, and is decided so
    nearest = delta_boundary(0.25)
    assert in_delta(0.25, nearest) == (Fraction(nearest) < beta)
    # the lattice points (k/n, l/n) with (2n - k) l = n^2 lie on e_0
    for alpha, beta in [(Fraction(1, 5), Fraction(5, 9)), (Fraction(1, 8), Fraction(8, 15))]:
        assert beta == 1 / (2 - alpha)
        assert not in_delta(alpha, beta)
        assert in_delta(alpha, beta - Fraction(1, 10**30))


def test_in_delta_needs_enough_curves():
    # certifying the tail this close to 1 - alpha takes more than 5 curves
    report = delta_report(0.499, 0.50062)
    assert report["holds"]
    assert report["tail_certified_at"] > 5
    assert report["tail_certified_at"] == reference_envelope(0.499)[1]
    # and a point between the envelope minimum and its late tail is rejected
    assert not in_delta(0.499, 0.50085)


def test_in_delta_walks_at_most_nine_curves(monkeypatch):
    calls = 0
    curve = regions.e_j

    def counting_e_j(alpha, j):
        nonlocal calls
        calls += 1
        return curve(alpha, j)

    monkeypatch.setattr(regions, "e_j", counting_e_j)
    for alpha in [1e-300, 1e-9] + [i / 1000 for i in range(1, 491)]:
        calls = 0
        report = delta_report(alpha, 0.75 - alpha / 2)  # halfway up the slice
        assert 1 <= report["checked_j"] <= 9, alpha
        # the walk compares integers; only min_margin evaluates a curve
        assert calls == 1, alpha


def test_delta_report_reads_the_envelope():
    rng = random.Random(53)
    decided = 0
    for _ in range(300):
        alpha = rng.uniform(0.01, 0.49)
        beta = rng.uniform(0.5, 1 - alpha)
        if not in_omega(alpha, beta):
            continue
        report = delta_report(alpha, beta)
        decided += 1
        assert report["min_margin"] + beta == delta_boundary(alpha)
        assert report["holds"] == (report["min_margin"] > 0)
        assert report["checked_j"] == report["tail_certified_at"] + 1
        if report["holds"]:
            assert report["violating_j"] is None
        else:
            j = report["violating_j"]
            assert e_j(alpha, j) == delta_boundary(alpha)
            assert all(e_j(alpha, i) > e_j(alpha, j) for i in range(j))
    assert decided > 250


def test_delta_boundary_values():
    assert delta_boundary(0.25) == pytest.approx(e_j(0.25, 0), abs=1e-12)
    alpha_t, beta_t = cusp_constants()
    assert delta_boundary(alpha_t) == pytest.approx(beta_t, abs=1e-12)
    # past the cusp the envelope dips below both e_0 and e_1
    assert delta_boundary(0.45) < min(e_j(0.45, 0), e_j(0.45, 1))


def test_delta_boundary_range_error_prints_alpha_as_a_double():
    # a Fraction prints as the double it denotes, as in i0 and every check
    with pytest.raises(ValueError, match=r"need 0 < alpha < 1/2, got 0\.6$"):
        delta_boundary(Fraction(3, 5))
    with pytest.raises(ValueError, match=r"need 0 < alpha < 1/2, got 0\.5$"):
        delta_boundary(0.5)


def test_delta_prime_boundary_range_error_prints_alpha_as_a_double():
    with pytest.raises(ValueError, match=r"need 0 < alpha < 1, got 1\.5$"):
        delta_prime_boundary(Fraction(3, 2))
    with pytest.raises(ValueError, match=r"need 0 < alpha < 1, got 0\.0$"):
        delta_prime_boundary(0.0)


def test_condition_c1_c2_values():
    assert condition_c1(20, 5, 11)
    assert condition_c2(20, 5, 11)
    value = (1 + Fraction(15, 19)) * Fraction(10, 19)
    assert value == Fraction(340, 361)
    harmonic = 15 * sum(Fraction(1, i) for i in range(9, 19)) - 9 * sum(
        Fraction(1, i) for i in range(5, 19)
    )
    assert harmonic < 0
    assert abs(float(harmonic) + 1.047) < 2e-3


def test_condition_c2_caps_n():
    n = regions.MAX_C2_N
    k, l = n // 4, 3 * n // 5
    # the same harmonic difference in floats; its margin is far from 0 here
    approx = (n - k) * math.fsum(1 / i for i in range(n - l, n - 1)) - (
        n - l
    ) * math.fsum(1 / i for i in range(k, n - 1))
    assert abs(approx) > 1.0
    assert condition_c2(n, k, l) == (approx < 0)
    with pytest.raises(CapacityError, match=f"C2 cap {n}"):
        condition_c2(n + 1, k, l)


@pytest.mark.parametrize("condition", [condition_c1, condition_c2])
@pytest.mark.parametrize("nkl", [(1, 1, 1), (5, 0, 2), (5, 2, 5), (6, 6, 1)])
def test_conditions_reject_out_of_range_parameters(condition, nkl):
    with pytest.raises(ValueError):
        condition(*nkl)


def test_c1_equals_size_comparison():
    # exact equivalence with the j = 0 blocking-pair size test
    for n in range(5, 13):
        for k in range(1, n):
            for l in range(1, n):
                if not in_omega_prime(n, k, l):
                    continue
                lhs = len(a_family_uniform(n, k, 0)) * len(b_family_uniform(n, l, 0))
                rhs = binom(n - 1, k - 1) * binom(n - 1, l - 1)
                assert condition_c1(n, k, l) == (lhs < rhs), (n, k, l)


def test_in_delta_prime_examples():
    assert in_delta_prime(0.25, 0.55)
    assert not in_delta_prime(0.45, 0.54)
    assert not in_delta_prime(0.3, 0.5)


def test_delta_prime_inside_delta():
    for idx in range(100):
        alpha = 0.01 + (0.48 - 0.01) * idx / 99
        assert delta_prime_boundary(alpha) <= delta_boundary(alpha) + 1e-9


def test_cusp_is_crossing_root():
    alpha_t, _ = cusp_constants()
    assert abs(e_j(alpha_t, 0) - e_j(alpha_t, 1)) < 1e-12


def test_e_crossing_values():
    alpha4, beta4 = e_crossing(4)
    assert alpha4 == pytest.approx(0.386, abs=1e-3)
    assert beta4 == pytest.approx(0.562, abs=1e-3)
    alpha5, _ = e_crossing(5)
    alpha6, _ = e_crossing(6)
    assert 1 / math.e < alpha4 < alpha5 < alpha6
    for i in (4, 5, 6):
        alpha, beta = e_crossing(i)
        assert abs(e_j(alpha, i - 2) - e_j(alpha, i - 3)) < 1e-10
        assert beta == pytest.approx(e_j(alpha, i - 2), abs=1e-10)
    with pytest.raises(ValueError):
        e_crossing(3)


def _counting_logs_below(monkeypatch):
    """Record the j of every window test i0 makes.

    Each test compares a sum of logarithms with (j + 1) log(1/alpha), so
    the right side's coefficient gives j.
    """
    calls = []
    original = regions._logs_below

    def counted(lhs, rhs, what, *logs):
        calls.append(rhs[0][0] - 1)
        return original(lhs, rhs, what, *logs)

    monkeypatch.setattr(regions, "_logs_below", counted)
    return calls


def test_i0_scan(monkeypatch):
    # the walk tests j = 0, 1, ... and stops at the first j >= 1 that passes
    calls = _counting_logs_below(monkeypatch)
    first = i0(0.25)
    assert first == 3
    assert calls == [0, 1]
    sides = reference_i0_sides(0.25, 2000)
    assert sides[0][0] >= sides[0][1]
    assert all(lhs < rhs for lhs, rhs in sides[1:])
    with pytest.raises(ValueError):
        i0(0.5)
    with pytest.raises(ValueError):
        i0(0.0)


def test_i0_walk_is_short_up_to_the_edge(monkeypatch):
    # g(j) falls below log((1-a)/a) within about 40 indices up to 0.4999999
    calls = _counting_logs_below(monkeypatch)
    for alpha in [idx / 1000 for idx in range(1, 500)] + [0.4999999]:
        calls.clear()
        first = i0(alpha)
        assert len(calls) <= 40, alpha
        assert calls == list(range(max(first - 1, 2))), alpha


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.45, 0.49, 0.499, 0.4999999])
def test_i0_matches_the_reference_walk_to_2000(alpha):
    sides = reference_i0_sides(alpha, 2000)
    fails = [i for i, (lhs, rhs) in enumerate(sides, start=2) if lhs >= rhs]
    assert i0(alpha) == (fails[-1] + 1 if fails else 2)


def test_i0_condition_approaches_limit_from_below():
    alpha = 0.25
    target = math.log(1 / alpha)

    def lhs(i):
        j = i - 2
        inner = alpha**j * (1 - alpha)
        log_term = -(
            j * math.log(alpha) + math.log1p(-alpha) - math.log1p(inner)
        ) / (j + 1)
        return (1 + inner) * log_term

    assert lhs(500) < target
    assert target - lhs(500) < target - lhs(100) < target - lhs(20)


def test_product_bound_matches_cascade_bound_at_integer_x():
    # at integer x the window product equals m * kk_cross_bound exactly
    from crossint.cascade import kk_cross_bound

    cases = [
        ("C", 20, 5, 11, 3, 0),
        ("C", 16, 4, 9, 2, 0),
        ("A", 20, 5, 11, 4, 0),
        ("A", 18, 5, 10, 3, 1),
        ("B", 20, 5, 11, 3, 1),
        ("B", 22, 6, 12, 2, 2),
    ]
    for kind, n, k, l, i, eps in cases:
        x_sum, y_sum, level_a, level_b, xs = window(kind, n, k, l, i, eps)
        for x in xs:
            m = x_sum + binom(x, level_a)
            assert y_sum - binom(x, level_b) == kk_cross_bound(n, k, l, m), (kind, x)


def test_product_bound_asymptotics_kind_c():
    # near the right endpoint the normalized product approaches the j = i-2
    # blocking measure product; checked at i = 2 against the j = 0 product
    n, alpha, beta = 400, 0.25, 0.55
    k, l = int(alpha * n), int(beta * n)
    x_sum, y_sum, level_a, level_b, _ = window("C", n, k, l, 2, 0)
    product = (x_sum + binom(n - 2, level_a)) * (y_sum - binom(n - 2, level_b))
    ratio = product / (binom(n, k) * binom(n, l))
    target = measure_aj(alpha, 0) * measure_bj(beta, 0)
    assert ratio == pytest.approx(target, rel=0.02)


def test_product_bound_endpoint_below_star_inside_region():
    # F(n - i) < X Y whenever the (i-2)-nd boundary condition holds
    n = 400
    for alpha, beta, i in [(0.25, 0.55, 2), (0.3, 0.56, 3), (0.35, 0.56, 4)]:
        lhs, rhs = reference_boundary_sides(alpha, beta, i - 2)
        assert lhs < rhs
        k, l = int(alpha * n), int(beta * n)
        x_sum, y_sum, level_a, level_b, _ = window("C", n, k, l, i, 0)
        x = n - i
        assert (x_sum + binom(x, level_a)) * (y_sum - binom(x, level_b)) < x_sum * y_sum


def test_window_condition_refuses_an_epsilon_for_kind_c():
    # kind C has one prefix term and no offset
    for epsilon in (7, 1, -1):
        with pytest.raises(ValueError, match="kind C has no epsilon offset"):
            product_bound_condition(0.3, 0.6, 3, epsilon, "C")
    assert product_bound_condition(0.3, 0.6, 3, 0, "C") == product_bound_condition(
        0.3, 0.6, 3, None, "C"
    )


def test_accepted_points_stay_below_cusp():
    # any point below every curve in particular sits below min(e_0, e_1),
    # which never exceeds the cusp height
    _, beta_t = cusp_constants()
    for alpha, beta in delta_sample(50):
        envelope = min(e_j(alpha, 0), e_j(alpha, 1))
        assert beta < envelope
        assert envelope <= beta_t + 1e-12


def test_claim_conditions_on_delta_sample():
    points = delta_sample(50)
    assert len(points) == 50
    assert all(in_delta(a, b) for a, b in points)
    for alpha, beta in points:
        assert product_bound_condition(alpha, beta, 2, 1, "A")
        assert product_bound_condition(alpha, beta, 3, 1, "A")
        assert product_bound_condition(alpha, beta, 2, 2, "B")
        assert product_bound_condition(alpha, beta, i0(alpha), None, "C")
        if alpha > 0.23:
            assert product_bound_condition(alpha, beta, 3, 1, "B")


def test_tail_bound():
    _, beta_t = cusp_constants()
    assert beta_t**3 < 0.21
    assert 6 * beta_t**4 < 1
    assert tail_bound(4, 0.25, beta_t)
    assert tail_bound(5, 0.01, beta_t)
    for t in range(4, 51):
        for alpha, beta in delta_sample(10):
            assert tail_bound(t, alpha, beta)
    with pytest.raises(ValueError):
        tail_bound(3, 0.25, 0.55)


def test_curve_samples_ej():
    header, rows = curve_samples("ej", 50)
    assert header == ["alpha", "value", "label"]
    assert len(rows) == 50 * 6
    e0 = {a: v for a, v, lab in rows if lab == "e0"}
    e1 = {a: v for a, v, lab in rows if lab == "e1"}
    alpha_t, _ = cusp_constants()
    gaps = [(a, e0[a] - e1[a]) for a in sorted(e0)]
    # e_0 below e_1 left of the cusp, above it to the right
    assert all(g < 0 for a, g in gaps if a < alpha_t - 1e-9)
    assert all(g > 0 for a, g in gaps if a > alpha_t + 1e-9)


def test_curve_samples_boundaries():
    header, rows = curve_samples("delta", 40)
    assert header == ["alpha", "value"]
    assert rows[10][1] == pytest.approx(delta_boundary(rows[10][0]))
    header2, rows2 = curve_samples("delta-prime", 40)
    assert all(r2[1] <= r[1] + 1e-9 for r, r2 in zip(rows, rows2))
    with pytest.raises(ValueError):
        curve_samples("nope", 10)
    with pytest.raises(ValueError):
        curve_samples("delta", 1)


def test_curve_samples_cap_grid_before_building(monkeypatch):
    monkeypatch.setattr(regions, "MAX_GRID", 10)
    assert len(curve_samples("delta", 10)[1]) == 10
    for which in ("ej", "delta", "delta-prime"):
        with pytest.raises(CapacityError, match="grid cap 10"):
            curve_samples(which, 11)


# ---------------------------------------------------------------------------
# Exact verdicts against the 50-digit reference
# ---------------------------------------------------------------------------

# Below this relative gap the 50-digit reference itself cannot separate
# the sides; every point above it is compared.
REFERENCE_BAND = 1e-40

unit = st.floats(0, 1, exclude_min=True, exclude_max=True)
# (i, epsilon, kind), in the order product_bound_condition takes them
windows = st.one_of(
    st.tuples(st.integers(2, 40), st.none(), st.just("C")),
    st.tuples(st.integers(2, 40), st.integers(0, 3), st.just("A")),
    st.tuples(st.integers(2, 40), st.integers(1, 3), st.just("B")),
)
reference_settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)


@st.composite
def points(draw):
    """Points of (0,1)^2, half of them on or next to a curve e_j."""
    alpha = draw(unit)
    if draw(st.booleans()):
        return alpha, draw(unit)
    curve = e_j(alpha, draw(st.integers(0, 6)))
    nudge = draw(st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-6]))
    beta = curve * (1.0 + draw(st.sampled_from([-nudge, nudge])))
    assume(0 < beta < 1)
    return alpha, beta


def clear(*comparisons):
    return all(relative_gap(lhs, rhs) > REFERENCE_BAND for lhs, rhs in comparisons)


def assert_matches(call, comparisons, expected):
    """Wherever the reference separates the sides, call() gives its verdict."""
    if clear(*comparisons):
        assert call() == expected


@reference_settings
@given(points(), st.integers(4, 60), windows)
def test_verdicts_match_the_reference_outside_the_band(point, t, window_args):
    alpha, beta = point
    for predicate, args, reference in [
        (tail_bound, (t, alpha, beta), reference_tail_bound_sides),
        (product_bound_condition, (alpha, beta, *window_args), reference_window_sides),
    ]:
        sides = reference(*args)
        assert_matches(lambda: predicate(*args), [sides], sides[0] < sides[1])
    if 0 < alpha < 0.5:
        sides = reference_i0_sides(alpha, 1000)
        fails = [i for i, (lhs, rhs) in enumerate(sides, start=2) if lhs >= rhs]
        assert_matches(lambda: i0(alpha), sides, fails[-1] + 1 if fails else 2)
    if not in_omega(alpha, beta):
        assert not in_delta_prime(alpha, beta)
        assert not in_delta(alpha, beta)
        return
    sides = reference_delta_prime_sides(alpha, beta)
    expected = all(lhs < rhs for lhs, rhs in sides)
    assert_matches(lambda: in_delta_prime(alpha, beta), sides, expected)
    envelope, _ = reference_envelope(alpha)
    assert_matches(lambda: in_delta(alpha, beta), [(beta, envelope)], beta < envelope)


@reference_settings
@given(unit, unit, st.integers(4, 200), windows)
def test_every_predicate_decides_every_point_but_an_exact_tie(alpha, beta, t, window_args):
    # the polynomial tests always decide; a log test raises only where its
    # sides are equal, as (1-a) log(1/(1-b)) and (1-b) log(1/a) are at a = b
    assert isinstance(tail_bound(t, alpha, beta), bool)
    assert isinstance(in_delta(alpha, beta), bool)
    calls = [
        (
            lambda: product_bound_condition(alpha, beta, *window_args),
            [reference_window_sides(alpha, beta, *window_args)],
        ),
        (lambda: in_delta_prime(alpha, beta), reference_delta_prime_sides(alpha, beta)),
    ]
    if alpha < 0.5:
        calls.append((lambda: i0(alpha), reference_i0_sides(alpha, 60)))
    for call, comparisons in calls:
        try:
            call()
        except CapacityError:
            assert not clear(*comparisons)


def test_each_predicate_is_decided_on_its_boundary():
    # each point is the last double on one side of a boundary, so the sides
    # differ by a few units in the last place: inside the old 1e-12 band,
    # but far outside the reference's
    log_root = reference_root(
        lambda b: reference_delta_prime_sides(0.45, b)[1], 0.5, 0.55
    )
    i0_jump = reference_root(lambda a: reference_i0_sides(a, 2)[0], 0.2, 0.3)
    gamma = sum(0.5**p for p in range(5))
    tail_beta = gamma ** (-1 / 3)
    sides = reference_i0_sides(i0_jump, 1000)
    fails = [i for i, (lhs, rhs) in enumerate(sides, start=2) if lhs >= rhs]
    # in_delta has its own boundary tests above
    cases = [
        (in_delta_prime, (0.25, 1 / 1.75), reference_delta_prime_sides(0.25, 1 / 1.75)),
        (in_delta_prime, (0.45, log_root), reference_delta_prime_sides(0.45, log_root)),
        (tail_bound, (4, 0.5, tail_beta), [reference_tail_bound_sides(4, 0.5, tail_beta)]),
    ]
    for kind, i, eps in [("C", 2, None), ("C", 5, None), ("A", 2, 1), ("B", 3, 1)]:
        beta = reference_root(
            lambda b: reference_window_sides(0.3, b, i, eps, kind), 0.01, 0.99
        )
        args = (0.3, beta, i, eps, kind)
        cases.append((product_bound_condition, args, [reference_window_sides(*args)]))
    cases.append((i0, (i0_jump,), sides))
    for predicate, args, comparisons in cases:
        gaps = [relative_gap(lhs, rhs) for lhs, rhs in comparisons]
        assert REFERENCE_BAND < min(gaps) < 1e-12, (predicate, args)
        if predicate is i0:
            expected = fails[-1] + 1 if fails else 2
        else:
            expected = all(lhs < rhs for lhs, rhs in comparisons)
        assert predicate(*args) == expected, (predicate, args)


def test_logs_below_raises_past_its_precision_cap_on_an_exact_tie():
    what = "2 log 2 against log 4"
    with pytest.raises(CapacityError, match=f"{what}: not decided within 2000 digits"):
        regions._logs_below([(2, Fraction(2))], [(1, Fraction(4))], what)
    # log(2^100 + 1) exceeds 100 log 2 by about 2^-100: more than 30 digits
    near = [(1, Fraction(2**100 + 1))]
    assert regions._logs_below([(100, 2)], near, "near tie")
    assert not regions._logs_below(near, [(100, 2)], "near tie")
    with decimal.localcontext(decimal.Context(prec=50)):
        assert decimal.Decimal(2**100 + 1).ln() - 100 * decimal.Decimal(2).ln() < 1e-29


def test_logs_below_takes_each_logarithm_once_per_precision():
    # a logarithm already in `logs` is read, not taken again: a wrong one
    # stored there flips the verdict
    assert not regions._logs_below([(1, 2)], [], "log 2 < 0")
    assert regions._logs_below([(1, 2)], [], "log 2 < 0", {(30, 2): decimal.Decimal(-1)})
    # log x + log 2 < 3 log x, decided at 30 digits with x taken once
    x, logs = Fraction(7, 3), {}
    assert regions._logs_below([(1, x), (1, 2)], [(3, x)], "log 2 < 2 log 7/3", logs)
    assert set(logs) == {(30, x), (30, 2)}


def test_i0_takes_its_fixed_logarithms_once_over_its_walk(monkeypatch):
    tables = []
    original = regions._logs_below

    def recorded(lhs, rhs, what, logs):
        tables.append(logs)
        return original(lhs, rhs, what, logs)

    monkeypatch.setattr(regions, "_logs_below", recorded)
    alpha = Fraction(0.45)
    i0(alpha)
    assert len(tables) > 2 and all(logs is tables[0] for logs in tables)
    assert {(30, 1 / alpha), (30, 1 / (1 - alpha))} <= set(tables[0])


def test_window_bound_decides_next_to_its_boundary_at_small_beta():
    # A(2, 0) meets its boundary near beta = 5e-9 when alpha = 1e-10; there
    # 1 - (1-b) taken directly is off by about 1e-8, far outside the band
    alpha = 1e-10
    root = reference_root(
        lambda b: reference_window_sides(alpha, b, 2, 0, "A"), 1e-12, 1e-6
    )
    assert 1e-9 < root < 1e-8
    for beta in (root * (1 - 1e-9), root * (1 + 1e-9)):
        sides = reference_window_sides(alpha, beta, 2, 0, "A")
        assert relative_gap(*sides) > REFERENCE_BAND
        assert product_bound_condition(alpha, beta, 2, 0, "A") == (sides[0] < sides[1])
