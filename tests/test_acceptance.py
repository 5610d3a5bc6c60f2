"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; plain  pytest  runs the same checks.
"""

import itertools
import math
from fractions import Fraction

from crossint.cascade import (
    _advance,
    _digits,
    cascade_decompose,
    fractional_cascade,
    lovasz_bound,
    truncate_cascade,
)
from crossint.exactarith import binom, binom_ratio
from crossint.families import colex_masks, measure_aj, measure_bj
from crossint.oracle import (
    conjecture_scan,
    max_product_cascade,
    max_product_enumeration,
    measure_oracle,
)
from crossint.regions import (
    condition_c1,
    condition_c2,
    curve_samples,
    cusp_constants,
    delta_report,
    delta_sample,
    e_crossing,
    e_j,
    i0,
    in_delta,
    product_bound_condition,
    tail_bound,
)

from support import all_cascade_sequences


def _criterion(number, name):
    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        runner.__name__ = fn.__name__
        return runner

    return wrap


@_criterion(1, "cascade soundness and uniqueness")
def test_criterion_01():
    for u in range(1, 9):
        digits = _digits(1, u)
        for m in range(1, 20_001):
            form = cascade_decompose(m, u)  # constructor enforces invariants
            assert form.value == m
            assert list(form.pairs) == digits  # incremental counter agrees
            _advance(digits)
    for u in range(1, 6):
        for m in range(1, 501):
            assert len(all_cascade_sequences(m, u)) == 1, (m, u)


@_criterion(2, "shadow tightness at n <= 12")
def test_criterion_02():
    # shadows of colex segments do not depend on the ambient ground set, so
    # running the largest case n = 12 covers every smaller n as well
    n = 12
    for u in range(2, n):
        masks = list(colex_masks(n, u))
        fractional = {}
        forms = {}
        for v in range(1, u):
            seen = set()
            digits = _digits(1, u)
            for m, mask in enumerate(masks, start=1):
                elements = [e + 1 for e in range(n) if mask >> e & 1]
                for sub in itertools.combinations(elements, v):
                    seen.add(sub)
                drop = u - v
                bound = sum(binom(a, lev - drop) for a, lev in digits)
                assert len(seen) == bound, (m, u, v)
                if m not in fractional:
                    fractional[m] = fractional_cascade(m, u)
                    form = cascade_decompose(m, u)
                    forms[m] = (
                        truncate_cascade(form, 1) if form.t >= 2 else None
                    )
                assert lovasz_bound(fractional[m], v) <= bound + 1e-9
                if forms[m] is not None:
                    assert lovasz_bound(forms[m], v) <= bound + 1e-9
                _advance(digits)


@_criterion(3, "oracle cross-agreement")
def test_criterion_03():
    checked = 0
    for n in range(2, 9):
        for k in range(1, n):
            if binom(n, k) > 21:
                continue
            for l in range(1, n):
                enum = max_product_enumeration(n, k, l)
                sweep = max_product_cascade(n, k, l)
                assert enum.value == sweep.value, (n, k, l)
                checked += 1
    assert checked >= 90


@_criterion(4, "star optimality at (20, 5, 11)")
def test_criterion_04():
    assert condition_c1(20, 5, 11)
    assert condition_c2(20, 5, 11)
    result = max_product_cascade(20, 5, 11)
    assert result.value == 358_057_128 == binom(19, 4) * binom(19, 10)
    assert [w["a_size"] for w in result.witnesses] == [3876]
    report = conjecture_scan(20, 5, 11)["oracle"]
    assert report["unique_size"] and report["star_forced"]


@_criterion(5, "known regimes at n <= 10")
def test_criterion_05():
    for n in range(2, 11):
        for k in range(1, n):
            for l in range(1, n):
                if n >= 2 * max(k, l):
                    value = max_product_cascade(n, k, l).value
                    assert value == binom(n - 1, k - 1) * binom(n - 1, l - 1)
            l = n - k
            if 1 <= l <= n - 1:
                value = max_product_cascade(n, k, l).value
                half = binom(n, k)
                assert value == (half // 2) * ((binom(n, l) + 1) // 2)


@_criterion(6, "measure maximum at desk scale")
def test_criterion_06():
    for n in range(1, 6):
        assert measure_oracle(n, Fraction(1, 4), Fraction(11, 20)).value == Fraction(
            11, 80
        )
        assert measure_oracle(n, Fraction(2, 7), Fraction(4, 7)).value == Fraction(
            8, 49
        )


@_criterion(7, "necessity of the region condition")
def test_criterion_07():
    alpha, beta = Fraction(1, 5), Fraction(3, 5)
    blocked = measure_aj(alpha, 0) * measure_bj(beta, 0)
    assert blocked == Fraction(81, 625) > Fraction(3, 25) == alpha * beta
    assert not in_delta(0.2, 0.6)
    report = delta_report(0.25, 0.55)
    assert report["holds"]
    # e_0 .. e_2 are walked; the floor under e_2 certifies their minimum
    assert report["checked_j"] == 3
    assert report["tail_certified_at"] == 2


@_criterion(8, "constants")
def test_criterion_08():
    alpha4, beta4 = e_crossing(4)
    assert abs(alpha4 - 0.386) <= 1e-3
    assert abs(beta4 - 0.562) <= 1e-3
    alpha_t, beta_t = cusp_constants()
    assert abs(e_j(alpha_t, 0) - (2 - math.sqrt(2))) <= 1e-12
    assert abs(e_j(alpha_t, 1) - (2 - math.sqrt(2))) <= 1e-12
    assert beta_t**3 < 0.21
    assert 6 * beta_t**4 < 1
    assert tail_bound(4, alpha_t, beta_t)
    assert tail_bound(5, alpha_t, beta_t)


@_criterion(9, "finite-size ratio convergence")
def test_criterion_09():
    target = Fraction(3, 16)  # alpha * (1 - alpha) at alpha = 1/4
    errors = {}
    for n in (512, 4096):
        k = n // 4
        errors[n] = abs(binom_ratio(n, k, 2, 1) - target)
    assert errors[4096] < Fraction(1, 100) * target
    assert errors[4096] < errors[512]


@_criterion(10, "window conditions on a region sample")
def test_criterion_10():
    points = delta_sample(50)
    assert len(points) == 50
    for alpha, beta in points:
        assert product_bound_condition(alpha, beta, 2, 1, "A")
        assert product_bound_condition(alpha, beta, 3, 1, "A")
        assert product_bound_condition(alpha, beta, 2, 2, "B")
        assert product_bound_condition(alpha, beta, i0(alpha), None, "C")
    for alpha, beta in points:
        if alpha > 0.23:
            assert product_bound_condition(alpha, beta, 3, 1, "B")


@_criterion(11, "figure data")
def test_criterion_11():
    header, rows = curve_samples("ej", 100)
    assert header == ["alpha", "value", "label"]
    e0 = [(a, v) for a, v, lab in rows if lab == "e0"]
    e1 = {a: v for a, v, lab in rows if lab == "e1"}
    alpha_t, _ = cusp_constants()
    signs = [(a, v - e1[a]) for a, v in e0]
    assert all(g < 0 for a, g in signs if a < alpha_t)
    assert all(g > 0 for a, g in signs if a > alpha_t)

    _, delta_rows = curve_samples("delta", 100)
    _, prime_rows = curve_samples("delta-prime", 100)
    assert all(
        p[1] <= d[1] + 1e-9 for d, p in zip(delta_rows, prime_rows)
    )
    # deterministic fixtures: regenerating gives identical tables
    assert rows == curve_samples("ej", 100)[1]
    assert delta_rows == curve_samples("delta", 100)[1]
