import math
import random

import pytest

from crossint.cascade import (
    CascadeForm,
    _advance,
    _digits,
    _largest_a,
    cascade_decompose,
    fractional_cascade,
    kk_cross_bound,
    lovasz_bound,
    shadow_lower_bound,
    truncate_cascade,
)
from crossint.errors import InvalidTruncationError
from crossint.exactarith import binom, gen_binom
from crossint.families import colex_segment

from support import (
    achieving_pair,
    all_cascade_sequences,
    brute_shadow,
    colex_sorted_subsets,
)


def test_decompose_examples():
    assert cascade_decompose(10, 3).pairs == ((5, 3),)
    assert cascade_decompose(17, 3).pairs == ((5, 3), (4, 2), (1, 1))
    assert cascade_decompose(1, 3).pairs == ((3, 3),)


def test_decompose_reconstructs_value():
    rng = random.Random(3)
    for _ in range(300):
        u = rng.randint(1, 8)
        m = rng.randint(1, 50_000)
        form = cascade_decompose(m, u)
        assert form.value == m


def test_decompose_is_unique_small():
    for u in range(1, 5):
        for m in range(1, 121):
            seqs = all_cascade_sequences(m, u)
            assert len(seqs) == 1, (m, u, seqs)
            assert seqs[0] == cascade_decompose(m, u).pairs


def test_invalid_forms_rejected():
    with pytest.raises(ValueError):
        CascadeForm(3, ((4, 3), (4, 2)))  # digits must strictly decrease
    with pytest.raises(ValueError):
        CascadeForm(3, ((4, 3), (3, 1)))  # levels must be consecutive
    with pytest.raises(ValueError):
        cascade_decompose(0, 3)


def test_increment_matches_fresh_decompose():
    for u in (1, 2, 3, 5, 8):
        digits = _digits(1, u)
        for m in range(2, 3000):
            _advance(digits)
            assert digits == _digits(m, u), (m, u)


def test_largest_a_brackets_m():
    rng = random.Random(11)
    cases = []
    for _ in range(2000):
        lev = rng.randint(1, 60)
        cases.append((rng.randint(1, 10 ** rng.randint(1, 40)), lev))
    for a, lev in [(1, 1), (5, 2), (40, 7), (3000, 3000), (3001, 3000), (70, 35)]:
        cases += [(binom(a, lev), lev), (binom(a, lev) - 1, lev)]
    for m, lev in cases:
        if m < 1:
            continue
        a = _largest_a(m, lev)
        assert binom(a, lev) <= m < binom(a + 1, lev), (m, lev)


def test_largest_a_stays_near_a_high_level(monkeypatch):
    import crossint.cascade as cascade

    uppers = []

    def counting_binom(n, k):
        uppers.append(n)
        return binom(n, k)

    monkeypatch.setattr(cascade, "binom", counting_binom)
    assert _largest_a(3001, 3000) == 3001
    assert max(uppers) <= 3002


def test_truncate_example():
    form = cascade_decompose(17, 3)
    tc = truncate_cascade(form, 1)
    assert tc.pairs == ((5, 3), (4, 2))
    assert tc.x_level == 1
    assert tc.x == pytest.approx(1.0, abs=1e-9)


def test_truncate_out_of_range():
    form = cascade_decompose(17, 3)
    with pytest.raises(InvalidTruncationError):
        truncate_cascade(form, 5)
    with pytest.raises(InvalidTruncationError):
        truncate_cascade(cascade_decompose(10, 3), 1)  # single term: no valid s


def test_truncate_invariants_sampled():
    rng = random.Random(11)
    for _ in range(200):
        u = rng.randint(3, 8)
        m = rng.randint(1, 30_000)
        form = cascade_decompose(m, u)
        if form.t < 2:
            continue
        s = rng.randint(1, form.t - 1)
        tc = truncate_cascade(form, s)
        dropped = sum(binom(a, lev) for a, lev in form.pairs[s + 1 :])
        assert gen_binom(tc.x, tc.x_level) == pytest.approx(dropped, rel=1e-9)
        assert form.pairs[s + 1][0] <= tc.x < form.pairs[s][0]
        assert tc.value == pytest.approx(m, rel=1e-9)


def test_fractional_cascade():
    tc = fractional_cascade(10, 3)
    assert tc.pairs == ()
    assert tc.x_level == 3
    assert tc.x == pytest.approx(5.0, abs=1e-9)
    tc = fractional_cascade(7, 2)
    assert tc.x == pytest.approx((1 + math.sqrt(57)) / 2, abs=1e-9)


def test_shadow_lower_bound_examples():
    assert shadow_lower_bound(10, 3, 2) == 10
    assert shadow_lower_bound(17, 3, 2) == 15
    assert shadow_lower_bound(17, 3, 2) == binom(5, 2) + binom(4, 1) + binom(1, 0)
    for m in (1, 5, 17):
        assert shadow_lower_bound(m, 3, 3) == m


def test_shadow_bound_matches_colex_enumeration():
    # the bound equals the actual shadow of a colex segment
    n = 8
    for u in (2, 3, 4):
        for v in range(1, u):
            for m in range(1, binom(n, u) + 1):
                seg = colex_segment(m, u, n)
                explicit = brute_shadow(seg.sets(), v)
                assert len(explicit) == shadow_lower_bound(m, u, v), (m, u, v)


def test_shadow_bound_is_a_lower_bound_for_random_families():
    rng = random.Random(23)
    n = 8
    for _ in range(60):
        u = rng.randint(2, 5)
        v = rng.randint(1, u - 1)
        layer = colex_sorted_subsets(n, u)
        m = rng.randint(1, len(layer))
        fam = rng.sample(layer, m)
        assert len(brute_shadow(fam, v)) >= shadow_lower_bound(m, u, v)


def test_lovasz_bound_examples():
    single = fractional_cascade(10, 3)
    assert lovasz_bound(single, 2) == pytest.approx(10.0, abs=1e-9)
    tc = truncate_cascade(cascade_decompose(17, 3), 1)
    assert lovasz_bound(tc, 2) == pytest.approx(15.0, abs=1e-9)
    frac = fractional_cascade(7, 2)
    assert lovasz_bound(frac, 1) == pytest.approx((1 + math.sqrt(57)) / 2, abs=1e-9)


def test_lovasz_never_exceeds_exact_bound():
    rng = random.Random(5)
    for _ in range(300):
        u = rng.randint(2, 8)
        m = rng.randint(1, 20_000)
        v = rng.randint(1, u - 1)
        exact = shadow_lower_bound(m, u, v)
        assert lovasz_bound(fractional_cascade(m, u), v) <= exact + 1e-9
        form = cascade_decompose(m, u)
        for s in range(1, form.t):
            assert lovasz_bound(truncate_cascade(form, s), v) <= exact + 1e-9


def test_kk_cross_bound_examples():
    assert kk_cross_bound(5, 1, 3, 1) == 6
    assert kk_cross_bound(4, 2, 2, 3) == 3
    for n, k, l in [(7, 2, 4), (9, 3, 4), (11, 4, 6)]:
        star = binom(n - 1, k - 1)
        assert kk_cross_bound(n, k, l, star) == binom(n - 1, l - 1)


def test_kk_cross_bound_is_attained():
    # complements of a colex segment plus everything outside its shadow meet the bound
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(4, 10)
        k = rng.randint(1, n - 2)
        l = rng.randint(1, n - k)
        m = rng.randint(1, binom(n, k))
        fam_a, fam_b = achieving_pair(n, k, l, m)
        assert len(fam_a) == m
        assert len(fam_b) == kk_cross_bound(n, k, l, m)
        assert all(a & b for a in fam_a for b in fam_b)
