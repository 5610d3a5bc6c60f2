import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from crossint.errors import CapacityError
from crossint.exactarith import binom
from crossint.oracle import (
    DEFAULT_SWEEP_BUDGET,
    ENUMERATION_CAP,
    WITNESS_CAP,
    _optimal_profiles,
    _sweep,
    _up_sets,
    _witness_pair,
    conjecture_scan,
    max_product_cascade,
    max_product_enumeration,
    measure_oracle,
)
from crossint.regions import in_omega_prime

from support import (
    achieving_pair,
    brute_max_product,
    brute_measure_product,
    reference_measure_optima,
    reference_measure_search,
    reference_sweep,
    reference_up_sets,
    reference_witness_pair,
)


def test_cascade_small_examples():
    res = max_product_cascade(5, 1, 3)
    assert res.value == 6
    assert [w["a_size"] for w in res.witnesses] == [1, 2]
    assert all(w["a_size"] * w["b_size"] == res.value for w in res.witnesses)
    assert max_product_cascade(4, 2, 2).value == 9


def test_cascade_reference_instance():
    res = max_product_cascade(20, 5, 11)
    assert res.value == 358_057_128
    assert res.value == binom(19, 4) * binom(19, 10)
    assert [w["a_size"] for w in res.witnesses] == [3876]


def test_cascade_trivial_regime():
    res = max_product_cascade(5, 4, 3)
    assert res.value == binom(5, 4) * binom(5, 3)


def test_cascade_budget():
    # C(30, 15) = 155,117,520 sizes, past the budget of 10**8
    assert binom(30, 15) > DEFAULT_SWEEP_BUDGET
    with pytest.raises(CapacityError, match="budget"):
        max_product_cascade(30, 15, 15)
    with pytest.raises(CapacityError):
        max_product_cascade(30, 15, 14)


def test_cascade_matches_definition_brute_force():
    # definition-level oracle on tiny instances (every subset of the k-layer)
    for n, k, l in [(4, 1, 2), (4, 2, 2), (5, 1, 3), (5, 2, 2), (5, 2, 3)]:
        assert max_product_cascade(n, k, l).value == brute_max_product(n, k, l)


def test_sweep_chunk_matches_reference_sweep():
    # the reference decomposes every size afresh; witnesses must match too
    for n in range(2, 15):
        for k in range(1, n):
            for l in range(1, n - k + 1):
                assert _sweep(n, k, l) == reference_sweep(n, k, l), (n, k, l)


def test_sweep_table_stays_within_reachable_digits(monkeypatch):
    # k = 1 has the closed form max over m of m * C(n - m, l - m): the
    # second family holds every l-set through all m chosen points
    import crossint.cascade as cascade
    import crossint.oracle as oracle

    calls = 0

    def counting_binom(a, b):
        nonlocal calls
        calls += 1
        return binom(a, b)

    monkeypatch.setattr(cascade, "binom", counting_binom)
    monkeypatch.setattr(oracle, "binom", counting_binom)
    n, l = 400, 200
    res = max_product_cascade(n, 1, l)
    assert calls < 8000
    products = {m: m * binom(n - m, l - m) for m in range(1, n + 1)}
    best = max(products.values())
    assert res.value == best
    assert res.witnesses == [
        {"a_size": m, "b_size": binom(n - m, l - m)}
        for m in sorted(products)
        if products[m] == best
    ]


def test_sweep_memory_stays_linear_in_the_rows():
    # k = 1: the table has n - k rows of k + 2 entries, so memory grows with
    # the rows' binomials, not with (n - k)^2 / 2 padded slots
    import tracemalloc

    n, l = 8000, 4000
    tracemalloc.start()
    try:
        res = max_product_cascade(n, 1, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # closed form: max over m <= l of m * C(n - m, l - m), where
    # C(n-m-1, l-m-1) = C(n-m, l-m) * (l-m) / (n-m)
    best, wits, b_size = -1, [], binom(n - 1, l - 1)
    for m in range(1, l + 1):
        if m * b_size > best:
            best, wits = m * b_size, [(m, b_size)]
        elif m * b_size == best:
            wits.append((m, b_size))
        b_size = b_size * (l - m) // (n - m)
    assert res.value == best
    assert res.witnesses == [{"a_size": m, "b_size": b} for m, b in wits]
    assert [w["a_size"] for w in res.witnesses] == [1]


def test_enumeration_examples():
    res = max_product_enumeration(5, 1, 3)
    assert res.value == 6
    assert res.witnesses["optimal_sizes"] == [1, 2]
    assert not res.witnesses["all_stars"]
    res = max_product_enumeration(7, 2, 4)
    assert res.value == 120 == binom(6, 1) * binom(6, 3)
    assert res.witnesses["all_stars"]
    assert res.witnesses["optimal_count"] == 7
    assert max_product_enumeration(6, 4, 3).value == binom(6, 4) * binom(6, 3)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        max_product_enumeration(10, 5, 4)


def test_oracles_agree_on_a_slice():
    for n in range(2, 8):
        for k in range(1, n):
            if binom(n, k) > 21:
                continue
            for l in range(1, n):
                enum = max_product_enumeration(n, k, l)
                sweep = max_product_cascade(n, k, l)
                assert enum.value == sweep.value, (n, k, l)


def test_enumeration_reports_are_pinned():
    # captured from the numpy enumeration oracle: every 2 <= n <= 7, every k
    # with C(n, k) <= 21 and every 1 <= l <= n - 1, witnesses included
    golden = Path(__file__).resolve().parent / "golden" / "enumeration.jsonl"
    rows = [json.loads(line) for line in golden.read_text().splitlines()]
    assert len(rows) == 79
    for row in rows:
        got = max_product_enumeration(row["n"], row["k"], row["l"]).to_dict()
        assert got == row, row


@pytest.mark.parametrize("n", range(13, 17))
def test_enumeration_spans_several_chunks_at_k1(n):
    # k = 1: a first family of s singletons leaves C(n - s, l - s) l-sets,
    # and 2^n lanes fill 2^(n - 12) chunks
    for l in range(1, n):
        products = {s: s * binom(n - s, l - s) for s in range(1, l + 1)}
        best = max(products.values())
        sizes = [s for s in sorted(products) if products[s] == best]
        res = max_product_enumeration(n, 1, l)
        assert res.value == best, (n, l)
        assert res.witnesses == {
            "optimal_count": sum(binom(n, s) for s in sizes),
            "optimal_sizes": sizes,
            "all_stars": sizes == [1],
        }, (n, l)


def test_enumeration_lanes_hold_every_score():
    # a lane holds |S| * g(S) <= C(n,k) * C(n,l), and bit 31 of each lane
    # must stay free for the threshold test
    assert array("I").itemsize == 4
    largest = 0
    for n in range(2, ENUMERATION_CAP + 1):
        for k in range(1, n):
            if binom(n, k) <= ENUMERATION_CAP:
                for l in range(1, n - k + 1):
                    largest = max(largest, binom(n, k) * binom(n, l))
    assert largest == 24 * binom(24, 12) < 2**31


def test_achieving_pair_realizes_witnesses():
    res = max_product_cascade(6, 2, 3)
    for w in res.witnesses:
        fam_a, fam_b = achieving_pair(6, 2, 3, w["a_size"])
        assert len(fam_a) * len(fam_b) == res.value


def test_witness_b_sizes_bounded_in_integer_region():
    # no optimal configuration has a second family above the star size there
    for n in range(5, 13):
        for k in range(1, n):
            for l in range(1, n):
                if not in_omega_prime(n, k, l):
                    continue
                res = max_product_cascade(n, k, l)
                assert all(
                    w["b_size"] <= binom(n - 1, l - 1) for w in res.witnesses
                ), (n, k, l)


def _maximizing_sizes(n, k, l):
    return [w["a_size"] for w in max_product_cascade(n, k, l).witnesses]


def test_uniqueness_reports():
    rep = conjecture_scan(20, 5, 11)["oracle"]
    assert rep["unique_size"] and rep["star_forced"]
    rep = conjecture_scan(5, 1, 3)["oracle"]
    assert not rep["unique_size"]
    assert rep["maximizing_sizes"] == [1, 2]
    assert not max_product_enumeration(5, 1, 3).witnesses["all_stars"]
    # odd ground sets beyond both thresholds force stars: k + l < n there,
    # so the star size alone maximizing forces the star structure
    for n, k, l in [(5, 2, 2), (7, 2, 3), (9, 3, 4)]:
        if n > 2 * max(k, l):
            assert k + l < n
            assert _maximizing_sizes(n, k, l) == [binom(n - 1, k - 1)], (n, k, l)
            if binom(n, k) <= ENUMERATION_CAP:
                assert max_product_enumeration(n, k, l).witnesses["all_stars"]


def test_uniqueness_not_forced_at_half():
    # k + l = n: the star size is the only maximizing size, yet non-stars
    # of that size are optimal too
    assert _maximizing_sizes(4, 2, 2) == [binom(3, 1)]
    assert not max_product_enumeration(4, 2, 2).witnesses["all_stars"]


def test_measure_oracle_examples():
    assert measure_oracle(1, Fraction(1, 2), Fraction(1, 2)).value == Fraction(1, 4)
    res = measure_oracle(4, Fraction(1, 4), Fraction(11, 20))
    assert res.value == Fraction(11, 80)
    res = measure_oracle(4, Fraction(1, 5), Fraction(3, 5))
    assert res.value >= Fraction(81, 625)
    assert res.value > Fraction(3, 25)


def test_measure_oracle_matches_definition():
    # assumption-free double check at n <= 2 over every pair of families
    for alpha, beta in [(Fraction(1, 4), Fraction(11, 20)), (Fraction(1, 5), Fraction(3, 5))]:
        for n in (1, 2):
            assert measure_oracle(n, alpha, beta).value == brute_measure_product(
                n, alpha, beta
            )


MEASURE_GRID = [
    Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(3, 5), Fraction(11, 20), Fraction(3, 4),
]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_oracle_matches_the_up_set_reference(n):
    # value, optimal_count and the pairs, against every up-closed family
    for alpha in MEASURE_GRID:
        for beta in MEASURE_GRID:
            res = measure_oracle(n, alpha, beta)
            value, optima = reference_measure_optima(n, alpha, beta)
            assert res.value == value
            pairs = {
                tuple(frozenset(map(frozenset, p[key])) for key in ("a_min", "b_min"))
                for p in res.witnesses["pairs"]
            }
            assert len(pairs) == len(res.witnesses["pairs"])
            if len(optima) <= WITNESS_CAP:
                assert res.witnesses["optimal_count"] == len(optima)
                assert pairs == optima
            else:
                assert res.witnesses["optimal_count"] == f">{WITNESS_CAP}"
                assert len(pairs) == WITNESS_CAP and pairs < optima


def test_measure_oracle_matches_the_branch_and_bound_at_n5():
    # the whole report, so the witness order and the ">64" cut are checked too
    grid = [Fraction(i, 9) for i in range(1, 9)]
    for alpha in grid:
        for beta in grid:
            want = reference_measure_search(5, alpha, beta).to_dict()
            assert measure_oracle(5, alpha, beta).to_dict() == want, (alpha, beta)


def _all_profiles(n):
    # with every weight 0 each profile scores 0, so they all tie for the maximum
    best, profiles = _optimal_profiles(n, [0] * (n + 1), [0] * (n + 1), 0)
    assert best == 0
    return profiles


@pytest.mark.parametrize("n, dedekind", [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_layer_profiles_are_those_of_the_up_sets(n, dedekind):
    leaves = []
    reference_measure_search(n, Fraction(1, 3), Fraction(1, 2), leaves)
    # the uncut walk completes every up-closed family exactly once
    assert len(set(leaves)) == len(leaves) == dedekind
    want = {
        tuple(
            sum(fam >> mask & 1 for mask in range(1 << n) if mask.bit_count() == c)
            for c in range(n + 1)
        )
        for fam in leaves
    }
    got = _all_profiles(n)
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_up_sets_match_the_uncut_listing(n):
    # the dead-family cut drops only branches with no completion, so the
    # listing keeps its families, its order and its response to the limit
    for profile in _all_profiles(n):
        for limit in (1, WITNESS_CAP + 1, 10**9):
            assert _up_sets(n, profile, limit) == reference_up_sets(n, profile, limit)


@pytest.mark.parametrize(
    "alpha, beta",
    [(Fraction(11, 24), Fraction(13, 24)), (Fraction(1, 10), Fraction(3, 5)),
     (Fraction(7, 16), Fraction(3, 5))],
)
def test_up_sets_match_the_uncut_listing_at_n6(alpha, beta):
    # each point has fewer than WITNESS_CAP optima, so a larger limit would
    # repeat the uncut walk (about 1 s at (11/24, 13/24)) for the same list
    n = 6
    p, q, r, s = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    weight_a = [p**c * (q - p) ** (n - c) for c in range(n + 1)]
    weight_b = [(s - r) ** c * r ** (n - c) for c in range(n + 1)]
    _, optimal = _optimal_profiles(n, weight_a, weight_b, s**n)
    for profile in optimal:
        for limit in (1, WITNESS_CAP + 1):
            assert _up_sets(n, profile, limit) == reference_up_sets(n, profile, limit)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_witness_pair_matches_the_definition(n):
    leaves = []
    reference_measure_search(n, Fraction(1, 3), Fraction(1, 2), leaves)
    for bits in leaves:
        assert _witness_pair(bits, n) == reference_witness_pair(bits, n)


def test_full_layers_are_refused_only_past_the_digit_limit(monkeypatch):
    # k + l > n; C(20000, 10000) has 6019 digits, past the default 4300
    n, k, l = 20000, 10000, 10001
    with pytest.raises(CapacityError, match="digit limit"):
        max_product_cascade(n, k, l)
    with pytest.raises(CapacityError, match="digit limit"):
        max_product_enumeration(n, k, l)
    # a limit of 0 means no limit, so nothing is refused
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    res = max_product_cascade(n, k, l)
    assert res.value == binom(n, k) * binom(n, l)
    assert res.witnesses == [{"a_size": binom(n, k), "b_size": binom(n, l)}]
    sizes = max_product_enumeration(n, k, l).witnesses["optimal_sizes"]
    assert sizes == [binom(n, k)]


def test_sweep_past_the_digit_limit_is_refused_before_it_runs(monkeypatch):
    # M(20000, 1, 10000) is at least C(19999, 9999), which has 6019 digits
    import crossint.oracle as oracle

    def no_sweep(n, k, l):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(oracle, "_sweep", no_sweep)
    with pytest.raises(CapacityError, match="digit limit"):
        max_product_cascade(20000, 1, 10000)
    # a limit of 0 means no limit, so the sweep is reached
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    with pytest.raises(AssertionError, match="the sweep ran"):
        max_product_cascade(20000, 1, 10000)


def test_measure_oracle_star_witnesses():
    res = measure_oracle(3, Fraction(1, 4), Fraction(11, 20))
    assert res.witnesses["optimal_count"] == 3
    pairs = res.witnesses["pairs"]
    assert all(p["a_min"] == p["b_min"] and len(p["a_min"]) == 1 for p in pairs)
    centers = sorted(p["a_min"][0][0] for p in pairs)
    assert centers == [1, 2, 3]


def test_measure_oracle_monotone_in_n():
    alpha, beta = Fraction(1, 5), Fraction(3, 5)
    values = [measure_oracle(n, alpha, beta).value for n in range(1, 5)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_measure_oracle_capacity():
    with pytest.raises(CapacityError):
        measure_oracle(7, Fraction(1, 4), Fraction(11, 20))


def test_conjecture_scan_reports():
    rep = conjecture_scan(20, 5, 11)
    assert rep["hypothesis"]["holds"]
    assert rep["conclusion_holds"]
    assert rep["label"] == "confirming"

    rep = conjecture_scan(5, 1, 3)
    assert not rep["hypothesis"]["holds"]
    assert rep["hypothesis"]["first_violation"] == 0
    assert rep["label"] == "vacuous"
    assert rep["necessity_consistent"]

    # the pair at j = 0 is below the star product but the one at j = 1 is
    # not, so a scan stopped at j = 0 would have called this refuting
    assert conjecture_scan(15, 5, 9)["label"] == "vacuous"

    with pytest.raises(ValueError):
        conjecture_scan(10, 3, 5)  # l <= n/2


def test_scan_conclusion_matches_enumeration():
    # the sweep alone decides the conclusion; the exhaustive oracle checks it
    outcomes = []
    for n in range(2, 12):
        for k in range(1, n):
            for l in range(1, n):
                if not in_omega_prime(n, k, l) or binom(n, k) > 21:
                    continue
                rep = conjecture_scan(n, k, l)
                enum = max_product_enumeration(n, k, l)
                want = (
                    enum.value == int(rep["star_product"])
                    and enum.witnesses["all_stars"]
                )
                assert rep["conclusion_holds"] == want, (n, k, l)
                outcomes.append(want)
    assert sorted(outcomes) == [False] * 16 + [True]


def test_conjecture_scan_tail_is_degenerate():
    # the perturbation term of the first family vanishes once j + 1 > k
    n, k, l = 12, 2, 7
    for j in range(k, n - 2):
        assert binom(n - j - 2, k - j - 1) == 0
    rep = conjecture_scan(n, k, l)
    assert rep["hypothesis"]["degenerate_from"] == max(k, n - l)
    assert rep["hypothesis"]["tail_certified"]


def test_conjecture_scan_checks_every_pair_before_the_tail():
    # j runs to max(k, n-l) - 1 = 68, past 64
    n, k, l = 140, 1, 71
    hypothesis = conjecture_scan(n, k, l)["hypothesis"]
    assert hypothesis["checked_up_to"] == hypothesis["degenerate_from"] - 1 == 68
    assert hypothesis["tail_certified"]
    star_a, star_b = binom(n - 1, k - 1), binom(n - 1, l - 1)
    assert [entry["j"] for entry in hypothesis["per_j"]] == list(range(69))
    for entry in hypothesis["per_j"]:
        j = entry["j"]
        size_a = star_a + binom(n - j - 2, k - j - 1)
        size_b = star_b - binom(n - j - 2, l - 1)
        assert entry["product"] == str(size_a * size_b)
        assert entry["holds"] == (size_a * size_b < star_a * star_b)


def test_result_serializes_to_json():
    res = max_product_cascade(6, 2, 3)
    payload = json.dumps(res.to_dict())
    round_trip = json.loads(payload)
    assert round_trip["value"] == str(res.value)
    assert round_trip["method"] == "cascade"
    assert set(round_trip) == {"n", "k", "l", "value", "witnesses", "method"}
    res = measure_oracle(2, Fraction(1, 3), Fraction(2, 3))
    assert json.loads(json.dumps(res.to_dict()))["alpha"] == "1/3"
