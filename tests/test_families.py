import itertools
from fractions import Fraction

import pytest

from crossint.errors import CapacityError
from crossint.exactarith import binom
from crossint.families import (
    UniformFamily,
    a_family_uniform,
    b_family_uniform,
    colex_masks,
    colex_segment,
    from_text,
    is_cross_intersecting,
    measure_aj,
    measure_bj,
    star_uniform,
    to_text,
)

from support import blocking_measure_pair, brute_measure, colex_sorted_subsets


def test_colex_segment_examples():
    assert colex_segment(1, 3, 5).sets() == [(1, 2, 3)]
    assert colex_segment(2, 4, 5).sets() == [(1, 2, 3, 4), (1, 2, 3, 5)]
    layer = colex_segment(binom(5, 3), 3, 5)
    assert len(layer) == 10


def test_colex_segment_matches_sort_oracle():
    for n in range(1, 11):
        for u in range(n + 1):
            expected = colex_sorted_subsets(n, u)
            got = colex_segment(binom(n, u), u, n).sets()
            assert got == expected


def test_colex_masks_are_the_masks_of_each_size_in_increasing_order():
    # colex order is increasing mask order; the edges u > n, u = 0 and n = 0
    # included
    for n in range(13):
        for u in range(n + 3):
            expected = [m for m in range(1 << n) if m.bit_count() == u]
            assert list(colex_masks(n, u)) == expected, (n, u)


def test_colex_segment_capacity():
    # more sets than the layer holds is a usage error, not a capacity one
    with pytest.raises(ValueError, match="requested 11 sets"):
        colex_segment(11, 3, 5)
    with pytest.raises(ValueError):
        colex_segment(1, 3, 100)  # ground set too large for one word
    with pytest.raises(ValueError, match="m >= 0"):
        colex_segment(-1, 2, 5)


def test_star_sizes():
    assert star_uniform(3, 1, 1).sets() == [(1,)]
    assert len(star_uniform(5, 3, 1)) == binom(4, 2)
    assert sorted(star_uniform(4, 2, 3).sets()) == [(1, 3), (2, 3), (3, 4)]


def test_constructors_cap_members_before_building(monkeypatch):
    import crossint.families as families

    monkeypatch.setattr(families, "MAX_MEMBERS", 10)
    # within the cap; b_family_uniform is capped by the star it filters
    assert len(star_uniform(6, 3, 1)) == 10
    assert len(a_family_uniform(5, 3, 0)) == 6 + 3
    assert len(b_family_uniform(6, 3, 0)) == 10 - 6
    assert len(colex_segment(10, 3, 7)) == 10
    # one past it: the star alone fits in a_family_uniform(6, 3, 0), not all 16
    for build in (
        lambda: star_uniform(7, 3, 1),
        lambda: a_family_uniform(6, 3, 0),
        lambda: b_family_uniform(7, 3, 0),
        lambda: colex_segment(11, 3, 7),
    ):
        with pytest.raises(CapacityError, match="family cap 10"):
            build()


def test_tight_families_are_exactly_layers_at_n6():
    # every 10-member 3-uniform family on [6] with shadow size C(5,2) is a
    # full layer on five points; checked exhaustively
    triples = list(itertools.combinations(range(1, 7), 3))
    layers = set()
    for missing in range(1, 7):
        layers.add(
            frozenset(t for t in triples if missing not in t)
        )
    tight = []
    for fam in itertools.combinations(triples, 10):
        seen = set()
        for t in fam:
            seen.update(itertools.combinations(t, 2))
            if len(seen) > 10:
                break
        if len(seen) == 10:
            tight.append(frozenset(fam))
    assert sorted(map(sorted, tight)) == sorted(map(sorted, layers))


def test_ab_family_sizes_match_closed_forms():
    for n in range(4, 13):
        for j in range(0, n - 1):
            for k in range(j + 1, n):
                fam = a_family_uniform(n, k, j)
                assert len(fam) == binom(n - 1, k - 1) + binom(n - j - 2, k - j - 1)
            for l in range(1, n):
                fam = b_family_uniform(n, l, j)
                assert len(fam) == binom(n - 1, l - 1) - binom(n - j - 2, l - 1)


def test_ab_family_examples():
    assert sorted(a_family_uniform(5, 1, 0).sets()) == [(1,), (2,)]
    assert len(b_family_uniform(5, 3, 0)) == 3
    prod = len(a_family_uniform(5, 1, 0)) * len(b_family_uniform(5, 3, 0))
    assert prod == binom(4, 0) * binom(4, 2) == 6


def test_ab_families_cross_intersect():
    for n in range(4, 9):
        for j in range(0, n - 2):
            fam_a, fam_b = blocking_measure_pair(n, j)
            assert all(a & b for a in fam_a for b in fam_b)
            for k in range(j + 1, n):
                for l in range(1, n):
                    assert is_cross_intersecting(
                        a_family_uniform(n, k, j), b_family_uniform(n, l, j)
                    )


def test_is_cross_intersecting_caps_the_pair_count(monkeypatch):
    import crossint.families as families

    star_a, star_b = star_uniform(5, 2, 1), star_uniform(5, 3, 1)  # 4 x 6 pairs
    monkeypatch.setattr(families, "MAX_CROSS_PAIRS", 24)
    assert is_cross_intersecting(star_a, star_b)
    monkeypatch.setattr(families, "MAX_CROSS_PAIRS", 23)
    with pytest.raises(CapacityError, match="4 x 6 member pairs exceed the cap 23"):
        is_cross_intersecting(star_a, star_b)


def test_is_cross_intersecting_basics():
    s1 = star_uniform(5, 2, 1)
    assert is_cross_intersecting(s1, star_uniform(5, 3, 1))
    a = UniformFamily(3, 1, (0b001,))
    b = UniformFamily(3, 1, (0b010,))
    assert not is_cross_intersecting(a, b)


def test_measure_closed_forms_agree_exactly():
    biases = [Fraction(1, 4), Fraction(11, 20), Fraction(2, 7), Fraction(3, 5)]
    for j in range(5):
        for n in range(j + 2, 11):
            fam_a, fam_b = blocking_measure_pair(n, j)
            for p in biases:
                assert brute_measure(fam_a, n, p) == measure_aj(p, j)
                assert brute_measure(fam_b, n, p) == measure_bj(p, j)


def test_measure_closed_form_floats():
    assert measure_aj(0.25, 0) == pytest.approx(0.4375)
    assert measure_bj(0.55, 0) == pytest.approx(0.3025)
    prod = measure_aj(0.2, 0) * measure_bj(0.6, 0)
    assert prod == pytest.approx(0.36 * 0.36)
    assert prod > 0.2 * 0.6


MALFORMED_FAMILY_FILES = [
    ("6 3\n1 2 3\n2 7 4\n", "element 7 outside [1, 6]"),
    ("6 3\n1 2 3\n0 2 4\n", "element 0 outside [1, 6]"),
    # a repeated element sets one bit, so the member comes out too small
    ("6 3\n1 2 3\n2 2 4\n", "member of wrong size in uniform family"),
    ("6 3\n1 2 3\n2 4\n", "member of wrong size in uniform family"),
    ("6 3\n1 2 3\n3 1 2\n", "duplicate member"),
    ("6 3\n1 2 x\n", "invalid literal for int()"),
    # the empty set would be a blank line, which the reader skips
    ("5 0\n\n", "cannot carry the empty set"),
]


@pytest.mark.parametrize("text, message", MALFORMED_FAMILY_FILES)
def test_from_text_refuses_malformed_members(text, message):
    with pytest.raises(ValueError) as caught:
        from_text(text)
    assert message in str(caught.value)


def test_text_round_trip():
    fam = a_family_uniform(6, 3, 1)
    text = to_text(fam)
    assert text.splitlines()[0] == "6 3"
    back = from_text(text)
    assert back == fam
    with pytest.raises(ValueError):
        from_text("6\n1 2 3\n")
