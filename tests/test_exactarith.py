import ast
import inspect
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import crossint
from crossint import exactarith
from crossint.errors import BracketingError
from crossint.exactarith import (
    binom,
    binom_exceeds,
    binom_ratio,
    bisect,
    gen_binom,
    solve_binom_x,
)

from support import pascal_binom


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(7, 0) == 1
    assert binom(19, 4) == 3876
    assert binom(19, 4) == pascal_binom(19, 4)


def test_binom_out_of_range_is_zero():
    assert binom(4, -1) == 0
    assert binom(4, 5) == 0
    assert binom(0, 0) == 1


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_matches_pascal_recurrence():
    for n in range(12):
        for k in range(n + 1):
            assert binom(n, k) == pascal_binom(n, k)


def test_gen_binom_values():
    assert gen_binom(2.5, 2) == pytest.approx(2.5 * 1.5 / 2)
    for x in (-1.5, 0.0, 3.0, 7.25):
        assert gen_binom(x, 0) == 1.0
    assert gen_binom(3, 4) == 0.0
    assert gen_binom(3.9, 4) == 0.0  # zero below the lower index


def test_gen_binom_agrees_with_binom_on_integers():
    for n in range(20):
        for k in range(n + 1):
            assert gen_binom(float(n), k) == pytest.approx(binom(n, k), rel=1e-12)


def test_gen_binom_strictly_increasing_from_t():
    for t in (1, 2, 3, 5, 8):
        xs = [t + 0.1 * i for i in range(80)]
        vals = [gen_binom(x, t) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_solve_binom_x_examples():
    assert solve_binom_x(10, 3, 3, 10) == pytest.approx(5.0, abs=1e-9)
    assert solve_binom_x(1, 2, 1, 10) == pytest.approx(2.0, abs=1e-9)
    # closed-form check: x(x-1)/2 = 7 has root (1 + sqrt(57)) / 2
    root = (1 + math.sqrt(57)) / 2
    assert solve_binom_x(7, 2, 1, 10) == pytest.approx(root, abs=1e-9)


def test_solve_binom_x_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 6)
        m = rng.randint(1, 10_000)
        x = solve_binom_x(m, r, float(r), 10_000.0)
        assert gen_binom(x, r) == pytest.approx(m, rel=1e-9)


def test_solve_binom_x_requires_bracket():
    with pytest.raises(BracketingError):
        solve_binom_x(10**6, 3, 3, 10)
    with pytest.raises(ValueError):
        solve_binom_x(10, 0, 0, 10)


def test_bisect_brackets_the_switch_point():
    root = bisect(lambda x: x * x < 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= exactarith.DEFAULT_TOL
    # a predicate that never turns false drives the bracket to hi
    assert bisect(lambda x: True, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bisect_stops_at_adjacent_floats():
    # near 9000 one ulp exceeds DEFAULT_TOL, so the bracket ends as two
    # adjacent floats, not at the tolerance
    calls = []
    root = math.sqrt(81_000_000.5)

    def below(x):
        calls.append(x)
        return x * x < 81_000_000.5

    found = bisect(below, 9000.0, 9001.0)
    assert math.ulp(found) > exactarith.DEFAULT_TOL
    assert len(calls) < 64
    assert abs(found - root) <= math.ulp(root)


@pytest.mark.parametrize(
    "lo, hi",
    [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0),
     (-math.inf, math.inf)],
)
def test_bisect_ends_at_once_on_a_nan_or_infinite_bracket(lo, hi):
    def below(x):
        raise AssertionError(f"predicate called at {x}")

    bisect(below, lo, hi)


def test_binom_exceeds_matches_the_binomial():
    for n in range(0, 30):
        for k in range(-1, n + 2):
            value = binom(n, k)
            for cap in (0, 1, value - 1, value, value + 1, 10**6):
                if cap >= 0:
                    assert binom_exceeds(n, k, cap) == (value > cap), (n, k, cap)


def test_binom_exceeds_stops_early():
    # C(2 * 10**6, 10**6) has about 600,000 digits; the answer comes at once
    assert binom_exceeds(2 * 10**6, 10**6, 10**8)
    assert not binom_exceeds(10**9, 1, 10**9)
    assert binom_exceeds(10**9 + 1, 1, 10**9)


TUNING_KWARGS = {
    "tol", "j_cap", "i_max", "max_iter", "sweep_budget", "j_list", "alpha_lo",
    "alpha_hi",
}


def test_public_api_has_no_tuning_kwargs():
    # caps, tolerances and budgets are module constants, read when called
    checked = 0
    assert len(crossint.__all__) == 50
    for name in crossint.__all__:
        obj = getattr(crossint, name)
        if not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        targets = [obj]
        if inspect.isclass(obj):
            targets += [
                member for attr, member in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(member)
            ]
        for target in targets:
            params = set(inspect.signature(target).parameters)
            assert not params & TUNING_KWARGS, (name, target, params & TUNING_KWARGS)
            checked += 1
    assert checked == 46


def test_readme_lists_every_module_constant():
    # the README's constants table says "These are all of them"
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| `(\w+\.[A-Z][A-Z0-9_]*)` \|", readme, re.MULTILINE)
    defined = []
    for module in ("exactarith", "cascade", "families", "regions", "oracle"):
        tree = ast.parse((root / "src" / "crossint" / f"{module}.py").read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)
            ]
            defined += [
                f"{module}.{target.id}"
                for target in targets
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
            ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(defined)
    assert len(defined) == 11


RECORDS = [
    (
        crossint.CascadeForm(3, ((5, 3), (2, 2))),
        crossint.CascadeForm(3, ((5, 3), (3, 2))),
        "CascadeForm(u=3, pairs=((5, 3), (2, 2)))",
        "(u: 'int', pairs: 'tuple[tuple[int, int], ...]')",
    ),
    (
        crossint.TruncatedCascade(3, ((5, 3),), 2.5),
        crossint.TruncatedCascade(3, ((5, 3),), 3.5),
        "TruncatedCascade(u=3, pairs=((5, 3),), x=2.5)",
        "(u: 'int', pairs: 'tuple[tuple[int, int], ...]', x: 'float')",
    ),
    (
        crossint.UniformFamily(4, 2, (3, 5)),
        crossint.UniformFamily(4, 2, (5, 3)),
        "UniformFamily(n=4, k=2, members=(3, 5))",
        "(n: 'int', k: 'int', members: 'tuple[int, ...]')",
    ),
    (
        crossint.OracleResult(Fraction(3, 8), [[1]], "measure", {"n": 2}),
        crossint.OracleResult(Fraction(3, 8), [[2]], "measure", {"n": 2}),
        "OracleResult(value=Fraction(3, 8), witnesses=[[1]], method='measure',"
        " params={'n': 2})",
        "(value: 'Union[int, Fraction]', witnesses: 'Any', method: 'str', params: 'dict')",
    ),
]

RECORD_ERRORS = [
    ((crossint.CascadeForm, 0, ()), "cascade form needs u >= 1 and at least one term"),
    ((crossint.CascadeForm, 3, ((5, 3), (2, 1))), "cascade levels must decrease by exactly one"),
    ((crossint.CascadeForm, 2, ((1, 2),)), "invalid cascade digit C(1, 2)"),
    ((crossint.CascadeForm, 3, ((5, 3), (5, 2))), "cascade digits must strictly decrease"),
    ((crossint.UniformFamily, 0, 0, ()), "ground set size must be in [1, 64], got 0"),
    ((crossint.UniformFamily, 4, 5, ()), "uniform size must be in [0, 4], got 5"),
    ((crossint.UniformFamily, 4, 2, (17,)), "member outside the ground set"),
    ((crossint.UniformFamily, 4, 2, (1,)), "member of wrong size in uniform family"),
    ((crossint.UniformFamily, 4, 2, (3, 3)), "duplicate member"),
]


def test_record_classes_keep_dataclass_semantics():
    # the value classes compare, hash and print by their fields, in order
    for record, other, text, signature in RECORDS:
        cls = type(record)
        twin = eval(text, {cls.__name__: cls, "Fraction": Fraction})
        assert repr(record) == text
        params = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
        assert str(params) == signature
        assert record == twin and record is not twin
        assert record != other and not record == other
        if cls is crossint.OracleResult:
            with pytest.raises(TypeError):
                hash(record)
            twin.method = "cascade"
            assert twin.method == "cascade" and twin != record
            continue
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2
        for name in inspect.signature(cls).parameters:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(other, name))
        assert record == twin
    for (cls, *args), message in RECORD_ERRORS:
        with pytest.raises(ValueError) as caught:
            cls(*args)
        assert str(caught.value) == message


def test_binom_ratio_exact():
    assert binom_ratio(6, 2, 2, 1) == Fraction(binom(4, 3), binom(6, 2))


def test_binom_ratio_converges_to_measure_limit():
    # C(n-2, n-k-1)/C(n,k) tends to alpha * (1 - alpha) for k = alpha n
    alpha = Fraction(1, 4)
    target = alpha * (1 - alpha)
    errors = []
    for n in (64, 256, 1024):
        k = int(alpha * n)
        errors.append(abs(binom_ratio(n, k, 2, 1) - target))
    assert errors[0] > errors[1] > errors[2]
