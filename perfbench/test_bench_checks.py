"""The benchmark's checks accept real outputs and reject corrupted ones.

Run with the package on the path, as the test command does:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

import checks
import workloads
from crossint import cli, oracle
from spans import Tracer


def _bump(text: str) -> str:
    return str(int(text) + 1)


def test_mnkl_checks_reject_corrupted_outputs():
    n, k, l = 12, 3, 7
    res = oracle.max_product_cascade(n, k, l)
    assert checks.mnkl_problems(n, k, l, res.value, res.witnesses) == []
    assert checks.mnkl_problems(n, k, l, res.value + 1, res.witnesses)
    assert checks.mnkl_problems(n, k, l, res.value - 1, res.witnesses)
    assert checks.mnkl_problems(n, k, l, res.value, [])
    too_big = [{"a_size": checks.comb0(n, k) + 1, "b_size": 0}]
    assert checks.mnkl_problems(n, k, l, 0, too_big)
    below = max(checks.blocking_products(n, k, l)) - 1
    assert checks.mnkl_problems(n, k, l, below, [{"a_size": 1, "b_size": below}])


def test_brute_force_mnkl_matches_the_sweep_on_tiny_instances():
    for n, k, l in workloads.TINY_MNKL:
        assert checks.brute_mnkl(n, k, l) == oracle.max_product_cascade(n, k, l).value


def test_measure_checks_reject_corrupted_outputs():
    # the optimum here is not a star: a_min = [(1,2), (1,3), (2,3), (4,)]
    alpha, beta = Fraction(1, 3), Fraction(2, 3)
    res = oracle.measure_oracle(4, alpha, beta)
    wits = res.witnesses
    assert checks.measure_problems(4, alpha, beta, res.value, wits) == []
    assert checks.measure_problems(4, alpha, beta, res.value + Fraction(1, 10**6), wits)
    first = wits["pairs"][0]
    shrunk = {"a_min": first["a_min"][1:], "b_min": first["b_min"]}
    assert checks.measure_problems(
        4, alpha, beta, res.value, {"optimal_count": 1, "pairs": [shrunk]}
    )
    assert checks.measure_problems(4, alpha, beta, res.value, {"optimal_count": 1, "pairs": []})


def test_brute_force_measure_matches_the_oracle_at_n3():
    alpha, beta = Fraction(1, 3), Fraction(3, 5)
    assert checks.brute_measure(3, alpha, beta) == oracle.measure_oracle(3, alpha, beta).value


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _edit_json(edit):
    def corrupt(stdout: str) -> str:
        report = json.loads(stdout)
        edit(report)
        return json.dumps(report)

    return corrupt


def _edit_csv_value(stdout: str) -> str:
    lines = stdout.splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[3] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_scan(stdout: str) -> str:
    lines = stdout.splitlines()
    report = json.loads(lines[0])
    row = report["hypothesis"]["per_j"][0]
    row["product"] = _bump(row["product"])
    return "\n".join([json.dumps(report)] + lines[1:]) + "\n"


def _set(path, value):
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return edit


def _flip(flag):
    return not flag


REGION_ARGS = ["--grid", "5", "--alpha-range", "0.05", "0.45"]

CASES = [
    (
        "check-point",
        ["check", "--alpha", "0.25", "--beta", "0.55", "--conditions", "delta,delta-prime,claims"],
        _edit_json(_set(["conditions", "delta"], _flip)),
    ),
    (
        "check-nkl",
        ["check", "20", "5", "11", "--conditions", "c1,c2"],
        _edit_json(_set(["conditions", "c1"], _flip)),
    ),
    *(
        (f"region-{what}", ["region", "--what", what, *REGION_ARGS], _edit_csv_value)
        for what in ("ej", "delta", "delta-prime")
    ),
    (
        "mnkl-both",
        ["mnkl", "5", "2", "3", "--method", "both"],
        _edit_json(_set(["results", "enumeration", "value"], _bump)),
    ),
    ("mnkl", ["mnkl", "12", "3", "7"], _edit_json(_set(["results", "cascade", "value"], _bump))),
    (
        "scan",
        ["scan", "--n-range", "9", "10", "--k-range", "1", "3", "--l-range", "5", "7"],
        _edit_scan,
    ),
    (
        "measure",
        ["measure", "4", "--alpha", "1/4", "--beta", "11/20"],
        _edit_json(_set(["result", "value"], lambda v: str(Fraction(v) + Fraction(1, 10**6)))),
    ),
    (
        "family-make",
        ["family", "make", "afam", "--n", "8", "--k", "3", "--j", "1"],
        lambda out: "\n".join(out.splitlines()[:-1]) + "\n",
    ),
]


@pytest.mark.parametrize("kind,argv,corrupt", CASES, ids=[c[0] for c in CASES])
def test_cli_checks_reject_corrupted_outputs(kind, argv, corrupt):
    code, stdout = _run_cli(argv)
    assert checks.cli_problems(kind, argv, code, stdout, {}) == []
    assert checks.cli_problems(kind, argv, code, corrupt(stdout), {})
    assert checks.cli_problems(kind, argv, code + 1, stdout, {})
    assert checks.cli_problems(kind, argv, code, "", {})


def test_family_cross_check_recomputes_the_verdict(tmp_path):
    files = {}
    for name, center in (("a", "1"), ("b", "2")):
        _, text = _run_cli(["family", "make", "star", "--n", "7", "--k", "3", "--center", center])
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        files[str(path)] = text
    argv = ["family", "cross", *files]
    code, stdout = _run_cli(argv)
    assert code == 1
    assert checks.cli_problems("family-cross", argv, code, stdout, files) == []
    flipped = _edit_json(_set(["cross_intersecting"], _flip))(stdout)
    assert checks.cli_problems("family-cross", argv, code, flipped, files)
    assert checks.cli_problems("family-cross", argv, 0, stdout, files)


def test_inputs_depend_only_on_the_seed():
    for cls in workloads.WORKLOADS.values():
        assert cls(7).items == cls(7).items
        assert cls(7).items != cls(8).items
    assert len(workloads.Measure(1).items) >= 100


def test_tracer_counts_every_namespace_and_restores_it():
    from crossint import cascade, exactarith

    original = exactarith.binom
    tracer = Tracer()
    tracer.install()
    try:
        assert cascade.binom is oracle.binom is not original
        tracer.op(0, oracle.max_product_cascade, 10, 3, 5)
    finally:
        tracer.restore()
    assert cascade.binom is oracle.binom is exactarith.binom is original
    assert tracer.calls["exactarith.binom"] > 0
    assert tracer.calls["cascade._advance"] == checks.comb0(10, 3)
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["op", "oracle.max_product_cascade"]
    assert set(names[2:]) == {"cascade.kk_cross_bound"}
    assert [span[3] for span in tracer.spans] == [None, 0] + [1] * (len(names) - 2)
