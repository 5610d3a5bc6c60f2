import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossint
from crossint.cli import main
from crossint.exactarith import binom
from support import reference_delta_prime_sides, reference_root, reference_window_sides


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mnkl_both_agree(capsys):
    code, out, _ = run(capsys, "mnkl", "5", "1", "3", "--method", "both")
    assert code == 0
    report = json.loads(out)
    assert report["agree"]
    assert report["results"]["cascade"]["value"] == "6"
    assert report["schema"] == "crossint-report/4"
    assert "config" not in report


def test_mnkl_reference_instance(capsys):
    code, out, _ = run(capsys, "mnkl", "20", "5", "11")
    assert code == 0
    assert json.loads(out)["results"]["cascade"]["value"] == "358057128"


def test_mnkl_floor_ceiling_case(capsys):
    code, out, _ = run(capsys, "mnkl", "4", "2", "2")
    assert code == 0
    assert json.loads(out)["results"]["cascade"]["value"] == "9"


def test_mnkl_capacity_exit(capsys):
    code, _, err = run(capsys, "mnkl", "10", "5", "4", "--method", "enum")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mnkl", "20000", "10000", "5000"],
        ["mnkl", "2000000", "1000000", "500000"],
        ["mnkl", "20000", "10000", "5000", "--method", "enum"],
    ],
    ids=["sweep", "sweep-huge", "enum"],
)
def test_mnkl_budget_is_decided_without_the_binomial(capsys, monkeypatch, argv):
    # C(n, k) has thousands of digits here; it must be neither printed nor built
    _refuse_large_binomials(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "cap" in err or "budget" in err
    assert "digits" not in err


@pytest.mark.parametrize("method", ["cascade", "enum"])
def test_mnkl_full_layers_past_the_digit_limit_are_refused(capsys, monkeypatch, method):
    # k + l > n: C(2000000, 1000000) has about 600,000 digits
    _refuse_large_binomials(monkeypatch)
    argv = ["mnkl", "2000000", "1000000", "1000001", "--method", method]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


def _refuse_large_binomials(monkeypatch):
    import crossint.oracle as oracle

    def refuse(n, k):
        if n > 100:
            raise AssertionError(f"C({n},{k}) evaluated")
        return binom(n, k)

    monkeypatch.setattr(oracle, "binom", refuse)


def test_mnkl_usage_exit(capsys):
    code, _, _ = run(capsys, "mnkl", "5", "1")
    assert code == 2


def test_determinism(capsys):
    _, first, _ = run(capsys, "mnkl", "6", "2", "3", "--method", "both")
    _, second, _ = run(capsys, "mnkl", "6", "2", "3", "--method", "both")
    assert first == second
    _, r1, _ = run(capsys, "region", "--what", "delta", "--grid", "25")
    _, r2, _ = run(capsys, "region", "--what", "delta", "--grid", "25")
    assert r1 == r2


def test_region_csv(capsys):
    code, out, _ = run(capsys, "region", "--what", "ej", "--grid", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,value,label"
    assert len(lines) == 1 + 12 * 6
    assert lines[1].endswith(",e0")
    assert all("\r" not in line for line in lines)
    code, out, _ = run(
        capsys, "region", "--what", "delta-prime", "--grid", "5",
        "--alpha-range", "0.1", "0.4",
    )
    assert code == 0
    assert out.splitlines()[0] == "alpha,value"


def test_region_grid_cap_exit(capsys):
    code, out, err = run(capsys, "region", "--what", "ej", "--grid", str(10**5 + 1))
    assert (code, out) == (3, "")
    assert "grid cap" in err


def test_region_bad_range(capsys):
    code, _, err = run(
        capsys, "region", "--what", "delta", "--grid", "5",
        "--alpha-range", "0.9", "0.1",
    )
    assert code == 2
    assert "error" in err


def test_check_integer_conditions(capsys):
    code, out, _ = run(capsys, "check", "20", "5", "11", "--conditions", "c1,c2")
    assert code == 0
    report = json.loads(out)
    assert report["conditions"] == {"c1": True, "c2": True}
    code, _, _ = run(capsys, "check", "14", "4", "11", "--conditions", "c1")
    assert code == 1  # l too large: c1 fails


def test_check_point_conditions(capsys):
    code, out, _ = run(
        capsys, "check", "--alpha", "0.25", "--beta", "0.55",
        "--conditions", "delta,delta-prime",
    )
    assert code == 0
    report = json.loads(out)
    assert report["conditions"] == {"delta": True, "delta-prime": True}
    code, out, _ = run(
        capsys, "check", "--alpha", "0.2", "--beta", "0.6", "--conditions", "delta"
    )
    assert code == 1
    assert json.loads(out)["conditions"]["delta"] is False


def test_check_claims_bundle(capsys):
    code, out, _ = run(
        capsys, "check", "--alpha", "0.25", "--beta", "0.55", "--conditions", "claims"
    )
    assert code == 0
    detail = json.loads(out)["conditions"]["claims"]["detail"]
    assert detail["A(2,1)"] and detail["B(2,2)"]
    assert any(name.startswith("C(i0=") for name in detail)


def test_check_mixed_mode_rejected(capsys):
    code, out, err = run(
        capsys, "check", "20", "5", "11", "--alpha", "0.2", "--beta", "0.6",
        "--conditions", "c1",
    )
    assert (code, out) == (2, "")
    assert "not both" in err
    code, _, _ = run(capsys, "check", "20", "5", "11", "--conditions", "delta")
    assert code == 2


@pytest.mark.parametrize(
    "nkl", [["5"], ["5", "2"], ["20", "5", "11", "3"]], ids=["one", "two", "four"]
)
def test_check_wrong_integer_count_is_a_usage_error(capsys, nkl):
    code, out, err = run(capsys, "check", *nkl, "--conditions", "c1")
    assert (code, out) == (2, "")
    assert f"need exactly three integers N K L, got {len(nkl)}" in err
    # with a point as well, the error is the mix of the two kinds
    code, out, err = run(capsys, "check", *nkl, "--alpha", "0.2", "--conditions", "c1")
    assert (code, out) == (2, "")
    assert "not both" in err


@pytest.mark.parametrize("conditions", ["", ",", " , "])
def test_check_without_conditions_is_a_usage_error(capsys, conditions):
    for mode in (["--alpha", "0.25", "--beta", "0.55"], ["20", "5", "11"]):
        code, out, err = run(capsys, "check", *mode, "--conditions", conditions)
        assert (code, out) == (2, "")
        assert "no condition" in err


def test_check_csv_output(capsys):
    # every report but the region tables is JSON; there is no --output
    code, out, _ = run(
        capsys, "check", "20", "5", "11", "--conditions", "c1,c2",
        "--output", "csv",
    )
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "point",
    [
        ["--alpha", "nan", "--beta", "0.55"],
        ["--alpha", "0.25", "--beta", "inf"],
        ["--alpha=-inf", "--beta", "0.55"],
        ["--alpha", "0.25", "--beta", "NaN"],
        ["--alpha", "x", "--beta", "0.55"],
    ],
)
def test_check_non_finite_point_is_a_usage_error(capsys, point):
    code, out, err = run(capsys, "check", *point, "--conditions", "delta")
    assert (code, out) == (2, "")
    assert "number" in err


@pytest.mark.parametrize("conditions", ["delta", "delta-prime", "claims"])
@pytest.mark.parametrize(
    "point",
    [
        ("-1", "0.5"), ("0", "0.6"), ("1", "0.5"),
        ("0.25", "0"), ("0.25", "1"), ("0.3", "1.5"),
    ],
)
def test_check_bias_outside_the_unit_interval_is_a_usage_error(capsys, conditions, point):
    alpha, beta = point
    code, out, err = run(
        capsys, "check", "--alpha", alpha, "--beta", beta, "--conditions", conditions
    )
    assert (code, out) == (2, "")
    assert "(0, 1)" in err


def test_check_points_inside_the_square_keep_their_verdicts(capsys):
    # outside Omega but inside the square: a verdict, not a usage error
    for conditions in ("delta", "delta-prime"):
        code, out, _ = run(
            capsys, "check", "--alpha", "0.7", "--beta", "0.5",
            "--conditions", conditions,
        )
        assert code == 1
        assert json.loads(out)["conditions"][conditions] is False


def test_measure_command(capsys):
    code, out, _ = run(capsys, "measure", "4", "--alpha", "1/4", "--beta", "11/20")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == "11/80"
    assert report["equals_alpha_beta"]

    code, out, _ = run(capsys, "measure", "4", "--alpha", "1/5", "--beta", "3/5")
    assert code == 0
    report = json.loads(out)
    assert not report["equals_alpha_beta"]

    code, out, _ = run(capsys, "measure", "1", "--alpha", "1/2", "--beta", "1/2")
    assert json.loads(out)["result"]["value"] == "1/4"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("star", ["4", "--alpha", "1/4", "--beta", "11/20"]),
        ("nonstar", ["4", "--alpha", "1/5", "--beta", "3/5"]),
        ("n1", ["1", "--alpha", "1/2", "--beta", "1/2"]),
    ],
)
def test_measure_stdout_is_pinned(capsys, name, argv):
    # byte for byte, so the witness pairs' content and order are pinned too
    code, out, _ = run(capsys, "measure", *argv)
    assert code == 0
    assert out == (GOLDEN / f"measure_{name}.json").read_text()


def test_truncated_measure_stdout_is_pinned(capsys):
    # more than WITNESS_CAP optima tie: which 64 pairs are kept is pinned
    code, out, _ = run(capsys, "measure", "5", "--alpha", "7/16", "--beta", "3/5")
    assert code == 0
    assert json.loads(out)["result"]["witnesses"]["optimal_count"] == ">64"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "847fcd0ee6b1fed2378f65aae7c464a0b37768c1f59216ba69f7f3901b4021bf"


def test_slowest_n6_measure_stdout_is_pinned(capsys):
    # the slowest point of the (i/24, j/24) grid at n = 6 before the listing's
    # dead-family cut; its digest was taken from the walk without that cut
    code, out, _ = run(capsys, "measure", "6", "--alpha", "11/24", "--beta", "13/24")
    assert code == 0
    assert json.loads(out)["result"]["witnesses"]["optimal_count"] == 30
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5f2aea70844661aefaa2fc0ce8a06064e9d86948a16390b6a79c492ca10b0abe"


def test_n6_measure_stdout_is_pinned_end_to_end():
    # the golden was captured from the branch-and-bound search, which took
    # about 90 s for this point; the profile walk must match it in seconds
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "crossint.cli", "measure", "6", "--alpha", "1/10",
         "--beta", "3/5"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "measure_n6.json").read_text()


@pytest.mark.parametrize("alpha", ["1/0", "x", "1/2/3"])
def test_measure_bad_fraction_is_a_usage_error(capsys, alpha):
    code, out, err = run(capsys, "measure", "4", "--alpha", alpha, "--beta", "1/2")
    assert code == 2
    assert out == ""
    assert "not a fraction" in err


@pytest.mark.parametrize("conditions", ["c1", "c2"])
def test_check_degenerate_nkl_is_a_usage_error(capsys, conditions):
    code, out, err = run(capsys, "check", "1", "1", "1", "--conditions", conditions)
    assert code == 2
    assert out == ""
    assert "need 1 <= k, l <= n-1" in err


def _loaded_after(statement, watched):
    """Which of the watched modules a fresh interpreter has loaded after statement."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        f"import sys; {statement}; "
        f"print([m for m in {watched!r} if m in sys.modules], file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stderr.strip()


def _heavy_modules_after(statement):
    """Which of numpy and the process-pool modules a fresh interpreter loads."""
    heavy = ("numpy", "multiprocessing", "concurrent.futures")
    return _loaded_after(f"import crossint.cli; {statement}", heavy)


def test_cli_import_leaves_numpy_unloaded():
    assert _heavy_modules_after("pass") == "[]"


def test_scan_leaves_numpy_unloaded():
    # C(n, 1) <= 24 here, where the scan once ran the enumeration oracle
    scan = (
        "crossint.cli.main(['scan', '--n-range', '9', '11', '--k-range', '1', '1', "
        "'--l-range', '5', '7'])"
    )
    assert _heavy_modules_after(scan) == "[]"


def test_mnkl_both_runs_where_numpy_cannot_be_imported():
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; sys.modules['numpy'] = None; import crossint.cli; "
        "sys.exit(crossint.cli.main(['mnkl', '6', '2', '3', '--method', 'both']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["agree"] is True


SUBMODULES = ("cascade", "cli", "errors", "exactarith", "families", "oracle", "regions")


def test_commands_import_only_what_they_use():
    package = tuple(f"crossint.{name}" for name in SUBMODULES)
    assert _loaded_after("import crossint", package) == "[]"
    unused = ("dataclasses", "inspect", "numpy") + tuple(
        f"crossint.{name}" for name in ("oracle", "families", "regions", "cascade")
    )
    assert _loaded_after("import crossint.cli", unused) == "[]"
    command = "import crossint.cli; crossint.cli.main({!r})"
    check = ["check", "--alpha", "0.25", "--beta", "0.55", "--conditions", "delta"]
    assert _loaded_after(command.format(check), unused) == "['crossint.regions']"
    family = ["family", "make", "star", "--n", "6", "--k", "2"]
    assert _loaded_after(command.format(family), unused) == "['crossint.families']"
    # mnkl loads every module, and still neither dataclasses, inspect nor
    # numpy, with the enumeration oracle or without it
    for method in ("cascade", "both"):
        mnkl = ["mnkl", "6", "2", "3", "--method", method]
        assert _loaded_after(command.format(mnkl), unused) == str(list(unused[3:]))
    # every public name is the object its submodule holds
    modules = [importlib.import_module(f"crossint.{name}") for name in SUBMODULES]
    for name in crossint.__all__:
        held = [vars(module)[name] for module in modules if name in vars(module)]
        assert held and all(obj is getattr(crossint, name) for obj in held), name


def test_every_public_name_serves_a_command_or_an_acceptance_criterion():
    """Each name in crossint.__all__ is reached from cli.main or imported by
    test_acceptance.py.

    The closure works on names: from those roots it follows every
    identifier and attribute name in a top-level definition of
    src/crossint (body, annotations and defaults) to the top-level
    definitions of that name in any module.  It over-approximates: a local
    variable, attribute or annotation that shares a top-level name keeps
    that name alive, so a public function called `shadow` would pass
    through the local list `shadow` in oracle._sweep.
    """
    defs = {}
    for path in Path(crossint.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    todo = ["main"] + [
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crossint")
        for alias in node.names
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in ast.walk(ast.Module(body=defs[name], type_ignores=[])):
            if isinstance(node, ast.Name):
                todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                todo.append(node.attr)
    assert sorted(set(crossint.__all__) - reached) == []


def test_measure_capacity_exit(capsys):
    code, _, err = run(capsys, "measure", "7", "--alpha", "1/4", "--beta", "11/20")
    assert code == 3
    assert "cap" in err


def test_scan_stream(capsys):
    code, out, _ = run(
        capsys, "scan", "--n-range", "5", "7", "--k-range", "1", "2",
        "--l-range", "3", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        report = json.loads(line)
        assert report["command"] == "scan"
        assert report["label"] in {"confirming", "refuting", "vacuous", "out-of-reach"}
        assert 2 * report["l"] > report["n"]


def test_scan_stdout_is_pinned(capsys):
    # 14 rows of Omega', 3 confirming and 11 vacuous, byte for byte
    code, out, _ = run(
        capsys, "scan", "--n-range", "5", "9", "--k-range", "1", "3",
        "--l-range", "3", "8",
    )
    assert code == 0
    assert out == (GOLDEN / "scan_small.jsonl").read_text()


@pytest.mark.parametrize(
    "box, digest",
    [
        (
            ["5", "20", "1", "8", "3", "19"],
            "ba0e0461e0b2aae5b6954bfa25acb1020fbc2f157ccf656f5f9d864f831b692d",
        ),
        # from n = 133 on, j runs past 64: every pair before the tail is checked
        (
            ["130", "141", "1", "2", "66", "80"],
            "d77c818dc8ffeeb0d9051c727a9b901527f41d91ca425d707386d07e86aa1858",
        ),
    ],
    ids=["240-rows", "long-per-j"],
)
def test_scan_stdout_digest_is_pinned(capsys, box, digest):
    argv = ["scan", "--n-range", *box[:2], "--k-range", *box[2:4]]
    code, out, _ = run(capsys, *argv, "--l-range", *box[4:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_empty_range(capsys):
    code, out, _ = run(
        capsys, "scan", "--n-range", "4", "4", "--k-range", "3", "3",
        "--l-range", "3", "3",
    )
    assert code == 0
    assert out == ""


@pytest.mark.parametrize(
    "box, instances",
    [
        (
            ["10", "10", "1", "1000000000000", "6", "6"],
            [(10, 1, 6), (10, 2, 6), (10, 3, 6)],
        ),
        (
            ["1", "1000000000000", "1", "1", "6", "6"],
            [(8, 1, 6), (9, 1, 6), (10, 1, 6), (11, 1, 6)],
        ),
    ],
    ids=["huge-k", "huge-n"],
)
def test_scan_walks_only_omega_prime(capsys, box, instances):
    # these boxes hold about 10^12 points but only a few instances of Omega'
    # (k >= 1, 2l > n, k + l < n); walking every point would never finish
    argv = ["scan", "--n-range", *box[:2], "--k-range", *box[2:4]]
    argv += ["--l-range", *box[4:]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "crossint.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert [(r["n"], r["k"], r["l"]) for r in map(json.loads, lines)] == instances
    for line, (n, k, l) in zip(lines, instances):
        code, out, _ = run(
            capsys, "scan", "--n-range", str(n), str(n), "--k-range", str(k), str(k),
            "--l-range", str(l), str(l),
        )
        assert (code, out) == (0, line + "\n")


def test_scan_j_max_is_not_an_option(capsys):
    code, out, _ = run(
        capsys, "scan", "--n-range", "15", "15", "--k-range", "5", "5",
        "--l-range", "9", "9", "--j-max", "5",
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["mnkl", "20000", "15000", "10000"],
        ["scan", "--n-range", "10000", "10000", "--k-range", "2000", "2000",
         "--l-range", "5001", "5001"],
    ],
    ids=["mnkl", "scan"],
)
def test_result_past_digit_limit_is_a_capacity_exit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


def test_scan_all_out_of_reach(capsys):
    # C(40, 10) = 847,660,528 first-family sizes, past the sweep budget
    code, out, err = run(
        capsys, "scan", "--n-range", "40", "40", "--k-range", "10", "10",
        "--l-range", "21", "21",
    )
    assert code == 3
    assert "capacity" in err
    report = json.loads(out.splitlines()[0])
    assert report["label"] == "out-of-reach"
    assert report["hypothesis"]["holds"]


def test_family_roundtrip(tmp_path, capsys):
    code, star_text, _ = run(capsys, "family", "make", "star", "--n", "6", "--k", "3")
    assert code == 0
    assert star_text.splitlines()[0] == "6 3"
    a_path = tmp_path / "a.txt"
    a_path.write_text(star_text)

    code, b_text, _ = run(
        capsys, "family", "make", "bfam", "--n", "6", "--k", "3", "--j", "1"
    )
    b_path = tmp_path / "b.txt"
    b_path.write_text(b_text)

    code, out, _ = run(capsys, "family", "info", str(a_path))
    assert code == 0
    assert json.loads(out)["size"] == 10

    code, out, _ = run(capsys, "family", "cross", str(a_path), str(b_path))
    assert code == 0
    assert json.loads(out)["cross_intersecting"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("6 3\n1 2 3\n2 7 4\n", "element 7 outside [1, 6]"),
        ("6 3\n1 2 3\n2 2 4\n", "member of wrong size"),
        ("6 3\n1 2 3\n2 4\n", "member of wrong size"),
        ("6 3\n1 2 3\n3 1 2\n", "duplicate member"),
        ("10000000000 3\n1 2 3\n", "ground set size must be in [1, 64]"),
        # the header is refused before any member is read, so an element far
        # past the cap never becomes a bitmask of that many bits
        ("70 3\n1 2 71\n", "ground set size must be in [1, 64], got 70"),
        # read as an empty family, it used to cross every family
        ("5 0\n\n", "k = 0: a line of the text format cannot carry the empty set"),
    ],
    ids=[
        "out-of-range",
        "repeated-element",
        "wrong-size",
        "duplicate-member",
        "huge-ground-set",
        "ground-set-before-members",
        "empty-set",
    ],
)
def test_malformed_family_file_is_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "fam.txt"
    path.write_text(text)
    for argv in (["info", str(path)], ["cross", str(path), str(path)]):
        code, out, err = run(capsys, "family", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


def test_family_options_belong_to_the_leaf_commands(capsys):
    star = ["star", "--n", "4", "--k", "2"]
    for opts in (["--timing"], ["--j-cap", "5"]):
        code, out, _ = run(capsys, "family", *opts, "make", *star)
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "family", "make", *opts, *star)
        assert (code, out) == (2, "")
    code, out, _ = run(capsys, "family", "make", *star)
    assert code == 0
    assert out.splitlines()[0] == "4 2"


# the options commands used to take, with a value each; caps, tolerances
# and budgets are module constants now, and no command takes any of these
SHARED_OPTIONS = {
    "--tolerance": ["1e-9"],
    "--j-cap": ["5"],
    "--i-max": ["10"],
    "--sweep-budget": ["100"],
    "--output": ["csv"],
    "--timing": [],
}
LEAF_COMMANDS = {
    "mnkl": ["mnkl", "6", "2", "3"],
    "region": ["region", "--what", "ej", "--grid", "3"],
    "check": ["check", "--alpha", "0.25", "--beta", "0.55", "--conditions", "delta"],
    "measure": ["measure", "3", "--alpha", "1/4", "--beta", "1/2"],
    "scan": ["scan", "--n-range", "5", "5", "--k-range", "1", "1", "--l-range", "3", "3"],
    "family make": ["family", "make", "star", "--n", "4", "--k", "2"],
    "family info": ["family", "info", "{one}"],
    "family cross": ["family", "cross", "{one}", "{one}"],
}


@pytest.mark.parametrize("option", list(SHARED_OPTIONS))
@pytest.mark.parametrize("leaf", list(LEAF_COMMANDS))
def test_each_command_takes_only_the_options_it_reads(capsys, tmp_path, leaf, option):
    one = tmp_path / "one.txt"
    one.write_text("3 1\n1\n")
    argv = [tok.format(one=one) for tok in LEAF_COMMANDS[leaf]]
    code, out, _ = run(capsys, *argv, option, *SHARED_OPTIONS[option])
    assert (code, out) == (2, "")
    # the same command without the option is valid
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


# the one option each kind reads, with a valid value
KIND_OPTIONS = {
    "star": ["--center", "3"],
    "afam": ["--j", "1"],
    "bfam": ["--j", "1"],
    "colex": ["--size", "3"],
}


@pytest.mark.parametrize("option", [["--center", "3"], ["--j", "1"], ["--size", "3"]])
@pytest.mark.parametrize("kind", list(KIND_OPTIONS))
def test_family_make_takes_only_the_option_its_kind_reads(capsys, kind, option):
    # with and without the option the kind does read
    base = ["family", "make", kind, "--n", "5", "--k", "2"]
    for argv in (base, base + KIND_OPTIONS[kind]):
        code, out, err = run(capsys, *argv, *option)
        if option == KIND_OPTIONS[kind]:
            assert code == 0 and out.splitlines()[0] == "5 2"
        else:
            assert (code, out) == (2, "")
            assert err == f"error: family make {kind} takes no {option[0]}\n"


@pytest.mark.parametrize(
    "kind_args",
    [
        ["star", "--n", "26", "--k", "13"],
        ["afam", "--n", "64", "--k", "32", "--j", "1"],
        ["bfam", "--n", "64", "--k", "32", "--j", "1"],
        ["colex", "--n", "64", "--k", "32", "--size", str(10**6 + 1)],
    ],
)
def test_family_make_capacity_exit(capsys, kind_args):
    code, out, err = run(capsys, "family", "make", *kind_args)
    assert (code, out) == (3, "")
    assert "family cap" in err


@pytest.mark.parametrize("nk", [["--n", "5", "--k", "2"], ["--n", "30", "--k", "15"]])
def test_family_make_negative_size_is_a_usage_error(capsys, nk):
    # a negative size used to print the whole layer, even past the family cap
    code, out, err = run(capsys, "family", "make", "colex", *nk, "--size", "-1")
    assert (code, out) == (2, "")
    assert "m >= 0" in err


def test_family_make_empty_set_is_a_usage_error(capsys):
    # "5 0" and a blank line would read back as an empty family
    for kind in (["colex", "--size", "1"], ["star"]):
        code, out, err = run(capsys, "family", "make", *kind, "--n", "5", "--k", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_family_cross_capacity_exit(tmp_path, capsys):
    # 11,440 x 11,440 pairs exceed the cap of 10**8; no pair is compared
    code, star_text, _ = run(capsys, "family", "make", "star", "--n", "17", "--k", "8")
    assert code == 0
    star = tmp_path / "star.txt"
    star.write_text(star_text)
    code, out, err = run(capsys, "family", "cross", str(star), str(star))
    assert (code, out) == (3, "")
    assert "11440 x 11440 member pairs exceed the cap" in err


def test_family_cross_failure_exit(tmp_path, capsys):
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    one.write_text("3 1\n1\n")
    two.write_text("3 1\n2\n")
    code, out, _ = run(capsys, "family", "cross", str(one), str(two))
    assert code == 1
    assert not json.loads(out)["cross_intersecting"]


def test_threads_env(monkeypatch, capsys):
    # the sweep runs in one process: no worker option, variable or config key
    for flag in ("--threads", "--seed"):
        code, out, _ = run(capsys, "mnkl", "6", "2", "3", flag, "2")
        assert (code, out) == (2, "")
    monkeypatch.delenv("CROSSINT_THREADS", raising=False)
    code, plain, _ = run(capsys, "mnkl", "6", "2", "3")
    assert code == 0
    assert "config" not in json.loads(plain)
    monkeypatch.setenv("CROSSINT_THREADS", "2")
    code, out, _ = run(capsys, "mnkl", "6", "2", "3")
    assert (code, out) == (0, plain)


def test_undecidable_point_exits_with_capacity_code(capsys):
    from crossint.regions import delta_boundary

    boundary = delta_boundary(0.25)
    code, _, err = run(
        capsys, "check", "--alpha", "0.25", "--beta", repr(boundary),
        "--conditions", "delta",
    )
    assert code == 3
    assert "within" in err


@pytest.mark.parametrize(
    "point",
    [
        ("0.1", "1e-300"),  # beta^2 underflows in kind B
        ("0.4999999", "0.9999999999999999"),  # (1-beta)^(i-1) underflows in kind C
    ],
)
def test_claims_at_underflowing_points_exit_without_a_traceback(capsys, point):
    argv = ["check", "--alpha", point[0], "--beta", point[1], "--conditions", "claims"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    assert (out == "") == (code == 3)


def test_each_point_condition_exits_3_on_its_boundary(capsys):
    on_log_test = reference_root(
        lambda b: reference_delta_prime_sides(0.45, b)[1], 0.5, 0.55
    )
    on_window_a21 = reference_root(
        lambda b: reference_window_sides(0.25, b, 2, 1, "A"), 0.55, 0.9
    )
    for point, conditions, named in [
        ((0.25, 1 / 1.75), "delta-prime", "Delta'"),  # on (2 - alpha) beta = 1
        ((0.45, on_log_test), "delta-prime", "Delta'"),
        ((0.25, on_window_a21), "claims", "window bound A(2, 1)"),
    ]:
        code, out, err = run(
            capsys, "check", "--alpha", repr(point[0]), "--beta", repr(point[1]),
            "--conditions", conditions,
        )
        assert (code, out) == (3, ""), (point, conditions)
        assert named in err and "within" in err


def test_reports_carry_no_wall_time(capsys):
    mnkl = ["mnkl", "6", "2", "3", "--method", "both"]
    measure = ["measure", "3", "--alpha", "1/4", "--beta", "1/2"]
    for argv in (mnkl, measure):
        code, out, _ = run(capsys, *argv, "--timing")
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "elapsed" not in out
