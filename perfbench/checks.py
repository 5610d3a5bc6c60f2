"""Correctness checks for benchmark outputs, computed apart from the program.

Every check takes the program's output as plain data and returns a list of
problems; an empty list means the output passed.  Nothing here imports
crossint: binomials come from math.comb, families are rebuilt from their
definitions, and region quantities are recomputed in Fraction or floats.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction


def comb0(a: int, b: int) -> int:
    """C(a, b), read as 0 outside 0 <= b <= a."""
    return math.comb(a, b) if 0 <= b <= a else 0


# ---------------------------------------------------------------------------
# Uniform maximum M(n, k, l)
# ---------------------------------------------------------------------------


def blocking_products(n: int, k: int, l: int) -> list[int]:
    """Star product, then every j-th blocking-pair product for j < max(k, n-l)."""
    star_a, star_b = comb0(n - 1, k - 1), comb0(n - 1, l - 1)
    out = [star_a * star_b]
    for j in range(max(k, n - l)):
        size_a = star_a + comb0(n - j - 2, k - j - 1)
        size_b = star_b - comb0(n - j - 2, l - 1)
        out.append(size_a * size_b)
    return out


def mnkl_problems(n: int, k: int, l: int, value: int, witnesses: list[dict]) -> list[str]:
    """Lower bounds and witness arithmetic for a reported M(n, k, l)."""
    problems = []
    best_known = max(blocking_products(n, k, l))
    if value < best_known:
        problems.append(f"M({n},{k},{l}) = {value} is below a known pair product {best_known}")
    if not witnesses:
        problems.append(f"M({n},{k},{l}) has no witness")
    for wit in witnesses:
        m, b = wit["a_size"], wit["b_size"]
        if m * b != value:
            problems.append(f"witness {m} x {b} does not give {value}")
        if not 1 <= m <= math.comb(n, k):
            problems.append(f"witness size {m} outside [1, C({n},{k})]")
    return problems


def brute_mnkl(n: int, k: int, l: int) -> int:
    """max |A| * |B| over every first family A of k-sets, by definition."""
    ksets = [sum(1 << e for e in c) for c in itertools.combinations(range(n), k)]
    meets = []
    for c in itertools.combinations(range(n), l):
        b = sum(1 << e for e in c)
        meets.append(sum(1 << idx for idx, a in enumerate(ksets) if a & b))
    best = 0
    for fam in range(1, 1 << len(ksets)):
        size_b = sum(1 for m in meets if m & fam == fam)
        best = max(best, fam.bit_count() * size_b)
    return best


# ---------------------------------------------------------------------------
# Biased-measure maximum
# ---------------------------------------------------------------------------


def up_closure(antichain: list, n: int) -> list[int]:
    """Every subset of [n] (as a bitmask) containing some listed set."""
    gens = [sum(1 << (e - 1) for e in s) for s in antichain]
    return [s for s in range(1 << n) if any(g & s == g for g in gens)]


def biased_measure(fam: list[int], p: Fraction, n: int) -> Fraction:
    return sum(
        (p ** s.bit_count() * (1 - p) ** (n - s.bit_count()) for s in fam),
        start=Fraction(0),
    )


def measure_lower_bound(n: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """alpha*beta times the best blocking-pair ratio for j <= n-2 (and the star)."""
    best = Fraction(1)
    for j in range(n - 1):
        best = max(best, (1 + (1 - alpha) * alpha**j) * (1 - (1 - beta) ** (j + 1)))
    return alpha * beta * best


def measure_problems(
    n: int, alpha: Fraction, beta: Fraction, value: Fraction, witnesses: dict
) -> list[str]:
    """Rebuild each witness pair from its antichains and check it exactly."""
    problems = []
    bound = measure_lower_bound(n, alpha, beta)
    if value < bound:
        problems.append(f"measure value {value} below the blocking bound {bound}")
    pairs = witnesses["pairs"]
    if not pairs:
        problems.append("no witness pair")
    count = witnesses["optimal_count"]
    if isinstance(count, int) and count != len(pairs):
        problems.append(f"optimal_count {count} but {len(pairs)} pairs listed")
    for pair in pairs:
        fam_a = up_closure(pair["a_min"], n)
        fam_b = up_closure(pair["b_min"], n)
        if any(not a & b for a in fam_a for b in fam_b):
            problems.append(f"witness {pair} is not cross-intersecting")
        product = biased_measure(fam_a, alpha, n) * biased_measure(fam_b, beta, n)
        if product != value:
            problems.append(f"witness {pair} has measure product {product}, not {value}")
    return problems


def brute_measure(n: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """max mu_alpha(A) * mu_beta(B) over every pair of families on [n] (small n)."""
    size = 1 << n
    fams = range(1 << size)
    members = [[s for s in range(size) if fam >> s & 1] for fam in fams]
    mu_a = [biased_measure(m, alpha, n) for m in members]
    mu_b = [biased_measure(m, beta, n) for m in members]
    # compatible[A] = every set meeting all members of A
    compatible = [
        sum(1 << s for s in range(size) if all(s & a for a in m)) for m in members
    ]
    best = Fraction(0)
    for fam_a in fams:
        allowed = compatible[fam_a]
        for fam_b in fams:
            if fam_b & ~allowed == 0:
                best = max(best, mu_a[fam_a] * mu_b[fam_b])
    return best


# ---------------------------------------------------------------------------
# Region quantities, recomputed in floats
# ---------------------------------------------------------------------------


def e_j(alpha: float, j: int) -> float:
    """Root in beta of (1 + (1-a) a^j)(1 - (1-b)^(j+1)) = 1."""
    t = alpha**j * (1.0 - alpha)
    return 1.0 - (t / (1.0 + t)) ** (1.0 / (j + 1))


def delta_envelope(alpha: float, j_limit: int = 400) -> float:
    """min over j of e_j(alpha), stopping once (a^j (1-a))^(1/(j+1)) certifies the tail."""
    best = math.inf
    for j in range(j_limit):
        best = min(best, e_j(alpha, j))
        if 1.0 - (alpha**j * (1.0 - alpha)) ** (1.0 / (j + 1)) >= best:
            return best
    raise ArithmeticError(f"envelope at alpha={alpha} not certified")


def in_delta(alpha: float, beta: float) -> bool:
    """Omega membership and beta strictly below every e_j."""
    if not (beta > 0.5 and alpha + beta < 1):
        return False
    return beta < delta_envelope(alpha)


def in_delta_prime(alpha: float, beta: float) -> bool:
    if not (beta > 0.5 and alpha + beta < 1):
        return False
    if (2.0 - alpha) * beta >= 1.0:
        return False
    return (1.0 - alpha) * -math.log1p(-beta) < (1.0 - beta) * -math.log(alpha)


def c1_holds(n: int, k: int, l: int) -> bool:
    return (1 + Fraction(n - k, n - 1)) * Fraction(l - 1, n - 1) < 1


def c2_holds(n: int, k: int, l: int) -> bool:
    def harmonic(lo: int, hi: int) -> Fraction:
        return sum((Fraction(1, i) for i in range(lo, hi + 1)), start=Fraction(0))

    return (n - k) * harmonic(n - l, n - 2) - (n - l) * harmonic(k, n - 2) < 0


# ---------------------------------------------------------------------------
# Explicit families, by definition
# ---------------------------------------------------------------------------


def expected_family(kind: str, n: int, k: int, center: int, j: int, size: int) -> set:
    """The family `crossint family make` should print, as a set of frozensets."""
    ground = range(1, n + 1)
    layer = [frozenset(c) for c in itertools.combinations(ground, k)]
    prefix = set(range(1, j + 3))
    if kind == "star":
        return {s for s in layer if center in s}
    if kind == "afam":
        return {s for s in layer if 1 in s or s & prefix == prefix - {1}}
    if kind == "bfam":
        return {s for s in layer if 1 in s and s & prefix != {1}}
    if kind == "colex":
        return set(sorted(layer, key=lambda s: sorted(s, reverse=True))[:size])
    raise ValueError(kind)


def parse_family(text: str) -> tuple[int, int, list[frozenset]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, k = (int(tok) for tok in lines[0].split())
    return n, k, [frozenset(int(tok) for tok in ln.split()) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _span(argv: list[str], name: str) -> tuple[str, str]:
    """The two values after a two-valued option such as --n-range LO HI."""
    idx = argv.index(name)
    return argv[idx + 1], argv[idx + 2]


def _csv_rows(stdout: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    return rows[0], rows[1:]


def _expect_exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# what a malformed stdout can raise while a check reads it
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError, ArithmeticError)


def cli_problems(kind: str, argv: list[str], code: int, stdout: str, files: dict) -> list[str]:
    """Check one `crossint` invocation; `files` maps paths to their text."""
    try:
        return _CLI_CHECKS[kind](argv, code, stdout, files)
    except _MALFORMED as exc:
        return [f"{kind}: output does not parse ({type(exc).__name__}: {exc})"]


def _check_point(argv, code, stdout, files):
    report = json.loads(stdout)
    alpha, beta = float(_option(argv, "--alpha")), float(_option(argv, "--beta"))
    conds = report["conditions"]
    problems = []
    if set(conds) != {"delta", "delta-prime", "claims"}:
        problems.append(f"conditions {sorted(conds)}")
    if conds["delta"] != in_delta(alpha, beta):
        problems.append(f"delta at ({alpha}, {beta}) reported {conds['delta']}")
    if conds["delta-prime"] != in_delta_prime(alpha, beta):
        problems.append(f"delta-prime at ({alpha}, {beta}) reported {conds['delta-prime']}")
    claims = conds["claims"]
    if claims["holds"] != all(claims["detail"].values()):
        problems.append("claims verdict disagrees with its detail")
    all_hold = conds["delta"] and conds["delta-prime"] and claims["holds"]
    if report["all_hold"] != all_hold:
        problems.append("all_hold disagrees with the conditions")
    return problems + _expect_exit(code, 0 if all_hold else 1)


def _check_nkl(argv, code, stdout, files):
    report = json.loads(stdout)
    n, k, l = (int(tok) for tok in argv[1:4])
    want = {"c1": c1_holds(n, k, l), "c2": c2_holds(n, k, l)}
    problems = []
    if report["conditions"] != want:
        problems.append(f"({n},{k},{l}) conditions {report['conditions']}, expected {want}")
    if report["all_hold"] != all(want.values()):
        problems.append("all_hold disagrees with the conditions")
    return problems + _expect_exit(code, 0 if all(want.values()) else 1)


def _alphas(argv: list[str]) -> list[float]:
    grid = int(_option(argv, "--grid"))
    lo, hi = (float(x) for x in _span(argv, "--alpha-range"))
    return [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]


def _check_region_ej(argv, code, stdout, files):
    header, rows = _csv_rows(stdout)
    problems = _expect_exit(code, 0)
    if header != ["alpha", "value", "label"] or len(rows) != 6 * len(_alphas(argv)):
        problems.append(f"ej table has header {header} and {len(rows)} rows")
    for alpha, value, label in rows:
        a, v, j = float(alpha), float(value), int(label[1:])
        lhs = (1 + (1 - a) * a**j) * (1 - (1 - v) ** (j + 1))
        if abs(lhs - 1) > 1e-9:
            problems.append(f"e{j}({a}) = {v} misses the curve by {lhs - 1:.3g}")
    return problems


def _check_region_delta(argv, code, stdout, files):
    header, rows = _csv_rows(stdout)
    problems = _expect_exit(code, 0)
    if header != ["alpha", "value"] or len(rows) != len(_alphas(argv)):
        problems.append(f"delta table has header {header} and {len(rows)} rows")
    for alpha, value in rows:
        a, v = float(alpha), float(value)
        want = delta_envelope(a)
        if abs(v - want) > 1e-9:
            problems.append(f"delta({a}) = {v}, recomputed {want}")
    return problems


def _check_region_delta_prime(argv, code, stdout, files):
    header, rows = _csv_rows(stdout)
    problems = _expect_exit(code, 0)
    if header != ["alpha", "value"] or len(rows) != len(_alphas(argv)):
        problems.append(f"delta-prime table has header {header} and {len(rows)} rows")
    for alpha, value in rows:
        a, v = float(alpha), float(value)
        cap = 1.0 / (2.0 - a)
        gap = (1.0 - a) * -math.log1p(-v) - (1.0 - v) * -math.log(a)
        if v > cap + 1e-12 or (abs(v - cap) > 1e-12 and abs(gap) > 1e-9):
            problems.append(f"delta-prime({a}) = {v} is neither the cap nor a root")
    return problems


def _check_mnkl_both(argv, code, stdout, files):
    report = json.loads(stdout)
    n, k, l = (int(tok) for tok in argv[1:4])
    res = report["results"]
    want = brute_mnkl(n, k, l)
    problems = _expect_exit(code, 0)
    if report["agree"] is not True:
        problems.append("cascade and enumeration disagree")
    for name in ("cascade", "enumeration"):
        if int(res[name]["value"]) != want:
            problems.append(f"{name} value {res[name]['value']}, brute force {want}")
    return problems


def _check_mnkl(argv, code, stdout, files):
    report = json.loads(stdout)
    n, k, l = (int(tok) for tok in argv[1:4])
    res = report["results"]["cascade"]
    return _expect_exit(code, 0) + mnkl_problems(n, k, l, int(res["value"]), res["witnesses"])


def _check_scan(argv, code, stdout, files):
    problems = _expect_exit(code, 0)
    lines = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]
    n_range, k_range, l_range = (
        range(int(lo), int(hi) + 1)
        for lo, hi in (_span(argv, f"--{x}-range") for x in "nkl")
    )
    want = [
        (n, k, l)
        for n in n_range
        for k in k_range
        for l in l_range
        if 2 * l > n and k + l < n
    ]
    if [(r["n"], r["k"], r["l"]) for r in lines] != want:
        problems.append(f"scan covered {len(lines)} instances, expected {len(want)}")
    for rep in lines:
        n, k, l = rep["n"], rep["k"], rep["l"]
        products = blocking_products(n, k, l)
        if int(rep["star_product"]) != products[0]:
            problems.append(f"({n},{k},{l}) star product {rep['star_product']}")
        for row in rep["hypothesis"]["per_j"]:
            prod = products[row["j"] + 1]
            if int(row["product"]) != prod or row["holds"] != (prod < products[0]):
                problems.append(f"({n},{k},{l}) blocking pair j={row['j']} misreported")
        oracle = rep["oracle"]
        if oracle is not None and int(oracle["value"]) < max(products):
            problems.append(f"({n},{k},{l}) oracle value below a known pair product")
    return problems


def _check_measure(argv, code, stdout, files):
    report = json.loads(stdout)
    n = int(argv[1])
    alpha, beta = Fraction(_option(argv, "--alpha")), Fraction(_option(argv, "--beta"))
    res = report["result"]
    value = Fraction(res["value"])
    problems = _expect_exit(code, 0) + measure_problems(n, alpha, beta, value, res["witnesses"])
    if report["equals_alpha_beta"] != (value == alpha * beta):
        problems.append("equals_alpha_beta misreported")
    return problems


def _check_family_make(argv, code, stdout, files):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    opts = {
        name: int(_option(argv, f"--{name}")) if f"--{name}" in argv else 0
        for name in ("center", "j", "size")
    }
    want = expected_family(argv[2], n, k, opts["center"], opts["j"], opts["size"])
    got_n, got_k, members = parse_family(stdout)
    problems = _expect_exit(code, 0)
    if (got_n, got_k) != (n, k) or len(members) != len(want) or set(members) != want:
        problems.append(f"family make {argv[2]} printed {len(members)} sets, expected {len(want)}")
    return problems


def _check_family_cross(argv, code, stdout, files):
    report = json.loads(stdout)
    _, _, fam_a = parse_family(files[argv[2]])
    _, _, fam_b = parse_family(files[argv[3]])
    crossing = all(a & b for a in fam_a for b in fam_b)
    problems = _expect_exit(code, 0 if crossing else 1)
    if report["cross_intersecting"] != crossing:
        problems.append(f"cross verdict {report['cross_intersecting']}, direct test {crossing}")
    if (report["size_a"], report["size_b"]) != (len(fam_a), len(fam_b)):
        problems.append("family sizes misreported")
    return problems


_CLI_CHECKS = {
    "check-point": _check_point,
    "check-nkl": _check_nkl,
    "region-ej": _check_region_ej,
    "region-delta": _check_region_delta,
    "region-delta-prime": _check_region_delta_prime,
    "mnkl-both": _check_mnkl_both,
    "mnkl": _check_mnkl,
    "scan": _check_scan,
    "measure": _check_measure,
    "family-make": _check_family_make,
    "family-cross": _check_family_cross,
}
