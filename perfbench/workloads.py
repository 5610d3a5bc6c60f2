"""The three seeded workloads: inputs, the timed operation, and its checks.

sweep    max_product_cascade(n, k, l) in-process.  One instance per slot of
         SWEEP_SLOTS; the seed draws l, and every pass has the same (n, k)
         mix, so a pass costs about the same whatever the seed.
measure  measure_oracle(5, alpha, beta) in-process on a stratified grid: one
         seeded rational point in each of 10 x 12 cells of (0, 1/2) x (0, 1).
cli      one `python -m crossint.cli` subprocess at a time (a closed loop
         with one client) over a fixed mix of short commands with seeded
         arguments.

No workload passes --threads, and worker_env() drops CROSSINT_THREADS, so the
sweep's process pool never starts.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CROSSINT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Workload:
    """Inputs from a seed, one timed operation per item, and its checks."""

    # whose peak resident memory peak_rss_mb reports
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Imports and warm-up; everything before the first timed operation."""

    def run(self, item):
        raise NotImplementedError

    def run_traced(self, item):
        """The same operation in-process, so that the tracer sees every layer."""
        return self.run(item)

    def problems(self, item, output) -> list[str]:
        raise NotImplementedError

    def reference_problems(self) -> list[str]:
        """Checks against definition-level oracles, outside the timed runs."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# (n, k) with C(n, k) from 1.5e4 to 3.5e5, so that a pass takes about 5 s
# and a run holds several passes.  Even slots draw l from Omega'
# (l > n/2, k + l < n), where the star is often beaten; odd slots draw l
# from the four values up to n/2, where the star is optimal.  The sweep's
# cost varies little with l in those windows, so the seed changes the
# answers without changing what a pass costs.
SWEEP_SLOTS = (
    (20, 5), (22, 5), (24, 5), (21, 6), (22, 6),
    (23, 6), (21, 7), (24, 6), (25, 6), (24, 7),
)
# the swapped instance (n, l, k) is re-solved when C(n, l) is at most this
SWAP_CAP = 200_000
# definition-level brute force covers these; C(n, k) <= 15 keeps it quick
TINY_MNKL = ((5, 2, 2), (5, 2, 3), (6, 2, 3), (6, 2, 4), (6, 4, 2))


class Sweep(Workload):
    name = "sweep"

    def make_inputs(self, rng):
        items = []
        for idx, (n, k) in enumerate(SWEEP_SLOTS):
            if idx % 2 == 0:
                choices = range(n // 2 + 1, n - k)
            else:
                choices = range(n // 2 - 3, n // 2 + 1)
            items.append((n, k, rng.choice(choices)))
        rng.shuffle(items)
        return items

    def setup(self):
        from crossint import oracle

        self.oracle = oracle
        oracle.max_product_cascade(12, 4, 7)

    def run(self, item):
        res = self.oracle.max_product_cascade(*item)
        return res.value, res.witnesses

    def problems(self, item, output):
        n, k, l = item
        value, witnesses = output
        found = checks.mnkl_problems(n, k, l, value, witnesses)
        if checks.comb0(n, l) <= SWAP_CAP:
            swapped = self.oracle.max_product_cascade(n, l, k).value
            if swapped != value:
                found.append(f"M({n},{k},{l}) = {value} but M({n},{l},{k}) = {swapped}")
        return found

    def reference_problems(self):
        found = []
        for n, k, l in TINY_MNKL:
            got = self.oracle.max_product_cascade(n, k, l).value
            want = checks.brute_mnkl(n, k, l)
            if got != want:
                found.append(f"M({n},{k},{l}) = {got}, brute force {want}")
        return found


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

MEASURE_N = 5
ALPHA_CELLS, BETA_CELLS = 10, 12
# points also solved at n = 3 and compared with a search over all pairs
BRUTE_POINTS = 3


class Measure(Workload):
    name = "measure"

    def make_inputs(self, rng):
        # alpha = (4i + r)/80 lies in cell (i/20, (i+1)/20); beta likewise
        # in (j/12, (j+1)/12).  The grid straddles every e_j curve.
        items = [
            (Fraction(4 * i + rng.randint(1, 3), 80), Fraction(5 * j + rng.randint(1, 4), 60))
            for i in range(ALPHA_CELLS)
            for j in range(BETA_CELLS)
        ]
        rng.shuffle(items)
        return items

    def setup(self):
        from crossint import oracle

        self.oracle = oracle
        oracle.measure_oracle(4, Fraction(1, 3), Fraction(1, 2))

    def run(self, item):
        res = self.oracle.measure_oracle(MEASURE_N, *item)
        return res.value, res.witnesses

    def problems(self, item, output):
        value, witnesses = output
        return checks.measure_problems(MEASURE_N, *item, value, witnesses)

    def reference_problems(self):
        found = []
        for alpha, beta in self.items[:BRUTE_POINTS]:
            got = self.oracle.measure_oracle(3, alpha, beta).value
            want = checks.brute_measure(3, alpha, beta)
            if got != want:
                found.append(f"measure(3, {alpha}, {beta}) = {got}, brute force {want}")
        return found


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _point(rng: random.Random, in_omega: bool) -> tuple[float, float]:
    """A point kept clear of every e_j and of the certification edge 1 - alpha."""
    while True:
        alpha = round(rng.uniform(0.02, 0.48), 4)
        if in_omega:
            beta = round(rng.uniform(0.51, 0.98 - alpha), 4)
        else:
            beta = round(rng.uniform(0.02, 0.98), 4)
        near_curve = any(abs(beta - checks.e_j(alpha, j)) < 1e-6 for j in range(80))
        if not near_curve and abs(alpha + beta - 1) > 0.02:
            return alpha, beta


def _omega_prime_nkl(rng: random.Random) -> list[str]:
    n = rng.randint(8, 60)
    l = rng.randint(n // 2 + 1, n - 2)
    k = rng.randint(1, n - l - 1)
    return [str(n), str(k), str(l)]


class Cli(Workload):
    name = "cli"
    rusage_who = resource.RUSAGE_CHILDREN

    def make_inputs(self, rng):
        self.workdir = RESULTS / f"cli-work-{self.seed}"
        units = []
        for idx in range(3):
            alpha, beta = _point(rng, in_omega=idx == 0)
            argv = ["check", "--alpha", str(alpha), "--beta", str(beta)]
            units.append([("check-point", argv + ["--conditions", "delta,delta-prime,claims"])])
        for _ in range(2):
            argv = ["check", *_omega_prime_nkl(rng), "--conditions", "c1,c2"]
            units.append([("check-nkl", argv)])
        for what in ("ej", "delta", "delta-prime"):
            lo = rng.randint(1, 5) / 100
            hi = rng.randint(40, 49) / 100
            argv = ["region", "--what", what, "--grid", str(rng.randint(20, 60))]
            units.append([(f"region-{what}", argv + ["--alpha-range", str(lo), str(hi)])])
        # C(n, k) = 15 and 10: the enumeration oracle walks 2^C(n,k) families
        for n, k in (rng.choice([(6, 2), (6, 4)]), rng.choice([(5, 2), (5, 3)])):
            l = rng.randint(1, n - k)
            units.append([("mnkl-both", ["mnkl", str(n), str(k), str(l), "--method", "both"])])
        for _ in range(2):
            n, k = rng.randint(12, 16), rng.randint(3, 5)
            units.append([("mnkl", ["mnkl", str(n), str(k), str(rng.randint(1, n - k))])])
        n0 = rng.randint(9, 11)
        units.append([(
            "scan",
            ["scan", "--n-range", str(n0), str(n0 + 1), "--k-range", "1", "3",
             "--l-range", str(n0 // 2 + 1), str(n0 // 2 + 3)],
        )])
        for _ in range(2):
            q, s = rng.randint(3, 12), rng.randint(3, 12)
            alpha = Fraction(rng.randint(1, (q - 1) // 2), q)
            beta = Fraction(rng.randint(1, s - 1), s)
            argv = ["measure", "4", "--alpha", str(alpha), "--beta", str(beta)]
            units.append([("measure", argv)])
        units.append(self._family_unit(rng))
        rng.shuffle(units)
        return [item for unit in units for item in unit]

    def _family_unit(self, rng):
        """Two `family make` calls, then `family cross` on the files they wrote."""
        n = rng.randint(8, 10)
        k = rng.randint(2, 3)
        l = rng.randint(n // 2, n - k - 1)
        pair = rng.choice(["stars", "blocking", "split"])
        if pair == "stars":
            center = str(rng.randint(1, n))
            first = ["star", "--k", str(k), "--center", center]
            second = ["star", "--k", str(l), "--center", center]
        elif pair == "blocking":
            j = str(rng.randint(0, k - 1))
            first = ["afam", "--k", str(k), "--j", j]
            second = ["bfam", "--k", str(l), "--j", j]
        else:
            first = ["star", "--k", str(k), "--center", "1"]
            second = ["star", "--k", str(l), "--center", "2"]
        paths = [str((self.workdir / f"{name}.txt").relative_to(ROOT)) for name in "ab"]
        return [
            ("family-make", ["family", "make", first[0], "--n", str(n), *first[1:]], paths[0]),
            ("family-make", ["family", "make", second[0], "--n", str(n), *second[1:]], paths[1]),
            ("family-cross", ["family", "cross", *paths]),
        ]

    def setup(self):
        self.env = worker_env()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.run(("region-ej", ["region", "--what", "ej", "--grid", "2"]))

    def run(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "crossint.cli", *item[1]],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if len(item) > 2:
            (ROOT / item[2]).write_text(proc.stdout, encoding="ascii")
        return proc.returncode, proc.stdout

    def run_traced(self, item):
        from crossint import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(item[1])
        if len(item) > 2:
            (ROOT / item[2]).write_text(out.getvalue(), encoding="ascii")
        return code, out.getvalue()

    def problems(self, item, output):
        code, stdout = output
        files = {}
        if item[0] == "family-cross":
            files = {p: (ROOT / p).read_text(encoding="ascii") for p in item[1][2:]}
        return checks.cli_problems(item[0], item[1], code, stdout, files)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Sweep, Measure, Cli)}
