"""Command-line front end.

Subcommands expose the oracles (mnkl, measure, scan), the region calculus
(check, region), and family import/export (family).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success / all conditions hold,
1 a requested condition fails or methods disagree, 2 usage error,
3 capacity (or a comparison of logarithms past regions.MAX_LOG_DIGITS).
`check` checks its usage in full before it decides any condition, so a
usage error wins over capacity and the order of the names does not
change the exit code.

Each command takes only the options it reads; caps, tolerances and
budgets are module constants, not options.  Reports are JSON with a
schema tag, except the CSV figure tables of `region`, and carry no wall
times, so output is byte-stable for a fixed invocation.  Each handler
imports the modules it runs when called, so no command loads another's.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CapacityError, CrossIntError

SCHEMA = "crossint-report/4"

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _report(command: str, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, **body}


def _emit_json(report: dict) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _emit_csv_rows(header: list[str], rows: list[tuple]) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            cells.append(f"{cell:.15g}" if isinstance(cell, float) else str(cell))
        sys.stdout.write(",".join(cells) + "\n")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _parse_bias(text: str) -> Fraction:
    """A decimal literal or P/Q, read exactly; its nearest float must be in (0, 1)."""
    try:
        # float() reads a long exponent at once; Fraction builds 10^exponent
        value = Fraction(text) if "/" in text else float(text)
        if 0 < value < 1 and 0 < float(value) < 1:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    raise argparse.ArgumentTypeError(f"not a number in (0, 1): {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossint",
        description="Exact oracles for maximum products of cross-intersecting families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mnkl", help="maximum size product M(n,k,l)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--method", choices=("cascade", "enum", "both"), default="cascade")

    p = sub.add_parser("region", help="figure data as CSV")
    p.add_argument("--what", choices=("ej", "delta", "delta-prime"), required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument(
        "--alpha-range",
        nargs=2,
        type=float,
        default=(0.01, 0.49),
        metavar=("LO", "HI"),
    )

    p = sub.add_parser("check", help="evaluate named conditions")
    p.add_argument("nkl", nargs="*", type=int, metavar="N K L")
    p.add_argument("--alpha", type=_parse_bias)
    p.add_argument("--beta", type=_parse_bias)
    p.add_argument(
        "--conditions",
        required=True,
        help="comma list from: c1,c2,delta,delta-prime,claims",
    )

    p = sub.add_parser("measure", help="exact measure maximum")
    p.add_argument("n", type=int)
    p.add_argument("--alpha", type=_parse_fraction, required=True, metavar="P/Q")
    p.add_argument("--beta", type=_parse_fraction, required=True, metavar="R/S")

    p = sub.add_parser("scan", help="stream conjecture evidence")
    p.add_argument("--n-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("--k-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("--l-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))

    p = sub.add_parser("family", help="family import/export")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    mk = fam_sub.add_parser("make")
    mk.add_argument("kind", choices=("star", "afam", "bfam", "colex"))
    mk.add_argument("--n", type=int, required=True)
    mk.add_argument("--k", type=int, required=True)
    mk.add_argument("--center", type=int, help="star only (default 1)")
    mk.add_argument("--j", type=int, help="afam and bfam only (default 0)")
    mk.add_argument("--size", type=int, help="colex only: segment size (default 1)")
    info = fam_sub.add_parser("info")
    info.add_argument("path")
    cross = fam_sub.add_parser("cross")
    cross.add_argument("path_a")
    cross.add_argument("path_b")
    return parser


def _cmd_mnkl(args: argparse.Namespace) -> int:
    from . import oracle
    results = {}
    nkl = (args.n, args.k, args.l)
    if args.method in ("cascade", "both"):
        results["cascade"] = oracle.max_product_cascade(*nkl).to_dict()
    if args.method in ("enum", "both"):
        results["enumeration"] = oracle.max_product_enumeration(*nkl).to_dict()
    body = {"results": results}
    if args.method == "both":
        body["agree"] = results["cascade"]["value"] == results["enumeration"]["value"]
    _emit_json(_report("mnkl", body))
    if args.method == "both" and not body["agree"]:
        return EXIT_CONDITION_FAILED
    return EXIT_OK


def _cmd_region(args: argparse.Namespace) -> int:
    from . import regions
    header, rows = regions.curve_samples(
        args.what, args.grid, alpha_range=tuple(args.alpha_range)
    )
    _emit_csv_rows(header, rows)
    return EXIT_OK


def _claims(alpha: Fraction, beta: Fraction) -> dict:
    """The window conditions of the paper's claims at one point, on one log table."""
    from . import regions
    logs: dict = {}
    i_first = regions._i0(alpha, logs)
    windows = {
        "A(2,1)": (2, 1, "A"),
        "A(3,1)": (3, 1, "A"),
        "B(2,2)": (2, 2, "B"),
        f"C(i0={i_first})": (i_first, None, "C"),
    }
    if alpha > 0.23:
        windows["B(3,1)"] = (3, 1, "B")
    detail = {
        name: regions._product_bound(alpha, beta, *window, logs)
        for name, window in windows.items()
    }
    return {"holds": all(detail.values()), "detail": detail}


def _cmd_check(args: argparse.Namespace) -> int:
    from . import regions
    # each condition: whether it reads a point (else N K L), and its decider
    conditions = {
        "c1": (False, regions.condition_c1),
        "c2": (False, regions.condition_c2),
        "delta": (True, regions.in_delta),
        "delta-prime": (True, regions.in_delta_prime),
        "claims": (True, _claims),
    }
    wanted = [tok.strip() for tok in args.conditions.split(",") if tok.strip()]
    unknown = [name for name in wanted if name not in conditions]
    if unknown or not wanted:
        what = f"unknown condition {unknown[0]!r}" if unknown else "no condition given"
        raise ValueError(f"{what}; choose from {','.join(conditions)}")
    if args.nkl and (args.alpha is not None or args.beta is not None):
        raise ValueError("give either N K L or --alpha/--beta, not both")
    if args.nkl and len(args.nkl) != 3:
        raise ValueError(f"need exactly three integers N K L, got {len(args.nkl)}")
    for name in wanted:
        if conditions[name][0] == bool(args.nkl):
            needs = "--alpha/--beta" if args.nkl else "integer arguments n k l"
            raise ValueError(f"condition {name!r} needs {needs}")
    if not args.nkl and (args.alpha is None or args.beta is None):
        raise ValueError("point conditions need both --alpha and --beta")
    if args.nkl:
        body: dict = dict(zip("nkl", args.nkl))
    else:
        body = {"alpha": float(args.alpha), "beta": float(args.beta)}
    # usage is checked in full above; only now is any condition decided
    inputs = args.nkl or (args.alpha, args.beta)
    body["conditions"] = {name: conditions[name][1](*inputs) for name in wanted}
    body["all_hold"] = all(
        value["holds"] if isinstance(value, dict) else value
        for value in body["conditions"].values()
    )
    _emit_json(_report("check", body))
    return EXIT_OK if body["all_hold"] else EXIT_CONDITION_FAILED


def _cmd_measure(args: argparse.Namespace) -> int:
    from . import oracle
    from .exactarith import exact_text
    result = oracle.measure_oracle(args.n, args.alpha, args.beta)
    product = args.alpha * args.beta
    body = {
        "result": result.to_dict(),
        "alpha_beta": exact_text(product),
        "equals_alpha_beta": result.value == product,
    }
    _emit_json(_report("measure", body))
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import oracle
    emitted = 0
    reached = 0
    (n_lo, n_hi), (k_lo, k_hi), (l_lo, l_hi) = args.n_range, args.k_range, args.l_range
    # each loop stops at the bounds of Omega' (k >= 1, 2l > n, k + l < n),
    # so only its instances are walked, in box order; (5, 1, 3) is the first
    k_lo = max(k_lo, 1)
    for n in range(max(n_lo, 5, k_lo + l_lo + 1), min(n_hi, 2 * l_hi - 1) + 1):
        l_first = max(l_lo, n // 2 + 1)
        for k in range(k_lo, min(k_hi, n - 1 - l_first) + 1):
            for l in range(l_first, min(l_hi, n - 1 - k) + 1):
                report = oracle.conjecture_scan(n, k, l)
                if report["label"] != "out-of-reach":
                    reached += 1
                line = json.dumps(
                    _report("scan", report),
                    sort_keys=True,
                    separators=(",", ":"),
                    allow_nan=False,
                )
                sys.stdout.write(line + "\n")
                emitted += 1
    if emitted > 0 and reached == 0:
        print("every instance exceeded oracle capacity", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    from . import families

    def read(path: str) -> families.UniformFamily:
        with open(path, encoding="ascii") as handle:
            return families.from_text(handle.read())

    if args.family_command == "make":
        # each kind reads one of --center, --j and --size, which the parser
        # leaves None when absent: that option, its default and the builder
        reads, default, build = {
            "star": ("center", 1, families.star_uniform),
            "afam": ("j", 0, families.a_family_uniform),
            "bfam": ("j", 0, families.b_family_uniform),
            "colex": ("size", 1, lambda n, k, m: families.colex_segment(m, k, n)),
        }[args.kind]
        for name in ("center", "j", "size"):
            if name != reads and getattr(args, name) is not None:
                raise ValueError(f"family make {args.kind} takes no --{name}")
        value = getattr(args, reads)
        fam = build(args.n, args.k, default if value is None else value)
        sys.stdout.write(families.to_text(fam))
        return EXIT_OK
    if args.family_command == "info":
        fam = read(args.path)
        _emit_json(_report("family-info", {"n": fam.n, "k": fam.k, "size": len(fam)}))
        return EXIT_OK
    fam_a, fam_b = read(args.path_a), read(args.path_b)
    crossing = families.is_cross_intersecting(fam_a, fam_b)
    body = {
        "cross_intersecting": crossing,
        "size_a": len(fam_a),
        "size_b": len(fam_b),
        "product": str(len(fam_a) * len(fam_b)),
    }
    _emit_json(_report("family-cross", body))
    return EXIT_OK if crossing else EXIT_CONDITION_FAILED


_DISPATCH = {
    "mnkl": _cmd_mnkl,
    "region": _cmd_region,
    "check": _cmd_check,
    "measure": _cmd_measure,
    "scan": _cmd_scan,
    "family": _cmd_family,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, CrossIntError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
