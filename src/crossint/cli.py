"""Command-line front end.

Subcommands expose the oracles (mnkl, measure, scan), the region calculus
(check, region), and family import/export (family).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success / all conditions hold,
1 a requested condition fails or methods disagree, 2 usage error,
3 capacity (or a comparison of logarithms past regions.MAX_LOG_DIGITS).

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


def _point_conditions(alpha: Fraction, beta: Fraction, wanted: list[str]) -> dict:
    from . import regions
    out = {}
    for name in wanted:
        if name == "delta":
            out["delta"] = regions.in_delta(alpha, beta)
        elif name == "delta-prime":
            out["delta-prime"] = regions.in_delta_prime(alpha, beta)
        else:
            i_first = regions.i0(alpha)
            checks = {
                "A(2,1)": regions.product_bound_condition(alpha, beta, 2, 1, "A"),
                "A(3,1)": regions.product_bound_condition(alpha, beta, 3, 1, "A"),
                "B(2,2)": regions.product_bound_condition(alpha, beta, 2, 2, "B"),
                f"C(i0={i_first})": regions.product_bound_condition(
                    alpha, beta, i_first, None, "C"
                ),
            }
            if alpha > 0.23:
                checks["B(3,1)"] = regions.product_bound_condition(
                    alpha, beta, 3, 1, "B"
                )
            out["claims"] = {"holds": all(checks.values()), "detail": checks}
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    from . import regions
    known = ("c1", "c2", "delta", "delta-prime", "claims")
    wanted = [tok.strip() for tok in args.conditions.split(",") if tok.strip()]
    unknown = [name for name in wanted if name not in known]
    if unknown or not wanted:
        what = f"unknown condition {unknown[0]!r}" if unknown else "no condition given"
        raise ValueError(f"{what}; choose from {','.join(known)}")
    integer_mode = bool(args.nkl)
    body: dict = {"conditions": {}}
    if integer_mode:
        if args.alpha is not None or args.beta is not None:
            raise ValueError("give either N K L or --alpha/--beta, not both")
        if len(args.nkl) != 3:
            raise ValueError(f"need exactly three integers N K L, got {len(args.nkl)}")
        n, k, l = args.nkl
        body.update(n=n, k=k, l=l)
        for name in wanted:
            if name == "c1":
                body["conditions"]["c1"] = regions.condition_c1(n, k, l)
            elif name == "c2":
                body["conditions"]["c2"] = regions.condition_c2(n, k, l)
            else:
                raise ValueError(f"condition {name!r} needs --alpha/--beta")
    else:
        for name in wanted:
            if name in ("c1", "c2"):
                raise ValueError(f"condition {name!r} needs integer arguments n k l")
        if args.alpha is None or args.beta is None:
            raise ValueError("point conditions need both --alpha and --beta")
        body.update(alpha=float(args.alpha), beta=float(args.beta))
        body["conditions"] = _point_conditions(args.alpha, args.beta, wanted)
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
    if args.family_command == "make":
        # each kind reads one of --center, --j and --size, which the parser
        # leaves None when absent
        reads, default = {
            "star": ("center", 1),
            "afam": ("j", 0),
            "bfam": ("j", 0),
            "colex": ("size", 1),
        }[args.kind]
        for name in ("center", "j", "size"):
            if name != reads and getattr(args, name) is not None:
                raise ValueError(f"family make {args.kind} takes no --{name}")
        value = default if getattr(args, reads) is None else getattr(args, reads)
        if args.kind == "star":
            fam = families.star_uniform(args.n, args.k, value)
        elif args.kind == "afam":
            fam = families.a_family_uniform(args.n, args.k, value)
        elif args.kind == "bfam":
            fam = families.b_family_uniform(args.n, args.k, value)
        else:
            fam = families.colex_segment(value, args.k, args.n)
        sys.stdout.write(families.to_text(fam))
        return EXIT_OK
    if args.family_command == "info":
        with open(args.path, encoding="ascii") as handle:
            fam = families.from_text(handle.read())
        _emit_json(_report("family-info", {"n": fam.n, "k": fam.k, "size": len(fam)}))
        return EXIT_OK
    with open(args.path_a, encoding="ascii") as handle:
        fam_a = families.from_text(handle.read())
    with open(args.path_b, encoding="ascii") as handle:
        fam_b = families.from_text(handle.read())
    crossing = families.is_cross_intersecting(fam_a, fam_b)
    report = _report(
        "family-cross",
        {
            "cross_intersecting": crossing,
            "size_a": len(fam_a),
            "size_b": len(fam_b),
            "product": str(len(fam_a) * len(fam_b)),
        },
    )
    _emit_json(report)
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
