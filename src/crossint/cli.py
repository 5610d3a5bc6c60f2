"""Command-line front end.

Subcommands expose the oracles (mnkl, measure, scan), the region calculus
(check, region), and family import/export (family).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success / all conditions hold,
1 a requested condition fails or methods disagree, 2 usage error,
3 capacity or undecidability.

Reports embed the run configuration and a schema tag so outputs are
reproducible byte for byte; elapsed_ms is 0.0 unless --timing is given,
keeping default output deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import families, oracle, regions
from .errors import (
    CapacityError,
    CertificationError,
    CrossIntError,
    UndecidableAtTolerance,
)
from .exactarith import DEFAULT_TOL

SCHEMA = "crossint-report/1"

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


@dataclass(frozen=True)
class RunConfig:
    tolerance: float
    j_cap: int
    i_max: int
    sweep_budget: int
    output: str


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        tolerance=args.tolerance,
        j_cap=args.j_cap,
        i_max=args.i_max,
        sweep_budget=args.sweep_budget,
        output=args.output,
    )


def _report(config: RunConfig, command: str, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "config": asdict(config), **body}


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    shared.add_argument(
        "--j-cap", dest="j_cap", type=int, default=regions.DEFAULT_J_CAP
    )
    shared.add_argument(
        "--i-max", dest="i_max", type=int, default=regions.DEFAULT_I_MAX
    )
    shared.add_argument(
        "--sweep-budget",
        dest="sweep_budget",
        type=int,
        default=oracle.DEFAULT_SWEEP_BUDGET,
    )
    shared.add_argument("--output", choices=("json", "csv"), default="json")
    shared.add_argument(
        "--timing", action="store_true", help="include real elapsed_ms in reports"
    )

    parser = argparse.ArgumentParser(
        prog="crossint",
        description="Exact oracles for maximum products of cross-intersecting families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mnkl", parents=[shared], help="maximum size product M(n,k,l)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--method", choices=("cascade", "enum", "both"), default="cascade")

    p = sub.add_parser("region", parents=[shared], help="figure data as CSV")
    p.add_argument("--what", choices=("ej", "delta", "delta-prime"), required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument(
        "--alpha-range",
        nargs=2,
        type=float,
        default=(0.01, 0.49),
        metavar=("LO", "HI"),
    )

    p = sub.add_parser("check", parents=[shared], help="evaluate named conditions")
    p.add_argument("nkl", nargs="*", type=int, metavar="N K L")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument(
        "--conditions",
        required=True,
        help="comma list from: c1,c2,delta,delta-prime,claims",
    )

    p = sub.add_parser("measure", parents=[shared], help="exact measure maximum")
    p.add_argument("n", type=int)
    p.add_argument("--alpha", type=_parse_fraction, required=True, metavar="P/Q")
    p.add_argument("--beta", type=_parse_fraction, required=True, metavar="R/S")

    p = sub.add_parser("scan", parents=[shared], help="stream conjecture evidence")
    p.add_argument("--n-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("--k-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("--l-range", nargs=2, type=int, required=True, metavar=("LO", "HI"))
    p.add_argument("--j-max", type=int, default=64)

    # the shared options belong to the leaves only, so none is silently dropped
    p = sub.add_parser("family", help="family import/export")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    mk = fam_sub.add_parser("make", parents=[shared])
    mk.add_argument("kind", choices=("star", "afam", "bfam", "colex"))
    mk.add_argument("--n", type=int, required=True)
    mk.add_argument("--k", type=int, required=True)
    mk.add_argument("--center", type=int, default=1)
    mk.add_argument("--j", type=int, default=0)
    mk.add_argument("--size", type=int, default=1, help="segment size for colex")
    info = fam_sub.add_parser("info", parents=[shared])
    info.add_argument("path")
    cross = fam_sub.add_parser("cross", parents=[shared])
    cross.add_argument("path_a")
    cross.add_argument("path_b")
    return parser


def _cmd_mnkl(args: argparse.Namespace, config: RunConfig) -> int:
    results = {}
    if args.method in ("cascade", "both"):
        results["cascade"] = oracle.max_product_cascade(
            args.n,
            args.k,
            args.l,
            sweep_budget=config.sweep_budget,
            timing=args.timing,
        ).to_dict()
    if args.method in ("enum", "both"):
        results["enumeration"] = oracle.max_product_enumeration(
            args.n, args.k, args.l, timing=args.timing
        ).to_dict()
    body = {"results": results}
    if args.method == "both":
        body["agree"] = results["cascade"]["value"] == results["enumeration"]["value"]
    report = _report(config, "mnkl", body)
    if config.output == "csv":
        rows = [
            (name, res["value"], res["method"]) for name, res in results.items()
        ]
        _emit_csv_rows(["result", "value", "method"], rows)
    else:
        _emit_json(report)
    if args.method == "both" and not body["agree"]:
        return EXIT_CONDITION_FAILED
    return EXIT_OK


def _cmd_region(args: argparse.Namespace, config: RunConfig) -> int:
    header, rows = regions.curve_samples(
        args.what,
        args.grid,
        alpha_range=tuple(args.alpha_range),
        j_cap=config.j_cap,
    )
    _emit_csv_rows(header, rows)
    return EXIT_OK


def _point_conditions(
    alpha: float, beta: float, wanted: list[str], config: RunConfig
) -> dict:
    out = {}
    for name in wanted:
        if name == "delta":
            out["delta"] = regions.in_delta(
                alpha, beta, j_cap=config.j_cap, tol=config.tolerance
            )
        elif name == "delta-prime":
            out["delta-prime"] = regions.in_delta_prime(alpha, beta)
        elif name == "claims":
            i_first = regions.i0(alpha, config.i_max)
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
        else:
            raise ValueError(f"condition {name!r} needs integer arguments n k l")
    return out


def _cmd_check(args: argparse.Namespace, config: RunConfig) -> int:
    wanted = [tok.strip() for tok in args.conditions.split(",") if tok.strip()]
    if not wanted:
        raise ValueError(
            "no condition given; choose from c1,c2,delta,delta-prime,claims"
        )
    integer_mode = bool(args.nkl)
    body: dict = {"conditions": {}}
    if integer_mode:
        if len(args.nkl) != 3 or args.alpha is not None or args.beta is not None:
            raise ValueError("give either N K L or --alpha/--beta, not both")
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
        if args.alpha is None or args.beta is None:
            raise ValueError("point conditions need both --alpha and --beta")
        body.update(alpha=args.alpha, beta=args.beta)
        body["conditions"] = _point_conditions(args.alpha, args.beta, wanted, config)
    flat = {
        name: (value["holds"] if isinstance(value, dict) else value)
        for name, value in body["conditions"].items()
    }
    body["all_hold"] = all(flat.values())
    report = _report(config, "check", body)
    if config.output == "csv":
        _emit_csv_rows(
            ["condition", "holds"], [(name, flat[name]) for name in flat]
        )
    else:
        _emit_json(report)
    return EXIT_OK if body["all_hold"] else EXIT_CONDITION_FAILED


def _cmd_measure(args: argparse.Namespace, config: RunConfig) -> int:
    result = oracle.measure_oracle(args.n, args.alpha, args.beta, timing=args.timing)
    product = args.alpha * args.beta
    body = {
        "result": result.to_dict(),
        "alpha_beta": str(product),
        "equals_alpha_beta": result.value == product,
    }
    report = _report(config, "measure", body)
    if config.output == "csv":
        _emit_csv_rows(
            ["key", "value"],
            [
                ("value", str(result.value)),
                ("alpha_beta", str(product)),
                ("equals_alpha_beta", body["equals_alpha_beta"]),
            ],
        )
    else:
        _emit_json(report)
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace, config: RunConfig) -> int:
    emitted = 0
    reached = 0
    for n in range(args.n_range[0], args.n_range[1] + 1):
        for k in range(args.k_range[0], args.k_range[1] + 1):
            for l in range(args.l_range[0], args.l_range[1] + 1):
                if not regions.in_omega_prime(n, k, l):
                    continue
                report = oracle.conjecture_scan(
                    n, k, l, j_max=args.j_max, sweep_budget=config.sweep_budget
                )
                if report["label"] != "out-of-reach":
                    reached += 1
                report = _report(config, "scan", report)
                sys.stdout.write(
                    json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
                )
                emitted += 1
    if emitted > 0 and reached == 0:
        print("every instance exceeded oracle capacity", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


def _cmd_family(args: argparse.Namespace, config: RunConfig) -> int:
    if args.family_command == "make":
        if args.kind == "star":
            fam = families.star_uniform(args.n, args.k, args.center)
        elif args.kind == "afam":
            fam = families.a_family_uniform(args.n, args.k, args.j)
        elif args.kind == "bfam":
            fam = families.b_family_uniform(args.n, args.k, args.j)
        else:
            fam = families.colex_segment(args.size, args.k, args.n)
        sys.stdout.write(families.to_text(fam))
        return EXIT_OK
    if args.family_command == "info":
        with open(args.path, encoding="ascii") as handle:
            fam = families.from_text(handle.read())
        report = _report(
            config,
            "family-info",
            {"n": fam.n, "k": fam.k, "size": len(fam)},
        )
        _emit_json(report)
        return EXIT_OK
    with open(args.path_a, encoding="ascii") as handle:
        fam_a = families.from_text(handle.read())
    with open(args.path_b, encoding="ascii") as handle:
        fam_b = families.from_text(handle.read())
    crossing = families.is_cross_intersecting(fam_a, fam_b)
    report = _report(
        config,
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
    config = _config_from_args(args)
    try:
        return _DISPATCH[args.command](args, config)
    except (CapacityError, UndecidableAtTolerance, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, CrossIntError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
