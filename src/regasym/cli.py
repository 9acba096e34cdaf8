"""Batch command-line front end.

Subcommands
-----------
expand    exact expansion coefficients (plain or connected) for fixed k
formal-k  one polynomial in k recovering a coefficient for all large k
count     exact count of k-regular labeled graphs on n vertices
validate  residual grid against ingested counts, checked against the
          published reference values when --r is 3 (the published order)
stirling  coefficients of the factorial correction series

The process entry is :func:`regasym.__main__.run` (``python -m regasym``
and the ``regasym`` script), which calls :func:`main` and then freezes the
heap so the interpreter's shutdown collections skip it; :func:`main`
leaves the garbage collector alone for in-process callers.

Only ``validate`` loads the residual harness :mod:`regasym.validation`:
it is imported inside :func:`cmd_validate`, so every other subcommand
loads the exact layers alone.  Likewise only ``formal-k`` and
``--format json`` import :mod:`json`.  The layer modules ``connected``
(the transfer and the Stirling series), ``counts`` and ``regular`` stay
imported at the top, with ``series`` and ``multipoly`` beneath them:
``perfbench/tracer.py`` wraps the layers that ``import regasym.cli`` has
loaded.

Exit codes: 0 ok, 2 usage error, 3 internal assertion (a correctness
alarm, never a user error), 4 interpolation degree overflow, 5 count
mismatch (the formula against brute force, or a shipped count against the
structural rules), 6 residual grid mismatch.

Counts come from :func:`counts.resolve`, given the shipped table for k
under --data-dir, read once per k by :func:`counts.reference_counts`,
which checks it against the structural rules; the layers below get plain
counts, one list or mapping per k built by a comprehension over
``resolve``.
Identical flags always produce byte-identical output.

Each subcommand is bound to its ``cmd_*`` function with ``set_defaults``
and reads the parsed arguments directly.  A value argparse cannot reject
(a precision below 64 bits, a negative order or n) raises ValueError where
it is read and exits 2.  Coefficient lists are written from one record per
coefficient ({k, r, coefficient}, or {r, coefficient} for stirling) as
plain values, CSV lines or JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import connected, counts, regular
from .series import Series, SeriesError, ValuationViolation, rational_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_DEGREE = 4
EXIT_COUNT_MISMATCH = 5
EXIT_GOLDEN_MISMATCH = 6


def parse_int_list(text: str) -> tuple[int, ...]:
    """Comma list ("10,20") or inclusive range ("10:100:10"); "" is empty."""
    text = text.strip()
    if not text:
        return ()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}, expected start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise ValueError("range step must be positive")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


def _records(series: Series, **fields) -> list[dict]:
    """One record per coefficient: the given fields, then its index r and value."""
    return [
        {**fields, "r": i, "coefficient": rational_str(c)}
        for i, c in enumerate(series.coefficients)
    ]


def _write(out, fmt: str, records: list[dict], doc=None):
    """Write the records as plain values, CSV lines or JSON; for JSON the
    document doc, when given, is written in place of the bare records."""
    if fmt == "json":
        import json  # only JSON output loads it

        lines = [json.dumps(records if doc is None else doc, indent=2)]
    elif fmt == "csv":
        lines = [",".join(records[0])] + [",".join(map(str, rec.values())) for rec in records]
    else:
        lines = [", ".join(rec["coefficient"] for rec in records)]
    out.write("\n".join(lines) + "\n")


def _check_k(which: str, k: int):
    if which == "sg" and k < 2:
        raise ValueError("plain expansion requires k >= 2")
    if which == "csg" and k < 3:
        raise ValueError("connected expansion requires k >= 3")


def _connected(k: int, r: int, shipped) -> tuple[Series, Series]:
    """The plain and connected expansion series of order r: one run of the
    plain pipeline serves the transfer and the gap check."""
    plain_counts = [counts.resolve(k, m, shipped)[0] for m in range(2 * r + 1)]
    plain = regular.sg_expansion(k, r)
    return plain, connected.csg_tilde(k, plain, plain_counts)


def cmd_expand(args: argparse.Namespace, out) -> int:
    k, r = args.k, args.order
    _check_k(args.which, k)
    if args.which == "sg":
        _write(out, args.fmt, _records(regular.sg_expansion(k, r), k=k))
        return EXIT_OK
    plain, csg = _connected(k, r, counts.reference_counts("sg", k, args.data_dir))
    records = _records(csg, k=k)
    gap_order = (k + 1) * (k - 2) // 2
    gap = connected.valuation_gap(k, plain, csg) if r >= gap_order else None
    _write(out, args.fmt, records, {"k": k, "terms": records, "gap_valuation": gap})
    return EXIT_OK


def cmd_formal_k(args: argparse.Namespace, out) -> int:
    poly = regular.formal_k_interpolate(args.r)
    doc = {
        "r": poly.r,
        "poly": [rational_str(c) for c in poly.numerator_coeffs],
        "denom_power": poly.r,
    }
    if poly.r >= 3:
        # the log-space fit samples k from 2 on, but beyond r = 2 the
        # single-polynomial form is only established for k >= 2r+2, where
        # every structural indicator is active, and that is the bound stated
        doc["valid_k_min"] = 2 * poly.r + 2
    _write(out, "json", [], doc)
    return EXIT_OK


def cmd_count(args: argparse.Namespace, out) -> int:
    k, n = args.k, args.n
    if args.method == "brute":
        value = counts.count_brute(k, n, args.brute_limit)
        provenance = counts.PROV_BRUTE
    else:
        shipped = counts.reference_counts("sg", k, args.data_dir)
        value, provenance = counts.resolve(k, n, shipped)
        # auto checks a computed count by brute force when n is small; the
        # shipped tables were checked so when they were generated
        if (
            args.method == "auto"
            and provenance != counts.PROV_INGESTED
            and n <= args.brute_limit
        ):
            brute = counts.count_brute(k, n, args.brute_limit)
            if brute != value:
                raise counts.CountConflict(k, n, value, brute, provenance, counts.PROV_BRUTE)
    out.write(f"{value} {provenance}\n")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, out) -> int:
    from . import validation  # the one subcommand that runs the residual harness

    precision = validation.DEFAULT_PRECISION if args.precision is None else args.precision
    if precision < 64:
        raise ValueError("precision below 64 bits is not meaningful here")
    which, r = args.which, args.r
    if r < 0:
        raise ValueError("the residual order must be nonnegative")
    ks, ns = parse_int_list(args.k), parse_int_list(args.n)
    if not ns:
        out.write("n\n")
        return EXIT_OK

    rows = []
    for k in ks:
        _check_k(which, k)
        k_r = validation.published_r(which, k, r)
        shipped = counts.reference_counts("sg", k, args.data_dir)
        coeffs = ()  # at k_r = 0 nothing is subtracted
        if which == "sg":
            # a table hit up to n = 100, else computed
            cell_counts = {n: counts.resolve(k, n, shipped)[0] for n in ns}
            if k_r:
                coeffs = regular.sg_expansion(k, k_r - 1).coefficients
        else:
            cell_counts = dict(enumerate(counts.reference_counts("csg", k, args.data_dir)))
            if k_r:
                coeffs = _connected(k, k_r - 1, shipped)[1].coefficients
        rows.append((k, validation.residual_row(k, ns, cell_counts, coeffs, precision)))
    out.write(validation.render_csv(ns, rows))

    if r != validation.GOLDEN_R:  # the published grids exist at r = 3 only
        return EXIT_OK
    mismatches = validation.compare_to_golden(which, ns, rows)
    if mismatches:
        for k, n, got, expected in mismatches:
            sys.stderr.write(
                f"cell (k={k}, n={n}) deviates: computed {got}, published {expected}\n"
            )
        return EXIT_GOLDEN_MISMATCH
    return EXIT_OK


def cmd_stirling(args: argparse.Namespace, out) -> int:
    _write(out, args.fmt, _records(connected.stirling_series(args.r)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regasym",
        description="Exact expansion coefficients and count validation for "
        "regular and connected regular labeled graphs.",
    )
    # accepted, ignored and hidden from --help: perfbench's counts and grids
    # workloads still pass --cache-dir, so it goes when they stop passing it
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=counts.DATA_DIR,
        help="directory with reference count tables (default: packaged data)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expansion coefficients for fixed k")
    p.set_defaults(run=cmd_expand)
    p.add_argument("which", choices=("sg", "csg"), help="plain or connected counts")
    p.add_argument("--k", type=int, required=True, help="degree k (sg: k>=2, csg: k>=3)")
    p.add_argument("--order", type=int, required=True, help="highest coefficient index r")
    p.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain", dest="fmt",
        help="output format (default plain)",
    )

    p = sub.add_parser("formal-k", help="coefficient as one polynomial in k")
    p.set_defaults(run=cmd_formal_k)
    p.add_argument("--r", type=int, required=True, help="coefficient index")

    p = sub.add_parser("count", help="exact count for one (k, n)")
    p.set_defaults(run=cmd_count)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("formula", "brute", "auto"), default="auto",
        help="auto cross-checks a computed count against brute force "
        "when n <= --brute-limit (default auto)",
    )
    p.add_argument(
        "--brute-limit", type=int, default=counts.DEFAULT_BRUTE_LIMIT,
        help=f"largest n for the brute-force count (default {counts.DEFAULT_BRUTE_LIMIT})",
    )

    p = sub.add_parser(
        "validate",
        help="residual grid against ingested counts",
        description="Residual grid against exact counts.  Counts past the shipped "
        "tables (k = 3, 4, 5 to n = 100 in the packaged data) come from the moment "
        "recurrence, one sweep per k, which is slow for k >= 7: count --k 7 --n 30 "
        "alone takes 10-25 s and about 100 MB.",
    )
    p.set_defaults(run=cmd_validate)
    p.add_argument("--which", choices=("sg", "csg"), default="sg", help="which grid (default sg)")
    p.add_argument("--k", type=str, required=True, help='comma list, e.g. "2,3,4,5"')
    p.add_argument("--n", type=str, required=True, help='comma list or range, e.g. "10:100:10"')
    p.add_argument("--r", type=int, default=3, help="residual order (default 3, as published)")
    # the default is validation.DEFAULT_PRECISION, read in cmd_validate so that
    # parsing does not load the harness; a test keeps this help text equal to it
    p.add_argument(
        "--precision", type=int, default=None,
        help="working precision in bits (default 256)",
    )

    p = sub.add_parser("stirling", help="factorial correction series")
    p.set_defaults(run=cmd_stirling)
    p.add_argument("--r", type=int, required=True, help="highest coefficient index")
    p.add_argument(
        "--format", choices=("plain", "json"), default="plain", dest="fmt",
        help="output format (default plain)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args, sys.stdout)
    except regular.DegreeOverflow as exc:
        sys.stderr.write(f"degree overflow: {exc}\n")
        return EXIT_DEGREE
    except counts.CountConflict as exc:
        sys.stderr.write(f"count mismatch: {exc}\n")
        return EXIT_COUNT_MISMATCH
    except (
        ValuationViolation,
        regular.RouteMismatch,
        connected.GapMismatch,
        counts.NonIntegerResult,
    ) as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        return EXIT_INTERNAL
    except (ValueError, SeriesError, counts.CountError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
