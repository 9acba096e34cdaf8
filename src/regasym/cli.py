"""Batch command-line front end.

Subcommands
-----------
expand    exact expansion coefficients (plain or connected) for fixed k
formal-k  one polynomial in k recovering a coefficient for all large k
count     exact count of k-regular labeled graphs on n vertices
validate  residual grid against ingested counts, checked against the
          published reference values when --r is 3 (the published order)
stirling  coefficients of the factorial correction series

Exit codes: 0 ok, 2 usage error, 3 internal assertion (a correctness
alarm, never a user error), 4 interpolation degree overflow, 5 count
mismatch (the formula against brute force, or a cached count against a
shipped, structural or recomputed one), 6 residual grid mismatch.

Counts come from :func:`counts.load_counts` (the count cache merged with
the shipped table under --data-dir) and :func:`counts.resolve`.  The
count cache directory comes from --cache-dir, falling back to the
REGASYM_CACHE_DIR environment variable; the flag wins.  Identical flags
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import connected, counts, laplace, regular, validation
from .series import SeriesError, ValuationViolation, rational_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_DEGREE = 4
EXIT_COUNT_MISMATCH = 5
EXIT_GOLDEN_MISMATCH = 6

ENV_CACHE_DIR = "REGASYM_CACHE_DIR"
CACHE_FILENAME = "counts_cache.txt"


@dataclass
class RunConfig:
    """Validated options shared by the subcommands."""

    command: str
    k: int | None = None
    order: int = 0
    which: str = "sg"
    ks: tuple[int, ...] = ()
    ns: tuple[int, ...] = ()
    method: str = "auto"
    n: int | None = None
    fmt: str = "plain"
    precision: int = validation.DEFAULT_PRECISION
    brute_limit: int = counts.DEFAULT_BRUTE_LIMIT
    cache_dir: Path | None = None
    data_dir: Path = counts.DATA_DIR

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("precision below 64 bits is not meaningful here")
        if self.order < 0:
            raise ValueError("order must be nonnegative")


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


def _cache_path(cfg: RunConfig) -> Path | None:
    if cfg.cache_dir is None:
        return None
    return cfg.cache_dir / CACHE_FILENAME


def _load_counts(cfg: RunConfig, k: int) -> counts.CountTable:
    return counts.load_counts(k, cfg.data_dir, _cache_path(cfg))


def _save_cached_counts(cfg: RunConfig, table: counts.CountTable):
    path = _cache_path(cfg)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    table.save_cache(path)


def cmd_expand(cfg: RunConfig, out) -> int:
    k, r = cfg.k, cfg.order
    if cfg.which == "sg":
        if k < 2:
            raise ValueError("plain expansion requires k >= 2")
        exp = regular.sg_expansion(k, r)
        coeffs = exp.coeffs
        gap = None
    else:
        if k < 3:
            raise ValueError("connected expansion requires k >= 3")
        table = _load_counts(cfg, k)
        for m in range(2 * r + 1):
            counts.resolve(table, k, m)
        series = connected.csg_tilde(k, r, table)
        coeffs = series.coefficients
        gap_order = (k + 1) * (k - 2) // 2
        gap = connected.valuation_gap(k, r, table) if r >= gap_order else None
        _save_cached_counts(cfg, table)

    if cfg.fmt == "plain":
        out.write(", ".join(rational_str(c) for c in coeffs) + "\n")
    elif cfg.fmt == "csv":
        out.write("k,r,coefficient\n")
        for i, c in enumerate(coeffs):
            out.write(f"{k},{i},{rational_str(c)}\n")
    elif cfg.which == "sg":
        out.write(regular.expansion_json(exp) + "\n")
    else:
        records = [
            {"k": k, "r": i, "coefficient": rational_str(c)}
            for i, c in enumerate(coeffs)
        ]
        out.write(
            json.dumps({"k": k, "terms": records, "gap_valuation": gap}, indent=2) + "\n"
        )
    return EXIT_OK


def cmd_formal_k(cfg: RunConfig, out) -> int:
    poly = regular.formal_k_interpolate(cfg.order)
    out.write(regular.formal_k_json(poly) + "\n")
    return EXIT_OK


def cmd_count(cfg: RunConfig, out) -> int:
    k, n = cfg.k, cfg.n
    table = _load_counts(cfg, k)
    if cfg.method == "brute":
        value = counts.count_brute(k, n, cfg.brute_limit)
        provenance = counts.PROV_BRUTE
    else:
        value, provenance = counts.resolve(table, k, n)
        # auto checks a computed or cached count by brute force when feasible;
        # the shipped tables were checked so when they were generated, and
        # counts above the cap are not checked (the memoised backtracking
        # no longer visits every graph, but the cap keeps the checked cases)
        if (
            cfg.method == "auto"
            and provenance != counts.PROV_INGESTED
            and n <= cfg.brute_limit
        ):
            if value > counts.BRUTE_CHECK_MAX_COUNT:
                sys.stderr.write(
                    f"note: brute-force check skipped, {value} graphs exceed "
                    f"{counts.BRUTE_CHECK_MAX_COUNT}\n"
                )
            else:
                brute = counts.count_brute(k, n, cfg.brute_limit)
                if brute != value:
                    raise counts.CountConflict(
                        k, n, value, brute, provenance, counts.PROV_BRUTE
                    )
        _save_cached_counts(cfg, table)
    out.write(f"{value} {provenance}\n")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, out) -> int:
    which, r = cfg.which, cfg.order
    ks, ns = cfg.ks, cfg.ns
    if not ns:
        out.write("n\n")
        return EXIT_OK

    tables: dict[int, counts.CountTable] = {}
    coeffs: dict[int, tuple[Fraction, ...]] = {}
    rs: dict[int, int] = {}
    for k in ks:
        rs[k] = validation.published_r(which, k, r)
        if which == "sg":
            tables[k] = _load_counts(cfg, k)
            if k == 2:
                for n in ns:
                    counts.resolve(tables[k], 2, n)
            coeffs[k] = regular.sg_expansion(k, rs[k] - 1).coeffs
        else:
            tables[k] = counts.reference_table("csg", k, cfg.data_dir)
            sg_table = _load_counts(cfg, k)
            for m in range(2 * (rs[k] - 1) + 1):
                counts.resolve(sg_table, k, m)
            coeffs[k] = tuple(connected.csg_tilde(k, rs[k] - 1, sg_table).coefficients)

    rows = []
    for k in ks:
        row = validation.residual_table(
            [k], ns, rs[k], {k: tables[k]}, {k: coeffs[k]}, cfg.precision
        )
        rows.append(row[0])
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


def cmd_stirling(cfg: RunConfig, out) -> int:
    series = laplace.stirling_series(cfg.order)
    if cfg.fmt == "json":
        out.write(
            json.dumps(
                [
                    {"r": i, "coefficient": rational_str(c)}
                    for i, c in enumerate(series.coefficients)
                ],
                indent=2,
            )
            + "\n"
        )
    else:
        out.write(", ".join(rational_str(c) for c in series.coefficients) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regasym",
        description="Exact expansion coefficients and count validation for "
        "regular and connected regular labeled graphs.",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=f"count cache directory (default: ${ENV_CACHE_DIR} if set, else no cache)",
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=counts.DATA_DIR,
        help="directory with reference count tables (default: packaged data)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expansion coefficients for fixed k")
    p.add_argument("which", choices=("sg", "csg"), help="plain or connected counts")
    p.add_argument("--k", type=int, required=True, help="degree k (sg: k>=2, csg: k>=3)")
    p.add_argument("--order", type=int, required=True, help="highest coefficient index r")
    p.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain", dest="fmt",
        help="output format (default plain)",
    )

    p = sub.add_parser("formal-k", help="coefficient as one polynomial in k")
    p.add_argument("--r", type=int, required=True, help="coefficient index")

    p = sub.add_parser("count", help="exact count for one (k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("formula", "brute", "auto"), default="auto",
        help="auto cross-checks a computed or cached count against brute force "
        f"for small n and at most {counts.BRUTE_CHECK_MAX_COUNT} graphs (default auto)",
    )
    p.add_argument(
        "--brute-limit", type=int, default=counts.DEFAULT_BRUTE_LIMIT,
        help=f"largest n for the brute-force count (default {counts.DEFAULT_BRUTE_LIMIT})",
    )

    p = sub.add_parser("validate", help="residual grid against ingested counts")
    p.add_argument("--which", choices=("sg", "csg"), default="sg", help="which grid (default sg)")
    p.add_argument("--k", type=str, required=True, help='comma list, e.g. "2,3,4,5"')
    p.add_argument("--n", type=str, required=True, help='comma list or range, e.g. "10:100:10"')
    p.add_argument("--r", type=int, default=3, help="residual order (default 3, as published)")
    p.add_argument(
        "--precision", type=int, default=validation.DEFAULT_PRECISION,
        help=f"working precision in bits (default {validation.DEFAULT_PRECISION})",
    )

    p = sub.add_parser("stirling", help="factorial correction series")
    p.add_argument("--r", type=int, required=True, help="highest coefficient index")
    p.add_argument(
        "--format", choices=("plain", "json"), default="plain", dest="fmt",
        help="output format (default plain)",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cache_dir = args.cache_dir
    if cache_dir is None and os.environ.get(ENV_CACHE_DIR):
        cache_dir = Path(os.environ[ENV_CACHE_DIR])
    cfg = RunConfig(command=args.command, cache_dir=cache_dir, data_dir=args.data_dir)
    if args.command == "expand":
        cfg.which, cfg.k, cfg.order, cfg.fmt = args.which, args.k, args.order, args.fmt
    elif args.command == "formal-k":
        cfg.order = args.r
    elif args.command == "count":
        cfg.k, cfg.n = args.k, args.n
        cfg.method, cfg.brute_limit = args.method, args.brute_limit
    elif args.command == "validate":
        cfg.which, cfg.order, cfg.precision = args.which, args.r, args.precision
        cfg.ks, cfg.ns = parse_int_list(args.k), parse_int_list(args.n)
    elif args.command == "stirling":
        cfg.order, cfg.fmt = args.r, args.fmt
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    dispatch = {
        "expand": cmd_expand,
        "formal-k": cmd_formal_k,
        "count": cmd_count,
        "validate": cmd_validate,
        "stirling": cmd_stirling,
    }
    try:
        return dispatch[cfg.command](cfg, sys.stdout)
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
