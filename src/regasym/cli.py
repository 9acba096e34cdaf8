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

Exit codes, 2 to 5 decided in :func:`main` by base class with one line on
stderr: 0 ok; 2 a bad request or data file, a ValueError or OSError (every
usage error, LimitExceeded, ParseError, OffsetMismatch, PrecisionUnderflow);
3 a correctness alarm, a series.SeriesError (BadConstantTerm,
InsufficientOrder, BadParity, ValuationViolation, RouteMismatch,
IrrationalPrefactor, GapMismatch, MissingWeight, ExponentOverflow,
NonIntegerResult); 4 interpolation degree overflow (DegreeOverflow); 5 count
mismatch (CountConflict: the formula against brute force, or a shipped count
against the structural rules); 6 residual grid mismatch.

Counts come from one :func:`counts.resolve` call per k for every n the
command reads, a(0..:func:`connected.last_shift`) for the transfer, with the
shipped table under --data-dir read by :func:`counts.reference_counts`, which
checks it against the structural rules and refuses a path that is no directory.
Identical flags always produce byte-identical output.

The command line is read from one table: :data:`COMMANDS` maps each
subcommand to a :class:`Command`, its ``cmd_*`` handler, one-line help and
arguments, each an :class:`Opt` with a converter or choices, a default or
REQUIRED, and a help string; :data:`TOP` holds the options that come
before the subcommand (--data-dir, and --cache-dir, accepted, ignored and
hidden).  :func:`parse_args` and the ``-h``/``--help`` text both read the
table, so no parser library is imported.  Values follow as ``--opt value``
or ``--opt=value``, whatever they start with; an option may be shortened to
any unique prefix, and an exact name wins; help exits 0.  A value the
table cannot reject (a precision below 64 bits, a negative order or n)
raises ValueError where the handler reads it.  Coefficient lists are
written from one record per coefficient ({k, r, coefficient}, or {r,
coefficient} for stirling) as plain values, CSV lines or JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from . import connected, counts, regular
from .series import Series, SeriesError, rational_str

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
    resolved = counts.resolve(k, range(connected.last_shift(k, r) + 1), shipped)
    plain = regular.sg_expansion(k, r)
    return plain, connected.csg_tilde(k, plain, [count for count, _ in resolved.values()])


def cmd_expand(args: SimpleNamespace, out) -> int:
    k, r = args.k, args.order
    _check_k(args.which, k)
    if args.which == "sg":
        _write(out, args.fmt, _records(regular.sg_expansion(k, r), k=k))
        return EXIT_OK
    plain, csg = _connected(k, r, counts.reference_counts("sg", k, args.data_dir))
    records = _records(csg, k=k)
    gap = connected.valuation_gap(k, plain, csg) if r >= connected.gap_order(k) else None
    _write(out, args.fmt, records, {"k": k, "terms": records, "gap_valuation": gap})
    return EXIT_OK


def cmd_formal_k(args: SimpleNamespace, out) -> int:
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


def cmd_count(args: SimpleNamespace, out) -> int:
    k, n = args.k, args.n
    if args.method == "brute":
        value = counts.count_brute(k, n, args.brute_limit)
        provenance = counts.PROV_BRUTE
    else:
        shipped = counts.reference_counts("sg", k, args.data_dir)
        value, provenance = counts.resolve(k, [n], shipped)[n]
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


def cmd_validate(args: SimpleNamespace, out) -> int:
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
            cell_counts = {n: count for n, (count, _) in counts.resolve(k, ns, shipped).items()}
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
    for k, n, got, expected in mismatches:
        sys.stderr.write(f"cell (k={k}, n={n}) deviates: computed {got}, published {expected}\n")
    return EXIT_GOLDEN_MISMATCH if mismatches else EXIT_OK


def cmd_stirling(args: SimpleNamespace, out) -> int:
    _write(out, args.fmt, _records(connected.stirling_series(args.r)))
    return EXIT_OK


REQUIRED = object()  # the default of an argument that must be given


class Opt:
    """One argument in the table.  ``kind`` converts its value (int, str or
    Path) or is the tuple of its choices; a ``default`` of REQUIRED makes it
    required; a ``help`` of None hides it from --help; ``dest`` names the
    attribute the handler reads, by default the name without its leading
    dashes and with "-" as "_".  A name without leading dashes is positional."""

    __slots__ = ("kind", "default", "help", "dest")

    def __init__(self, kind, default=REQUIRED, help="", dest=None):
        self.kind, self.default, self.help, self.dest = kind, default, help, dest


class Command:
    """A handler with its one-line help, its arguments and a longer description."""

    __slots__ = ("run", "help", "options", "description")

    def __init__(self, run, help, options, description=None):
        self.run, self.help, self.options = run, help, options
        self.description = description or help


COMMANDS = {
    "expand": Command(cmd_expand, "expansion coefficients for fixed k", {
        "which": Opt(("sg", "csg"), help="plain or connected counts"),
        "--k": Opt(int, help="degree k (sg: k>=2, csg: k>=3)"),
        "--order": Opt(int, help="highest coefficient index r"),
        "--format": Opt(("plain", "json", "csv"), "plain", "output format (default plain)", "fmt"),
    }),
    "formal-k": Command(cmd_formal_k, "coefficient as one polynomial in k", {
        "--r": Opt(int, help="coefficient index"),
    }),
    "count": Command(cmd_count, "exact count for one (k, n)", {
        "--k": Opt(int, help="degree k"),
        "--n": Opt(int, help="number of vertices n"),
        "--method": Opt(
            ("formula", "brute", "auto"), "auto",
            "auto cross-checks a computed count against brute force "
            "when n <= --brute-limit (default auto)",
        ),
        "--brute-limit": Opt(
            int, counts.DEFAULT_BRUTE_LIMIT,
            f"largest n for the brute-force count (default {counts.DEFAULT_BRUTE_LIMIT})",
        ),
    }),
    "validate": Command(cmd_validate, "residual grid against ingested counts", {
        "--which": Opt(("sg", "csg"), "sg", "which grid (default sg)"),
        "--k": Opt(str, help='comma list, e.g. "2,3,4,5"'),
        "--n": Opt(str, help='comma list or range, e.g. "10:100:10"'),
        "--r": Opt(int, 3, "residual order (default 3, as published)"),
        # the default is validation.DEFAULT_PRECISION, read in cmd_validate so
        # that parsing does not load the harness; a test keeps this help equal to it
        "--precision": Opt(int, None, "working precision in bits (default 256)"),
    }, "Residual grid against exact counts.  Counts past the shipped tables (k = 3, "
        "4, 5 to n = 100 in the packaged data) come from the moment recurrence, one "
        "sweep per k, which is slow for k >= 7: count --k 7 --n 30 alone takes "
        "10-25 s and about 100 MB."),
    "stirling": Command(cmd_stirling, "factorial correction series", {
        "--r": Opt(int, help="highest coefficient index"),
        "--format": Opt(("plain", "json"), "plain", "output format (default plain)", "fmt"),
    }),
}

# the options before the command
TOP = Command(None, "Exact expansion coefficients and count validation for "
              "regular and connected regular labeled graphs.", {
    # accepted, ignored and hidden from --help: perfbench's counts and grids
    # workloads still pass --cache-dir, so it goes when they stop passing it
    "--cache-dir": Opt(str, None, None),
    "--data-dir": Opt(
        Path, counts.DATA_DIR,
        "directory with reference count tables (default: packaged data)",
    ),
})


def _dest(name: str, opt: Opt) -> str:
    return opt.dest or name.lstrip("-").replace("-", "_")


def _match(name: str, options: dict[str, Opt]) -> str:
    """The option name spells out, else the one it abbreviates uniquely;
    -h, --help and its abbreviations give "--help"."""
    if name == "-h":
        return "--help"
    names = ["--help", *(n for n in options if n.startswith("--"))]
    if name in names:
        return name
    found = [n for n in names if n.startswith(name)] if len(name) > 2 and name[:2] == "--" else []
    if len(found) == 1:
        return found[0]
    if found:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}")
    raise ValueError(f"unrecognized arguments: {name}")


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(
                f"argument {name}: invalid choice: {value!r} (choose from {', '.join(kind)})"
            )
        return value
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None


def _read(
    prog: str, command: Command, argv: list[str], at: int, args: SimpleNamespace
) -> int | None:
    """Read the command's arguments from argv[at:] into args, up to a
    positional one it has no place for, and return where reading stopped.
    After -h or --help, set args.run to write the help and return None.

    An option takes the next word as its value whatever it starts with,
    so ``--n -1`` reaches the command's own check."""
    options = command.options
    positionals = [name for name in options if not name.startswith("-")]
    given = {}
    while at < len(argv):
        arg = argv[at]
        if not arg.startswith("-"):
            if not positionals:
                break
            name, value = positionals.pop(0), arg
        else:
            name, eq, value = arg.partition("=")
            name = _match(name, options)
            if name == "--help":
                args.run = lambda _, out: _write_help(out, prog, command)
                return None
            if not eq:
                at += 1
                if at == len(argv):
                    raise ValueError(f"argument {name}: expected one argument")
                value = argv[at]
        given[name] = _convert(name, options[name].kind, value)
        at += 1
    missing = [n for n, opt in options.items() if opt.default is REQUIRED and n not in given]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    for name, opt in options.items():
        setattr(args, _dest(name, opt), given.get(name, opt.default))
    return at


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The arguments in argv: the options in TOP, the command, then the
    command's own arguments.  ``run`` is the command's handler, or writes the
    help text after -h or --help.  A usage error raises ValueError."""
    args = SimpleNamespace()
    at = _read("regasym", TOP, argv, 0, args)
    if at is None:
        return args
    if at == len(argv):
        raise ValueError(f"a command is required (choose from {', '.join(COMMANDS)})")
    name = argv[at]
    if name not in COMMANDS:
        raise ValueError(f"invalid command: {name!r} (choose from {', '.join(COMMANDS)})")
    args.run = COMMANDS[name].run
    at = _read(f"regasym {name}", COMMANDS[name], argv, at + 1, args)
    if at is not None and at < len(argv):
        raise ValueError(f"unrecognized arguments: {' '.join(argv[at:])}")
    return args


def _fill(head: str, words: list[str], indent: int, width: int = 79) -> str:
    """head, then the words one space apart, wrapped before width; each
    continuation line starts with indent spaces."""
    lines = head.split("\n")
    fresh = True  # the last line holds no word yet
    for word in words:
        if not fresh and len(lines[-1]) + 1 + len(word) > width:
            lines.append(" " * indent)
            fresh = True
        lines[-1] += word if fresh else " " + word
        fresh = False
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _row(label: str, text: str) -> str:
    head = f"  {label:<22}" if len(label) <= 20 else f"  {label}\n{' ' * 24}"
    return _fill(head, text.split(), 24)


def _write_help(out, prog: str, command: Command) -> int:
    """Write the help text generated from the command's table entry."""
    shown = {name: opt for name, opt in command.options.items() if opt.help is not None}
    labels = {}
    for name, opt in shown.items():
        if isinstance(opt.kind, tuple):
            metavar = "{" + ",".join(opt.kind) + "}"
        else:
            metavar = _dest(name, opt).upper()
        labels[name] = f"{name} {metavar}" if name.startswith("-") else metavar
    options = [n for n in shown if n.startswith("-")]
    positionals = [n for n in shown if not n.startswith("-")]
    usage = ["[-h]"]
    usage += [labels[n] if shown[n].default is REQUIRED else f"[{labels[n]}]" for n in options]
    usage += [labels[n] for n in positionals]
    rows, heading = [(labels[n], shown[n].help) for n in positionals], "positional arguments"
    if command is TOP:
        usage.append("COMMAND ...")
        rows, heading = [(name, c.help) for name, c in COMMANDS.items()], "commands"
    text = [_fill(f"usage: {prog} ", usage, len(prog) + 8), "\n"]
    text.append(_fill("", command.description.split(), 0))
    if rows:
        text += ["\n", f"{heading}:\n", *(_row(*row) for row in rows)]
    text += ["\n", "options:\n", _row("-h, --help", "show this help message and exit")]
    text += [_row(labels[n], shown[n].help) for n in options]
    out.write("".join(text))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.run(args, sys.stdout)
    except regular.DegreeOverflow as exc:
        sys.stderr.write(f"degree overflow: {exc}\n")
        return EXIT_DEGREE
    except counts.CountConflict as exc:
        sys.stderr.write(f"count mismatch: {exc}\n")
        return EXIT_COUNT_MISMATCH
    except SeriesError as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
