import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from regasym import cli
from regasym.regular import FormalKPolynomial, sg_expansion


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*python_args):
    """Run python with the given arguments in a fresh interpreter, with this
    regasym first on the path.  No other PYTHON* variable is passed on, so
    a child runs optimised only when given -O and may write its bytecode."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env["PYTHONPATH"] = path
    return subprocess.run(
        [sys.executable, *python_args], capture_output=True, text=True, env=env, timeout=120
    )


def test_fresh_children_inherit_no_python_variables(monkeypatch):
    # the plain half of a plain/-O pair must not run optimised
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    script = "import sys; print(sys.flags.optimize)"
    assert run_fresh("-c", script).stdout == "0\n"
    assert run_fresh("-O", "-c", script).stdout == "1\n"


def test_package_root_loads_no_layer():
    # every name is imported from its layer module, so the root binds none
    script = "import sys, regasym; print(*sorted(m for m in sys.modules if 'regasym' in m))"
    proc = run_fresh("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "regasym\n", "")


def test_stirling_plain(capsys):
    code, out, _ = run(["stirling", "--r", "3"], capsys)
    assert code == 0
    assert out == "1, 1/12, 1/288, -139/51840\n"


def test_stirling_small_orders(capsys):
    assert run(["stirling", "--r", "0"], capsys)[1] == "1\n"
    assert run(["stirling", "--r", "1"], capsys)[1] == "1, 1/12\n"


# sha256 of stdout as the Laplace route of the factorial phase wrote it; the
# closed form in Bernoulli numbers must reproduce it byte for byte
STIRLING_DIGESTS = {
    "stirling --r 30 --format json": "6e5ba14a03679e8956bb319243beb582"
    "3020d0b966c1e7c1ff9df235ac16340b",
    "stirling --r 8": "be366be6ad99f21098f8ea1f5d505ebc7a00795ed5e7d93214da482609ce9191",
}


@pytest.mark.parametrize("argv", sorted(STIRLING_DIGESTS))
def test_stirling_output_pinned(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STIRLING_DIGESTS[argv]


# sha256 of stdout as the triple-sum B0 rows wrote it; formal-k --r 5 samples
# k up to 16, far past the golden tables' k <= 7
FORMAL_K_DIGESTS = {
    "formal-k --r 4": "ce66df5b41eafd49955db420926907ec8d2dccfb1b8834dec3d36ed69e6f884d",
    "formal-k --r 5": "7d83b234f486197ee1260e44569155ecdd30291b458575d068a676d764b86a6a",
}


@pytest.mark.parametrize("argv", sorted(FORMAL_K_DIGESTS))
def test_formal_k_output_pinned(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAL_K_DIGESTS[argv]


# sha256 of stdout as the transfer wrote it with its correction factor
# assembled from log, power and the division by z, and the moment sweep
# split by the exponents of the bracket's monomials; k = 6 has no shipped
# table, so its counts come from the moment sweep.  The k = 3 order 12 and
# k = 4 order 10 entries were recorded by the transfer through the
# factorial correction series S
CSG_DIGESTS = {
    "expand csg --k 3 --order 10 --format json": "801bfa40c41cc8b22c28c872998fae51"
    "e19d9d882ff143c167af594d31eb6601",
    "expand csg --k 3 --order 12": "57a6d3b24eaf12a2a0e777d1ed9e729e"
    "a775be4cb3254d55d4217cb18bf39e49",
    "expand csg --k 4 --order 10": "f0f994bca85b4e66ba8c2db400a6ca8b"
    "e62ca0cf88984965cf06b62696a35da0",
    "expand csg --k 5 --order 5": "f463cdad198c459fbd7b7ee6f4e391fa"
    "0df409f193b69a2945fe2b9d9e8993fe",
    "expand csg --k 6 --order 6": "7e0fe1234f34b76b97f5524d9bf0c4c7"
    "4a152c05899976ca3b7853426d8a96c2",
}


@pytest.mark.parametrize("argv", sorted(CSG_DIGESTS))
def test_expand_csg_output_pinned(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CSG_DIGESTS[argv]


# (exit code, sha256 of stdout, sha256 of stderr) as the residual harness
# wrote them with Fraction cells; at 64 bits the dense grids retry cells at
# doubled precision. The sg grids flag the published cell (k=5, n=10).
SG_RED = (
    cli.EXIT_GOLDEN_MISMATCH,
    "358461cef190b44bac8ca27da1a68378b6b24264a06ada6e1820d5c469895c31",
    "7dd66fc60629d552ff5f97c54485db36f7d41e25467d4ef271673a7cd1be158b",
)
CSG_CLEAN = (
    cli.EXIT_OK,
    "c921d6bdcb1de134d3bd6cba4cc50f66e7ac4fd928c8af32989dddc0eadb980c",
    hashlib.sha256(b"").hexdigest(),
)
VALIDATE_DIGESTS = {
    "validate --which sg --k 2,3,4,5 --n 10:100:2 --r 3 --precision 4096": SG_RED,
    "validate --which csg --k 3,4 --n 10:100:2 --r 3 --precision 4096": CSG_CLEAN,
    "validate --which sg --k 3,4,5 --n 10:100:10 --r 3": (
        cli.EXIT_GOLDEN_MISMATCH,
        "6f85261407c326fb043b30dc5e21ba118e345cc80eff90fb5727b468eaba6a59",
        SG_RED[2],
    ),
    "validate --which sg --k 2,3,4,5 --n 10:100:2 --r 3 --precision 64": SG_RED,
    "validate --which csg --k 3,4 --n 10:100:2 --r 3 --precision 64": CSG_CLEAN,
}


@pytest.mark.parametrize("argv", sorted(VALIDATE_DIGESTS))
def test_validate_output_pinned(argv, capsys):
    code, out, err = run(argv.split(), capsys)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (code, *digests) == VALIDATE_DIGESTS[argv]


def test_stirling_negative_order_is_usage_error(capsys):
    assert run(["stirling", "--r", "-1"], capsys) == (
        cli.EXIT_USAGE, "", "error: order must be nonnegative\n"
    )


def test_expand_sg_plain(capsys):
    code, out, _ = run(["expand", "sg", "--k", "3", "--order", "2", "--format", "plain"], capsys)
    assert code == 0
    assert out == "2, -71/18, -143/1296\n"


def test_expand_sg_k2_order0(capsys):
    code, out, _ = run(["expand", "sg", "--k", "2", "--order", "0"], capsys)
    assert code == 0
    assert out == "2\n"


def test_expand_csg_plain(capsys):
    code, out, _ = run(["expand", "csg", "--k", "3", "--order", "2"], capsys)
    assert code == 0
    assert out.strip().endswith("-335/1296")


def test_expand_csg_json_gap(capsys):
    code, out, _ = run(
        ["expand", "csg", "--k", "3", "--order", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gap_valuation"] == 2
    assert doc["terms"][2]["coefficient"] == "-335/1296"


def test_expand_csv_format(capsys):
    code, out, _ = run(["expand", "sg", "--k", "4", "--order", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,r,coefficient", "4,0,2", "4,1,-235/24"]


def test_formal_k_json(capsys):
    code, out, _ = run(["formal-k", "--r", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "r": 1,
        "poly": ["1/6", "-1/2", "1/3", "0", "-1/6"],
        "denom_power": 1,
    }


def test_formal_k_r0(capsys):
    code, out, _ = run(["formal-k", "--r", "0"], capsys)
    assert code == 0
    assert json.loads(out)["poly"] == ["2"]


def test_formal_k_polynomial_holds_below_its_sampling_range(capsys):
    # the fit samples k from 2 on, and for r <= 4 the printed polynomial is
    # exact at every k below 2r + 2; formal-k still states only k >= 2r + 2
    for r in range(1, 5):
        code, out, _ = run(["formal-k", "--r", str(r)], capsys)
        doc = json.loads(out)
        assert code == cli.EXIT_OK and doc.get("valid_k_min") == (2 * r + 2 if r >= 3 else None)
        poly = FormalKPolynomial(r, tuple(Fraction(c) for c in doc["poly"]))
        for k in range(2, 2 * r + 2):
            assert poly.evaluate(k) == sg_expansion(k, r)[r], (r, k)


def test_count_examples(tmp_path, capsys):
    # an empty data dir keeps these on the formula route
    data = ["--data-dir", str(tmp_path)]
    assert run([*data, "count", "--k", "3", "--n", "4"], capsys)[1] == "1 formula\n"
    assert run([*data, "count", "--k", "1", "--n", "6"], capsys)[1] == "15 formula\n"
    assert run([*data, "count", "--k", "3", "--n", "6"], capsys)[1] == "70 formula\n"


def test_count_reads_shipped_table(capsys, monkeypatch):
    def boom(k, nmax):
        raise AssertionError("the moment recurrence must not run")

    monkeypatch.setattr(cli.counts, "moment_counts", boom)
    assert run(["count", "--k", "4", "--n", "10"], capsys) == (0, "66462606 ingested\n", "")
    assert run(["count", "--k", "3", "--n", "6"], capsys)[1] == "70 ingested\n"
    assert run(["count", "--k", "3", "--n", "5"], capsys)[1] == "0 structural\n"


def test_auto_brute_check_catches_wrong_cached_count(tmp_path, capsys, monkeypatch):
    # with the moment recurrence broken to give a wrong count and no shipped
    # table (an empty data dir), the brute-force check must catch it
    moment_counts = cli.counts.moment_counts
    monkeypatch.setattr(
        cli.counts, "moment_counts", lambda k, nmax: moment_counts(k, nmax)[:6] + [71]
    )
    code, out, err = run(["--data-dir", str(tmp_path), "count", "--k", "3", "--n", "6"], capsys)
    assert code == cli.EXIT_COUNT_MISMATCH and out == ""
    assert "71 (formula) vs 70 (brute)" in err


def test_auto_brute_checks_every_computed_count(tmp_path, capsys, monkeypatch):
    enumerated = []
    brute = cli.counts.count_brute

    def spy(k, n, limit):
        enumerated.append((k, n))
        return brute(k, n, limit)

    monkeypatch.setattr(cli.counts, "count_brute", spy)
    data = ["--data-dir", str(tmp_path)]  # empty: the moment formula computes the count
    start = time.perf_counter()
    # the memoised backtracking checks millions of graphs without visiting each
    assert run([*data, "count", "--k", "3", "--n", "10"], capsys) == (0, "11180820 formula\n", "")
    assert enumerated == [(3, 10)] and time.perf_counter() - start < 10
    assert run([*data, "count", "--k", "4", "--n", "8"], capsys) == (0, "19355 formula\n", "")
    assert enumerated == [(3, 10), (4, 8)]


def test_non_integral_moment_is_internal_alarm(tmp_path, capsys, monkeypatch):
    # a bracket series off by a factor cannot give integer moments: the recurrence's
    # integrality check must fire and map to the internal-assertion exit
    series = cli.counts.exp_over_root
    monkeypatch.setattr(cli.counts, "exp_over_root", lambda *args: series(*args) * Fraction(1, 3))
    code, out, err = run(["--data-dir", str(tmp_path), "count", "--k", "3", "--n", "4"], capsys)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert "internal assertion failed" in err and "(k=3, n=4)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--k", "3", "--n", "6"],
        ["expand", "csg", "--k", "3", "--order", "3"],
    ],
)
def test_shipped_count_against_structure_is_count_mismatch(tmp_path, capsys, argv):
    # no 3-regular graph has one vertex: a shipped table that says 5 is refused
    (tmp_path / "sg_k3.txt").write_text("0 1\n1 5\n")
    code, out, err = run(["--data-dir", str(tmp_path), *argv], capsys)
    assert (code, out) == (cli.EXIT_COUNT_MISMATCH, "")
    assert "(k=3, n=1): 0 (structural) vs 5 (ingested)" in err


def test_cache_dir_is_accepted_and_ignored(tmp_path, capsys):
    # perfbench's workloads still pass --cache-dir: it changes no output and
    # writes nothing, and --help does not list it
    unused = tmp_path / "unused"
    unused.mkdir()
    for argv in (
        ["count", "--k", "3", "--n", "12", "--method", "formula"],
        ["count", "--k", "4", "--n", "10"],
        ["expand", "csg", "--k", "3", "--order", "2"],
        ["validate", "--which", "sg", "--k", "3", "--n", "10,20"],
    ):
        plain = run(argv, capsys)
        assert run(["--cache-dir", str(unused), *argv], capsys) == plain, argv
        assert run(["--cache-dir", str(tmp_path / "absent"), *argv], capsys) == plain, argv
    assert sorted(tmp_path.iterdir()) == [unused] and not any(unused.iterdir())
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and "--data-dir" in out and "cache" not in out


def test_count_brute_method(capsys):
    code, out, _ = run(["count", "--k", "2", "--n", "5", "--method", "brute"], capsys)
    assert code == 0
    assert out == "12 brute\n"


def test_validate_sg_row(capsys):
    code, out, err = run(
        ["validate", "--which", "sg", "--k", "3,4", "--n", "10:100:10", "--r", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,10,20,30,40,50,60,70,80,90,100"
    assert lines[1] == "3,5.04,4.05,3.79,3.66,3.60,3.55,3.52,3.50,3.48,3.46"
    assert lines[2].startswith("4,17.93,15.37")


def test_validate_no_graph_cells_are_na(capsys):
    # 3-regular graphs on 11 vertices do not exist (n*k odd)
    code, out, _ = run(["validate", "--which", "sg", "--k", "3", "--n", "10:12:1", "--r", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,10,11,12", "3,5.04,NA,4.66"]
    code, out, _ = run(["validate", "--which", "csg", "--k", "4", "--n", "3:5", "--r", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("4,NA,NA,")


def test_validate_known_published_anomaly(capsys):
    # the published plain grid has one cell no exact count reproduces
    code, out, err = run(
        ["validate", "--which", "sg", "--k", "5", "--n", "10:100:10", "--r", "3"],
        capsys,
    )
    assert code == cli.EXIT_GOLDEN_MISMATCH
    assert "k=5, n=10" in err
    assert "2.13" in err and "2.16" in err


def test_validate_compares_with_published_grids_only_at_r3(capsys):
    # the published grids are r = 3 residuals; at another order every cell
    # differs from them by construction, so nothing is compared
    code, _, err = run(
        ["validate", "--which", "csg", "--k", "3,4", "--n", "10:30:10", "--r", "5"], capsys
    )
    assert code == cli.EXIT_OK
    assert "deviates" not in err
    for r, expected in ((5, cli.EXIT_OK), (3, cli.EXIT_GOLDEN_MISMATCH)):
        code, _, err = run(
            ["validate", "--which", "sg", "--k", "5", "--n", "10:10:1", "--r", str(r)], capsys
        )
        assert code == expected
        assert ("cell (k=5, n=10) deviates" in err) == (r == 3)


def test_validate_csg(capsys):
    code, out, _ = run(
        ["validate", "--which", "csg", "--k", "3,4", "--n", "10:100:10", "--r", "3"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[1].endswith("2.31")


def test_validate_missing_count_warning_text():
    # no connected k = 5 counts exist: each cell is NA with one stderr line,
    # which pytest's log capture would swallow in process
    proc = run_fresh("-m", "regasym", *"validate --which csg --k 5 --n 10:14:2 --r 3".split())
    assert (proc.returncode, proc.stdout) == (0, "n,10,12,14\n5,NA,NA,NA\n")
    assert proc.stderr == "".join(
        f"no residual for k=5, n={n}: no count available for k=5, n={n}\n" for n in (10, 12, 14)
    )


def test_validate_missing_cell_reports_the_published_text(tmp_path, capsys):
    # with no connected table, every csg cell is NA: each deviation names the
    # published cell as the grid prints it, as a numeric mismatch does
    (tmp_path / "sg_k3.txt").write_text((cli.counts.DATA_DIR / "sg_k3.txt").read_text())
    argv = ["--data-dir", str(tmp_path), "validate", "--which", "csg", "--k", "3"]
    code, out, err = run([*argv, "--n", "10:30:10", "--r", "3"], capsys)
    assert (code, out) == (cli.EXIT_GOLDEN_MISMATCH, "n,10,20,30\n3,NA,NA,NA\n")
    assert err.splitlines()[3:] == [
        f"cell (k=3, n={n}) deviates: computed NA, published {text}"
        for n, text in ((10, "4.40"), (20, "2.05"), (30, "2.15"))
    ]


def test_validate_default_precision_is_256(capsys):
    argv = ["validate", "--which", "sg", "--k", "3,5", "--n", "10:30:10", "--r", "4"]
    default = run(argv, capsys)
    assert default[0] == cli.EXIT_OK and default[1].startswith("n,10,20,30\n3,")
    assert default == run([*argv, "--precision", "256"], capsys)
    for precision in ("32", "63"):
        assert run([*argv, "--precision", precision], capsys) == (
            cli.EXIT_USAGE, "", "error: precision below 64 bits is not meaningful here\n"
        )


# validate loads the residual harness, and no other subcommand does; only
# formal-k and JSON output load json; no subcommand loads mpmath (the harness
# computes in integers) or the standard library modules listed after it.
# Nor does regasym load a parser library: of argparse and the gettext and
# locale it pulls in, only what the interpreter's own start-up (site) loaded
# before regasym.cli is imported may be there.
HARNESS = "regasym.validation"
PARSER_MODULES = ("argparse", "gettext", "locale")
IMPORT_BUDGET_SCRIPT = f"""
import sys
before = set(sys.modules)
from regasym import cli
from regasym.regular import FormalKPolynomial, sg_expansion
code = cli.main(sys.argv[1:])
loaded = [m for m in {(HARNESS, "json", "mpmath", "dataclasses", "inspect", "logging")!r} if m in sys.modules]
loaded += [m for m in {PARSER_MODULES!r} if m in sys.modules and m not in before]
expected = [{HARNESS!r}] if sys.argv[1] == "validate" else []
if sys.argv[1] == "formal-k" or sys.argv[-2:] == ["--format", "json"]:
    expected.append("json")
sys.exit(code if loaded == expected else f"loaded {{loaded}}, expected {{expected}}")
"""


@pytest.mark.parametrize(
    "argv",
    [
        "count --k 3 --n 6",
        "expand sg --k 3 --order 2",
        "expand sg --k 3 --order 2 --format json",
        "expand csg --k 3 --order 2",
        "formal-k --r 1",
        "stirling --r 3",
        "validate --which sg --k 3 --n 10:20:10",
        "--help",
        "count --help",
        "--data-dir=. count --k 3 --n 12 --meth formula",
    ],
)
def test_only_validate_loads_the_numerical_harness(argv):
    # pytest itself has loaded these modules, so each command runs in a fresh interpreter
    proc = run_fresh("-c", IMPORT_BUDGET_SCRIPT, *argv.split())
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, ""), proc.stderr
    assert proc.stdout


def test_validate_checks_survive_optimised_python():
    # the harness's checks raise rather than assert, so -O prints the same
    # grid and still flags the known-red published cell (k=5, n=10)
    argv = ["-m", "regasym", "validate", "--which", "sg", "--k", "3,5", "--n", "10:20:10"]
    plain, optimised = run_fresh(*argv), run_fresh("-O", *argv)
    assert plain.returncode == optimised.returncode == cli.EXIT_GOLDEN_MISMATCH
    assert plain.stdout == optimised.stdout
    assert optimised.stdout.startswith("n,10,20\n3,5.04,4.05\n5,2.13,")


@pytest.mark.parametrize(
    "argv, code",
    [
        ("expand sg --k 3 --order 2", cli.EXIT_OK),
        ("stirling --r 2 --bogus", cli.EXIT_USAGE),
        ("validate --which sg --k 3,5 --n 10:20:10", cli.EXIT_GOLDEN_MISMATCH),
    ],
)
def test_module_entry_matches_in_process_main(argv, code, capsys):
    proc = run_fresh("-m", "regasym", *argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == run(argv.split(), capsys)
    assert proc.returncode == code


ENTRY_FREEZE_SCRIPT = """
import gc, runpy, sys
assert gc.get_freeze_count() == 0
sys.argv = ["regasym", "stirling", "--r", "2"]
try:
    runpy.run_module("regasym", run_name="__main__")
except SystemExit as exc:
    sys.exit(exc.code if gc.get_freeze_count() > 0 else "the heap was not frozen")
sys.exit("the entry did not exit")
"""


def test_module_entry_freezes_the_heap_before_exit():
    proc = run_fresh("-c", ENTRY_FREEZE_SCRIPT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_OK, "1, 1/12, 1/288\n", "")


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run(["expand", "sg", "--k", "3", "--order", "2"], capsys)[0] == cli.EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_script_entry_is_the_module_entry():
    import regasym.__main__ as entry

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["regasym"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is entry.run


def test_validate_empty_range(capsys):
    code, out, _ = run(["validate", "--which", "sg", "--k", "3", "--n", "", "--r", "3"], capsys)
    assert code == 0
    assert out == "n\n"


def test_corrupt_counts_trip_internal_alarm(tmp_path, capsys):
    # a zeroed count for the complete graph kills the z^2 correction, so the
    # expansion-gap check must fire and map to the internal-assertion exit
    src = (cli.counts.DATA_DIR / "sg_k3.txt").read_text().splitlines()
    lines = ["0 1" if line == "0 1" else line for line in src]
    lines = [("4 0" if line.startswith("4 ") else line) for line in lines]
    (tmp_path / "sg_k3.txt").write_text("\n".join(lines) + "\n")
    code, _, err = run(
        ["--data-dir", str(tmp_path), "expand", "csg", "--k", "3", "--order", "2"],
        capsys,
    )
    assert code == cli.EXIT_INTERNAL
    assert "internal assertion failed" in err


def test_gap_value_alone_trips_internal_alarm(tmp_path, capsys):
    # two complete graphs on 4 vertices keep the gap at z^2 but double the
    # difference there: the value check alone must fire
    src = (cli.counts.DATA_DIR / "sg_k3.txt").read_text().splitlines()
    lines = [("4 2" if line.startswith("4 ") else line) for line in src]
    (tmp_path / "sg_k3.txt").write_text("\n".join(lines) + "\n")
    code, _, err = run(
        ["--data-dir", str(tmp_path), "expand", "csg", "--k", "3", "--order", "2"],
        capsys,
    )
    assert code == cli.EXIT_INTERNAL
    assert "-8/27 z^2, expected -4/27 z^2" in err


def spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_expand_csg_transfers_once(capsys, monkeypatch):
    # the gap check reads the connected series already computed for output,
    # and the transfer and the gap check share one run of the plain pipeline
    transfers = spy(monkeypatch, cli.connected, "csg_tilde")
    plains = spy(monkeypatch, cli.regular, "sg_expansion")
    code, out, _ = run(
        ["expand", "csg", "--k", "4", "--order", "12", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["gap_valuation"] == 5
    assert [(k, plain.order) for k, plain, _ in transfers] == [(4, 12)]
    assert plains == [(4, 12)]


def test_expand_csg_pins_the_k6_gap(capsys):
    # past the shipped tables: the gap order (k+1)(k-2)/2 = 14, where the
    # transfer reads the counts a(0..7) alone
    code, out, _ = run(
        ["expand", "csg", "--k", "6", "--order", "14", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["gap_valuation"] == 14


@pytest.mark.parametrize("k, r, swept", [(6, 10, []), (5, 12, [(5, 8)]), (3, 12, [(3, 24)])])
def test_expand_csg_resolves_only_the_counts_the_transfer_reads(
    k, r, swept, tmp_path, capsys, monkeypatch
):
    # with an empty data dir the transfer's counts a(0..2r/(k-2)) take one
    # sweep to the largest n the structural rules leave open: none at k = 6,
    # r = 10, where every n <= 5 is structural
    calls = spy(monkeypatch, cli.counts, "moment_counts")
    argv = ["--data-dir", str(tmp_path), "expand", "csg", "--k", str(k), "--order", str(r)]
    assert run(argv, capsys)[0] == cli.EXIT_OK
    assert calls == swept


@pytest.mark.parametrize("name", ["sg_k3.txt", "absent"])
def test_data_dir_must_be_an_existing_directory(name, tmp_path, capsys):
    # a file or a missing path is not read as an empty data directory
    (tmp_path / "sg_k3.txt").write_text("0 1\n")
    path = str(tmp_path / name)
    for argv in (["count", "--k", "3", "--n", "6"], ["expand", "csg", "--k", "3", "--order", "2"]):
        code, out, err = run(["--data-dir", path, *argv], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: data directory {path!r} is not an existing directory\n"


def test_validate_csg_runs_the_plain_pipeline_once_per_k(capsys, monkeypatch):
    plains = spy(monkeypatch, cli.regular, "sg_expansion")
    code, _, _ = run(["validate", "--which", "csg", "--k", "3,4", "--n", "10:100:10"], capsys)
    assert code == 0
    assert plains == [(3, 2), (4, 2)]


def test_connected_transfer_never_reads_the_stirling_series(capsys, monkeypatch):
    # each shift reads the envelope and a falling factorial, not S: only the
    # stirling subcommand computes the factorial correction series
    calls = spy(monkeypatch, cli.connected, "stirling_series")
    assert run(["expand", "csg", "--k", "4", "--order", "6"], capsys)[0] == cli.EXIT_OK
    code, _, _ = run(["validate", "--which", "csg", "--k", "3,4", "--n", "10:100:10"], capsys)
    assert code == cli.EXIT_OK
    assert calls == []


def test_low_valuation_shift_trips_internal_alarm(capsys, monkeypatch):
    # a shift below valuation alpha*j is a transcription bug (the real shift
    # has valuation alpha*j by construction): it moves the low coefficients
    # of the connected series, so the gap check must fire and map to the
    # internal exit
    monkeypatch.setattr(cli.connected, "shifted_expansion", lambda plain, j, k: plain)
    code, _, err = run(["expand", "csg", "--k", "3", "--order", "2"], capsys)
    assert code == cli.EXIT_INTERNAL
    assert err.startswith("internal assertion failed: connected minus plain for k=3 starts")


def test_unknown_flag_is_usage_error(capsys):
    assert run(["stirling", "--r", "2", "--bogus"], capsys)[0] == 2
    assert run(["expand", "sg", "--k", "3"], capsys)[0] == 2  # missing --order
    assert run(["nonsense"], capsys)[0] == 2


# Argument syntax: each spelling on the right must act exactly as the one on
# the left: --opt=value, unique prefixes of an option (--ord, --meth, --data),
# and option values that start with "-".
SYNTAX_EQUIVALENTS = [
    ("count --k 3 --n 12 --method formula", "count --k=3 --n=12 --meth formula"),
    ("expand sg --k 3 --order 2", "expand sg --k=3 --ord 2"),
    ("expand csg --k 4 --order 5 --format json", "expand --format=json csg --or=5 --k 4"),
    ("--data-dir {tmp} count --k 3 --n 6", "--data={tmp} count --k 3 --n 6"),
    (
        "validate --which csg --k 3 --n 10:20:10 --r 0",
        "validate --wh=csg --k 3 --n=10:20:10 --r 0",
    ),
    ("stirling --r -1", "stirling --r=-1"),
    ("count --k 3 --n -1", "count --n=-1 --k 3"),
]


@pytest.mark.parametrize("plain, spelled", SYNTAX_EQUIVALENTS)
def test_argument_spellings_are_equivalent(plain, spelled, tmp_path, capsys):
    expected = run(plain.format(tmp=tmp_path).split(), capsys)
    assert run(spelled.format(tmp=tmp_path).split(), capsys) == expected
    assert expected[0] == cli.EXIT_OK or expected[2].startswith("error: ")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["-h"], "usage: regasym [-h]"),
        (["--help"], "usage: regasym [-h]"),
        (["--data-dir", "x", "--help", "count"], "usage: regasym [-h]"),
        *(
            ([name, flag], f"usage: regasym {name} [-h]")
            for name in cli.COMMANDS
            for flag in ("-h", "--help")
        ),
        (["expand", "sg", "--k", "3", "--help"], "usage: regasym expand [-h]"),
    ],
)
def test_help_at_either_level_exits_zero(argv, usage, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.startswith(usage) and "-h, --help" in out


# One line on stderr and exit 2 for each kind of usage error
USAGE_ERRORS = [
    ([], "a command is required (choose from expand, formal-k, count, validate, stirling)"),
    (["nonsense"], "invalid command: 'nonsense' (choose from expand, formal-k, count, "
     "validate, stirling)"),
    (["stirling", "--r", "2", "--bogus"], "unrecognized arguments: --bogus"),
    (["stirling", "--r", "2", "-x"], "unrecognized arguments: -x"),
    (["stirling", "--r", "2", "3"], "unrecognized arguments: 3"),
    (["count", "--k", "3", "--data-dir", "x"], "unrecognized arguments: --data-dir"),
    (["expand", "sg", "--k", "3"], "the following arguments are required: --order"),
    (["expand", "--k", "3", "--order", "2"], "the following arguments are required: which"),
    (["expand", "pg", "--k", "3", "--order", "2"],
     "argument which: invalid choice: 'pg' (choose from sg, csg)"),
    (["count", "--k", "3", "--n"], "argument --n: expected one argument"),
    (["count", "--k", "x", "--n", "3"], "argument --k: invalid int value: 'x'"),
    (["count", "--k", "3", "--n", "4", "--method", "fast"],
     "argument --method: invalid choice: 'fast' (choose from formula, brute, auto)"),
    # the option takes "-1" as its value, and the count's own check rejects it
    (["count", "--k", "3", "--n", "-1"],
     "(k=3, n=-1): the degree and the vertex count must be nonnegative"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(e[0]) for e in USAGE_ERRORS]
)
def test_usage_errors_are_one_line(argv, message, capsys):
    assert run(argv, capsys) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_exact_option_name_wins_over_a_longer_one(capsys, monkeypatch):
    # no two options of the shipped table share a prefix, so two are added
    count = cli.COMMANDS["count"]
    options = {**count.options, "--kmax": cli.Opt(int, 0), "--brute-mode": cli.Opt(str, "")}
    monkeypatch.setitem(cli.COMMANDS, "count", cli.Command(count.run, count.help, options))
    assert run(["count", "--k", "3", "--n", "6"], capsys) == (cli.EXIT_OK, "70 ingested\n", "")
    assert run(["count", "--k", "3", "--n", "6", "--km", "1"], capsys)[0] == cli.EXIT_OK
    assert run(["count", "--k", "3", "--n", "6", "--brute", "9"], capsys) == (
        cli.EXIT_USAGE,
        "",
        "error: ambiguous option: --brute could match --brute-limit, --brute-mode\n",
    )


def test_bad_values_are_usage_errors(capsys):
    code, _, err = run(["expand", "sg", "--k", "1", "--order", "2"], capsys)
    assert code == 2 and "k >= 2" in err
    code, _, err = run(["expand", "csg", "--k", "2", "--order", "1"], capsys)
    assert code == 2
    code, out, err = run(
        ["validate", "--which", "sg", "--k", "3", "--n", "10:20:10", "--precision", "8"], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: precision below 64 bits is not meaningful here\n"
    for argv in (
        ["expand", "sg", "--k", "3", "--order", "-1"],
        ["expand", "csg", "--k", "3", "--order", "-1"],
        ["formal-k", "--r", "-1"],
        ["stirling", "--r", "-1"],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


# Edge values, each run in a fresh interpreter: (argv, exit code, stdout or
# None when it is not pinned).  n = 0 has a structural count but no
# residual, a negative n is a usage error, at --r 0 nothing is subtracted,
# and past the shipped tables (n <= 100) plain counts are computed while
# connected ones are NA.
EDGE_INVOCATIONS = [
    (["count", "--k", "3", "--n", "0"], 0, "1 structural\n"),
    (["count", "--k", "3", "--n", "-1"], 2, ""),
    (["count", "--k", "3", "--n", "-2"], 2, ""),
    (["count", "--k", "3", "--n", "-2", "--method", "brute"], 2, ""),
    (["count", "--k", "-1", "--n", "1"], 2, ""),
    (["count", "--k", "-3", "--n", "0"], 2, ""),
    (["count", "--k", "-1", "--n", "1", "--method", "brute"], 2, ""),
    (["count", "--k", "3", "--n", "102", "--method", "formula"], 0, None),
    (["validate", "--which", "sg", "--k", "3", "--n", "0:4:2"], 2, ""),
    (["validate", "--which", "csg", "--k", "3", "--n", "0"], 2, ""),
    (["validate", "--which", "sg", "--k", "3", "--n", "-2"], 2, ""),
    (["validate", "--which", "sg", "--k", "3", "--n", "100", "--r", "0"], 0, "n,100\n3,1.96\n"),
    (["validate", "--which", "csg", "--k", "3", "--n", "100", "--r", "0"], 0, "n,100\n3,1.96\n"),
    # k = 2's extra published term belongs to the r = 3 grid only
    (["validate", "--which", "sg", "--k", "2", "--n", "10,100", "--r", "0"], 0, "n,10,100\n2,1.89,1.99\n"),
    (["validate", "--which", "sg", "--k", "3", "--n", "100", "--r", "-1"], 2, ""),
    (["validate", "--which", "sg", "--k", "", "--n", "10"], 0, "n,10\n"),
    (["validate", "--which", "sg", "--k", "1", "--n", "10"], 2, ""),
    (["validate", "--which", "sg", "--k", "1", "--n", "10", "--r", "0"], 2, ""),
    (["validate", "--which", "csg", "--k", "2", "--n", "10", "--r", "0"], 2, ""),
    (["validate", "--which", "sg", "--k", "3", "--n", "102"], 0, "n,102\n3,3.46\n"),
    (["validate", "--which", "csg", "--k", "3", "--n", "102"], 0, "n,102\n3,NA\n"),
    # a row's n may come unsorted and repeated; cells print in the order given
    (
        ["validate", "--which", "sg", "--k", "3", "--n", "20,10,10,11,12"],
        0,
        "n,20,10,10,11,12\n3,4.05,5.04,5.04,NA,4.66\n",
    ),
    (["validate", "--which", "sg", "--k", "3,3", "--n", "10"], 0, "n,10\n3,5.04\n3,5.04\n"),
    (
        ["validate", "--which", "sg", "--k", "4", "--n", "100,10", "--precision", "4096"],
        0,
        "n,100,10\n4,14.01,17.93\n",
    ),
    (
        ["validate", "--which", "csg", "--k", "4", "--n", "12,10,100"],
        0,
        "n,12,10,100\n4,16.94,17.93,14.01\n",
    ),
]
DOCUMENTED_EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_USAGE,
    cli.EXIT_INTERNAL,
    cli.EXIT_DEGREE,
    cli.EXIT_COUNT_MISMATCH,
    cli.EXIT_GOLDEN_MISMATCH,
}


@pytest.mark.parametrize(
    "argv, code, stdout", EDGE_INVOCATIONS, ids=[" ".join(e[0]) for e in EDGE_INVOCATIONS]
)
def test_edge_values_exit_with_a_documented_code(argv, code, stdout):
    proc = run_fresh("-m", "regasym", *argv)
    assert proc.returncode in DOCUMENTED_EXIT_CODES, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr
    if stdout is not None:
        assert proc.stdout == stdout
    if code == cli.EXIT_USAGE:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# Exact output text of the structured formats.
PINNED_OUTPUTS = {
    "expand sg --k 3 --order 2 --format json": """[
  {
    "k": 3,
    "r": 0,
    "coefficient": "2"
  },
  {
    "k": 3,
    "r": 1,
    "coefficient": "-71/18"
  },
  {
    "k": 3,
    "r": 2,
    "coefficient": "-143/1296"
  }
]
""",
    "expand csg --k 4 --order 5 --format json": """{
  "k": 4,
  "terms": [
    {
      "k": 4,
      "r": 0,
      "coefficient": "2"
    },
    {
      "k": 4,
      "r": 1,
      "coefficient": "-235/24"
    },
    {
      "k": 4,
      "r": 2,
      "coefficient": "18289/2304"
    },
    {
      "k": 4,
      "r": 3,
      "coefficient": "22776313/1658880"
    },
    {
      "k": 4,
      "r": 4,
      "coefficient": "1727827201/63700992"
    },
    {
      "k": 4,
      "r": 5,
      "coefficient": "9485657202323/107017666560"
    }
  ],
  "gap_valuation": 5
}
""",
    "expand sg --k 3 --order 2 --format csv": """k,r,coefficient
3,0,2
3,1,-71/18
3,2,-143/1296
""",
    "stirling --r 3 --format json": """[
  {
    "r": 0,
    "coefficient": "1"
  },
  {
    "r": 1,
    "coefficient": "1/12"
  },
  {
    "r": 2,
    "coefficient": "1/288"
  },
  {
    "r": 3,
    "coefficient": "-139/51840"
  }
]
""",
}


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS))
def test_structured_output_is_pinned(argv, capsys):
    assert run(argv.split(), capsys) == (0, PINNED_OUTPUTS[argv], "")


def test_help_mentions_defaults(capsys):
    from regasym import validation

    for argv, expected in (
        (["count", "--help"], "--method"),
        (["count", "--help"], "default auto"),
        # the parser does not load the harness, so its default is restated here
        (["validate", "--help"], f"in bits (default {validation.DEFAULT_PRECISION})"),
    ):
        assert cli.main(argv) == cli.EXIT_OK
        assert expected in " ".join(capsys.readouterr().out.split())


def test_determinism(capsys):
    a = run(["expand", "sg", "--k", "5", "--order", "2", "--format", "json"], capsys)
    b = run(["expand", "sg", "--k", "5", "--order", "2", "--format", "json"], capsys)
    assert a == b


def test_parse_int_list():
    assert cli.parse_int_list("10:100:10") == tuple(range(10, 101, 10))
    assert cli.parse_int_list("3,5,9") == (3, 5, 9)
    assert cli.parse_int_list("7") == (7,)
    assert cli.parse_int_list("") == ()
    assert cli.parse_int_list("4:6") == (4, 5, 6)
    with pytest.raises(ValueError):
        cli.parse_int_list("1:10:0")


# Internal alarms of the polynomial layer, injected in a fresh interpreter:
# each exits 3 with one line and no traceback, under python -O too.
LAYER_FAULTS = {
    # the moment rule meets t_2 with no weight declared for it
    "missing_weight": (
        "orig = regular._moment_weights\n"
        "regular._moment_weights = lambda r: {j: w for j, w in orig(r).items() if j != 2}\n",
        "no moment weight declared for variable 2",
    ),
    # an exponent past MAX_EXP reaches a product
    "exponent_overflow": (
        "from regasym.multipoly import MAX_EXP, MPoly, monomial\n"
        "big = MPoly({monomial({1: MAX_EXP}): 1})\n"
        "orig = regular.gaussian_hadamard\n"
        "regular.gaussian_hadamard = lambda p, weights: orig(p * big * big, weights)\n",
        "an exponent exceeds",
    ),
    # R = 2 + ...: psi = R^{-1/2} meets a constant term other than 1
    "bad_constant_term": (
        "orig = regular.phase_ratio\n"
        "regular.phase_ratio = lambda order: orig(order) * 2\n",
        "pow requires constant term 1, got 2",
    ),
    # a tree series known to order 2 where c2_series reads order 4
    "insufficient_order": (
        "orig = regular.newton_solve_tree\n"
        "regular.newton_solve_tree = lambda psi: orig(psi).truncate(2)\n",
        "cannot extend a series of order 2 to order 4",
    ),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
@pytest.mark.parametrize("fault", sorted(LAYER_FAULTS))
def test_layer_alarms_are_internal_assertions(fault, flags):
    patch, message = LAYER_FAULTS[fault]
    script = (
        "import sys\n"
        "from regasym import cli, regular\n"
        + patch
        + "sys.exit(cli.main(['expand', 'sg', '--k', '3', '--order', '2']))\n"
    )
    proc = run_fresh(*flags, "-c", script)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INTERNAL, ""), proc.stderr
    assert proc.stderr.startswith("internal assertion failed: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr


def test_precision_underflow_is_a_usage_error(capsys, monkeypatch):
    # a cell still cancelling at 8 times the precision asks for more bits
    from regasym import validation

    def underflow(k, counts, coeffs, precision, _depth=0):
        raise validation.PrecisionUnderflow(k, min(counts), 8 * precision)

    monkeypatch.setattr(validation, "_row_residuals", underflow)
    code, out, err = run(["validate", "--which", "sg", "--k", "3", "--n", "10"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: (k=3, n=10) still cancelling at precision 2048; raise --precision\n"


# Every exception class the layers define, raised from a command handler,
# with the exit code cli.main must give it by base class alone and the
# arguments it is built from (a message when none are given).  A class
# without a row here fails.
LAYERS = ("series", "multipoly", "counts", "regular", "connected", "validation")
EXCEPTION_EXITS = {
    **dict.fromkeys(
        (
            "SeriesError",
            "BadConstantTerm",
            "InsufficientOrder",
            "BadParity",
            "ValuationViolation",
            "RouteMismatch",
            "IrrationalPrefactor",
            "GapMismatch",
            "MissingWeight",
            "ExponentOverflow",
            "NonIntegerResult",
        ),
        cli.EXIT_INTERNAL,
    ),
    "DegreeOverflow": cli.EXIT_DEGREE,
    "CountConflict": cli.EXIT_COUNT_MISMATCH,
    **dict.fromkeys(
        ("CountError", "LimitExceeded", "ParseError", "OffsetMismatch", "PrecisionUnderflow"),
        cli.EXIT_USAGE,
    ),
}
EXCEPTION_ARGS = {
    "GapMismatch": (3, (2, Fraction(-8, 27)), (2, Fraction(-4, 27)), None, None),
    "MissingWeight": (2,),
    "CountConflict": (3, 4, 1, 2, "formula", "brute"),
    "ParseError": (7, "1 2 3"),
    "PrecisionUnderflow": (3, 10, 256),
}
EXIT_PREFIXES = {
    cli.EXIT_USAGE: "error: ",
    cli.EXIT_INTERNAL: "internal assertion failed: ",
    cli.EXIT_DEGREE: "degree overflow: ",
    cli.EXIT_COUNT_MISMATCH: "count mismatch: ",
}


def layer_exceptions():
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"regasym.{layer}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda cls: cls.__name__)


def test_exit_table_rows_are_the_layer_exceptions():
    assert sorted(EXCEPTION_EXITS) == [cls.__name__ for cls in layer_exceptions()]


@pytest.mark.parametrize("exc_type", layer_exceptions(), ids=lambda cls: cls.__name__)
def test_each_exception_exits_by_its_base_class(exc_type, capsys, monkeypatch):
    name = exc_type.__name__
    exc = exc_type(*EXCEPTION_ARGS.get(name, (f"injected {name}",)))

    def handler(args, out):
        raise exc

    monkeypatch.setattr(cli.COMMANDS["stirling"], "run", handler)
    code, out, err = run(["stirling", "--r", "1"], capsys)
    assert (code, out) == (EXCEPTION_EXITS[name], "")
    assert err == f"{EXIT_PREFIXES[code]}{exc}\n" and err.count("\n") == 1, err


# Break one route of a cross-route check, then run the CLI in a fresh
# python -O process (empty caches; bare asserts stripped): the check must
# still fire and exit 3.
BROKEN_ROUTES = {
    "psi": (
        "orig = regular.phase_ratio\n"
        "regular.phase_ratio = lambda order: bump(orig(order), 1)\n",
        "closed form",
    ),
    # the psi check's second route multiplies instead of taking the power,
    # so a fault in the power itself cannot cancel out
    "pow_rational": (
        "orig = Series.pow_rational\n"
        "def pow_rational(self, e):\n"
        "    out = orig(self, e)\n"
        "    return bump(out, 3) if e == Fraction(-1, 2) and out.order >= 3 else out\n"
        "Series.pow_rational = pow_rational\n",
        "closed form",
    ),
    "u_pq": (
        "orig = regular.newton_solve_tree\n"
        "regular.newton_solve_tree = lambda psi: bump(orig(psi), 2)\n",
        "tree route",
    ),
    # the shared table's W and psi, corrupted after the table is built
    "w_table": (
        "orig = regular._Tables.__init__\n"
        "def init(self, order):\n"
        "    orig(self, order)\n"
        "    self.w_powers[1] = bump(self.w_powers[1], 3)\n"
        "regular._Tables.__init__ = init\n",
        "tree route",
    ),
    "psi_table": (
        "orig = regular._Tables.__init__\n"
        "def init(self, order):\n"
        "    orig(self, order)\n"
        "    self.psi_powers[1] = bump(self.psi_powers[1], 3)\n"
        "regular._Tables.__init__ = init\n",
        "inversion route",
    ),
}


@pytest.mark.parametrize("route", sorted(BROKEN_ROUTES))
def test_cross_check_alarm_survives_optimize(route):
    patch, message = BROKEN_ROUTES[route]
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from regasym import cli, regular\n"
        "from regasym.series import Series\n"
        "assert False, 'python -O must strip this'\n"
        "def bump(s, power):\n"
        "    return s + Series([0] * power + [Fraction(1, 7)], s.order)\n"
        + patch
        + "sys.exit(cli.main(['expand', 'sg', '--k', '3', '--order', '2']))\n"
    )
    proc = run_fresh("-O", "-c", script)
    assert proc.returncode == cli.EXIT_INTERNAL, proc.stderr
    assert "internal assertion failed" in proc.stderr and message in proc.stderr, proc.stderr
