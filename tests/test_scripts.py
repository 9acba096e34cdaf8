import importlib.util

from regasym.counts import DATA_DIR

from conftest import SCRIPTS


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_reference_counts_reproduces_shipped_prefix(tmp_path, capsys):
    # the run includes the script's cross-checks against brute force, the
    # moment formula and degree complements
    script = load_script("make_reference_counts")
    assert script.main(["--nmax", "10", "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["csg_k3.txt", "csg_k4.txt", "sg_k3.txt", "sg_k4.txt", "sg_k5.txt"]
    for name in written:
        shipped = (DATA_DIR / name).read_text().splitlines()[:13]  # header and n = 0..10
        assert (tmp_path / name).read_text().splitlines() == shipped, name
    assert "cross-table complement check passed" in capsys.readouterr().out


def test_reproduce_reference_tables_runs_every_subcommand(capsys):
    # expand (sg and csg), formal-k and validate (both grids) through cli.main
    script = load_script("reproduce_reference_tables")
    assert script.main() == 0
    out, err = capsys.readouterr()
    assert "== residual grid, connected counts, r = 3 ==" in out
    assert "the only deviation is the published cell k=5, n=10" in err


def test_reproduce_reference_tables_fails_on_a_second_deviating_cell(monkeypatch, capsys):
    # the known published cell k=5, n=10 is tolerated only as the plain
    # grid's one deviation
    from regasym import validation

    row = list(validation.GOLDEN_SG[3])
    row[validation.TABLE_NS.index(10)] = "9.99"
    monkeypatch.setitem(validation.GOLDEN_SG, 3, tuple(row))
    script = load_script("reproduce_reference_tables")
    assert script.main() != 0
    err = capsys.readouterr().err
    assert "cell (k=3, n=10) deviates" in err and "cell (k=5, n=10) deviates" in err
    assert "the only deviation" not in err


def test_reproduce_reference_tables_fails_on_a_failing_coefficient_run(monkeypatch, capsys):
    # a failing formal-k run must end the script nonzero, with its own exit code
    from regasym import cli, regular

    def overflow(r):
        raise regular.DegreeOverflow(f"r={r}")

    monkeypatch.setattr(regular, "formal_k_interpolate", overflow)
    script = load_script("reproduce_reference_tables")
    assert script.main() == cli.EXIT_DEGREE
    err = capsys.readouterr().err
    assert "degree overflow: r=0" in err and "a coefficient run failed (exit 4)" in err
