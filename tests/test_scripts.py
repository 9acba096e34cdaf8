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
