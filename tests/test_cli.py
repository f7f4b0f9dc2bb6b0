"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "ispd18_test1" in out
    assert "ispd18_test10" in out
    assert "45nm" in out and "32nm" in out


def test_run_requires_bench():
    with pytest.raises(SystemExit):
        main(["run"])


def test_run_skip_detailed(capsys):
    assert main(["run", "-b", "ispd18_test1", "-m", "baseline", "--skip-detailed"]) == 0
    out = capsys.readouterr().out
    assert "ispd18_test1" in out


def test_run_says_so_when_connections_stay_open(capsys, monkeypatch):
    """One extra line, and only while ``droute.opens`` is not zero."""
    import repro.flow
    from repro.flow import FlowResult

    for opens in (0, 2):
        counters = {"droute.opens": float(opens)} if opens else {}
        monkeypatch.setattr(
            repro.flow, "run_flow",
            lambda design, **kw: FlowResult(
                design=design.name, mode="crp", metrics={"counters": counters}
            ),
        )
        assert main(["run", "-b", "ispd18_test1", "-m", "crp"]) == 0
        out = capsys.readouterr().out
        assert ("opens: 2 connection(s)" in out) == bool(opens)


def test_dump_writes_files(tmp_path, capsys):
    assert main(["dump", "-b", "ispd18_test1", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "ispd18_test1.lef").exists()
    assert (tmp_path / "ispd18_test1.def").exists()
    assert (tmp_path / "ispd18_test1.guide").exists()
    # Round-trip what we dumped; the guides are the global router's.
    from repro.benchgen import make_design
    from repro.groute import GlobalRouter
    from repro.lefdef import parse_def, parse_lef, write_guides

    tech = parse_lef((tmp_path / "ispd18_test1.lef").read_text())
    design = parse_def((tmp_path / "ispd18_test1.def").read_text(), tech)
    assert design.name == "ispd18_test1"
    router = GlobalRouter(make_design("ispd18_test1"))
    router.route_all()
    assert (tmp_path / "ispd18_test1.guide").read_text() == write_guides(
        router.guides(), tech
    )


def _digests(out: str) -> str:
    return next(line for line in out.splitlines() if "digests:" in line)


def test_run_from_dumped_lef_def_matches_bench(tmp_path, capsys):
    """``crp run --lef --def`` on what ``crp dump`` wrote gives the
    ``-b`` run's routes and placement, digest for digest."""
    assert main(["dump", "-b", "ispd18_test1", "-o", str(tmp_path)]) == 0
    flow = ["-m", "crp", "-k", "1", "--skip-detailed"]
    capsys.readouterr()
    assert main(["run", "-b", "ispd18_test1", *flow]) == 0
    from_bench = _digests(capsys.readouterr().out)
    files = ["--lef", str(tmp_path / "ispd18_test1.lef"),
             "--def", str(tmp_path / "ispd18_test1.def")]
    assert main(["run", *files, *flow]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ispd18_test1 [crp k=1]")
    assert _digests(out) == from_bench


@pytest.mark.parametrize("argv", [
    ["run", "--lef", "x.lef"],
    ["run", "-b", "ispd18_test1", "--def", "x.def"],
    ["run", "-b", "ispd18_test1", "--lef", "x.lef", "--def", "x.def"],
    ["suite", "--def", "x.def"],
])
def test_lef_and_def_replace_bench_together(argv):
    with pytest.raises(SystemExit):
        main(argv)


def test_dump_refuses_an_illegal_placement(tmp_path, capsys, monkeypatch):
    """A cell moved off its row: exit code 1, the legality summary on
    stderr, and no file written."""
    import repro.benchgen

    make_design = repro.benchgen.make_design

    def off_row(name):
        design = make_design(name)
        cell = next(c for c in design.cells.values() if not c.fixed)
        design.move_cell(cell.name, cell.x, cell.y + 1)
        return design

    monkeypatch.setattr(repro.benchgen, "make_design", off_row)
    assert main(["dump", "-b", "ispd18_test1", "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "refusing to dump an illegal placement" in err
    assert "off_row=1" in err
    assert not list(tmp_path.iterdir())


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_show_renders_heatmap(tmp_path, capsys):
    svg = tmp_path / "die.svg"
    assert main(["show", "-b", "ispd18_test1", "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "legend" in out
    assert "Metal1" in out
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_analyze_clean_file(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    report = tmp_path / "analysis.json"
    assert main(["analyze", str(mod), "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert report.exists()


def test_analyze_finding_fails(tmp_path, capsys, monkeypatch):
    # chdir so the report path relativizes to `mod.py` — the absolute
    # pytest tmp dir contains `/test_`, which several rules exclude
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("x = displacement == 0.0\n")
    assert main(["analyze", "mod.py"]) == 1
    out = capsys.readouterr().out
    assert "REPRO-D003" in out


def test_analyze_with_flow_invariants(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    report = tmp_path / "analysis.json"
    assert main(
        ["analyze", str(mod), "-b", "ispd18_test1", "--json", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "flow invariants: ispd18_test1" in out
    import json

    document = json.loads(report.read_text())
    assert document["flow"]["design"] == "ispd18_test1"
    assert document["flow"]["findings"] == []
