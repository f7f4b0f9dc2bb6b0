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
    # Round-trip what we dumped.
    from repro.lefdef import parse_def, parse_guides, parse_lef

    tech = parse_lef((tmp_path / "ispd18_test1.lef").read_text())
    design = parse_def((tmp_path / "ispd18_test1.def").read_text(), tech)
    guides = parse_guides((tmp_path / "ispd18_test1.guide").read_text(), tech)
    assert design.name == "ispd18_test1"
    assert set(guides) <= set(design.nets)


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


def test_check_clean_flow(tmp_path, capsys):
    report = tmp_path / "check.json"
    assert main(["check", "-b", "ispd18_test1", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    import json

    document = json.loads(report.read_text())
    assert document["schema"] == "repro.analyze/1"
    assert document["design"] == "ispd18_test1"
    assert document["findings"] == []


def test_check_skip_routing(capsys):
    assert main(["check", "-b", "ispd18_test1", "--skip-routing"]) == 0
    assert "clean" in capsys.readouterr().out


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
