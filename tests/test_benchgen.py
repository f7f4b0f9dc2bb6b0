"""Unit tests for the synthetic benchmark generator and suite."""

import pytest

from repro.db import check_legality
from repro.benchgen import SUITE, generate_design, make_design, suite_table
from repro.benchgen.generator import DesignSpec
from repro.benchgen.suites import PAPER_TABLE2
from repro.tech import PinDirection


def small_spec(**overrides):
    params = dict(
        name="gen_test",
        num_cells=80,
        num_nets=70,
        utilization=0.75,
        gcells_per_axis=8,
        num_iopins=6,
        seed=99,
    )
    params.update(overrides)
    return DesignSpec(**params)


def test_generated_design_is_legal():
    design = generate_design(small_spec())
    report = check_legality(design)
    assert report.is_legal, report.summary()


def test_generated_counts_match_spec():
    spec = small_spec()
    design = generate_design(spec)
    assert len(design.cells) == spec.num_cells
    assert len(design.nets) == spec.num_nets
    assert len(design.iopins) == spec.num_iopins


def test_generation_is_deterministic():
    a = generate_design(small_spec())
    b = generate_design(small_spec())
    assert [c.x for c in a.cells.values()] == [c.x for c in b.cells.values()]
    assert [
        [p.key() for p in n.pins] for n in a.nets.values()
    ] == [[p.key() for p in n.pins] for n in b.nets.values()]


def test_different_seeds_differ():
    a = generate_design(small_spec(seed=1))
    b = generate_design(small_spec(seed=2))
    assert [c.x for c in a.cells.values()] != [c.x for c in b.cells.values()]


def test_each_pin_used_at_most_once():
    design = generate_design(small_spec())
    used = set()
    for net in design.nets.values():
        for pin in net.pins:
            if pin.cell is None:
                continue
            key = (pin.cell, pin.pin)
            assert key not in used, key
            used.add(key)


def test_nets_have_one_driver():
    design = generate_design(small_spec())
    for net in design.nets.values():
        drivers = [
            p
            for p in net.pins
            if p.cell is not None
            and design.cells[p.cell].macro.pin(p.pin).direction
            is PinDirection.OUTPUT
        ]
        assert len(drivers) == 1, net.name


def test_blockages_generated():
    design = generate_design(small_spec(num_blockages=2, utilization=0.6))
    assert len(design.placement_blockages()) == 2
    assert design.routing_blockages()
    assert check_legality(design).is_legal


def test_locality_controls_wirelength():
    local = generate_design(small_spec(locality=0.95, seed=5))
    globl = generate_design(small_spec(locality=0.05, seed=5))
    assert local.total_hpwl() < globl.total_hpwl()


def test_utilization_tracks_spec():
    design = generate_design(small_spec(utilization=0.8, num_blockages=0))
    assert 0.5 <= design.utilization() <= 0.9


def test_suite_covers_table2():
    assert set(SUITE) == set(PAPER_TABLE2)
    rows = suite_table()
    assert len(rows) == 10
    for row in rows:
        # scaled counts preserve the published cells/nets ratio within 20%
        paper_ratio = row["paper_cells"] / row["paper_nets"]
        ours_ratio = row["cells"] / row["nets"]
        assert ours_ratio == pytest.approx(paper_ratio, rel=0.2), row["circuit"]


def test_make_design_known_and_unknown():
    design = make_design("ispd18_test1")
    assert design.name == "ispd18_test1"
    assert check_legality(design).is_legal
    with pytest.raises(KeyError):
        make_design("ispd18_test99")


def test_test2_less_congested_than_test5():
    """The suite encodes the paper's congestion ordering."""
    assert SUITE["ispd18_test2"].utilization < SUITE["ispd18_test5"].utilization
    assert SUITE["ispd18_test2"].num_blockages < SUITE["ispd18_test5"].num_blockages


def test_same_spec_generates_identical_def_bytes():
    """Regression for the RNG plumbing: two generations, one byte stream.

    Every generator path derives from the single seeded stream built by
    ``DesignSpec.rng()``, so regenerating a spec must reproduce the DEF
    byte-for-byte — the property a re-run and the benchmark's fresh
    interpreters rely on.
    """
    from repro.lefdef.def_parser import write_def

    first = write_def(generate_design(small_spec())).encode()
    second = write_def(generate_design(small_spec())).encode()
    assert first == second


def test_generation_reproducible_across_spawn_process():
    """A fresh interpreter regenerates the same DEF bytes.

    It re-imports everything from scratch, so any hidden module-level
    randomness (import-time shuffles, unseeded globals) would change
    the bytes.
    """
    import subprocess
    import sys
    from pathlib import Path

    from repro.lefdef.def_parser import write_def

    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.benchgen.generator import DesignSpec, generate_design\n"
        "from repro.lefdef.def_parser import write_def\n"
        "spec = DesignSpec(name='gen_test', num_cells=80, num_nets=70,\n"
        "                  utilization=0.75, gcells_per_axis=8,\n"
        "                  num_iopins=6, seed=99)\n"
        "sys.stdout.write(write_def(generate_design(spec)))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(src)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    local = write_def(generate_design(small_spec()))
    assert child.stdout == local
