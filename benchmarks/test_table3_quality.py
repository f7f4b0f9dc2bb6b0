"""Table III — detailed-routing quality: wirelength, DRVs, via count.

For every suite design, runs the four flows the paper compares —
CUGR+TritonRoute baseline (ours: GR+DR), the state of the art [18]
(ours: the Fontana reimplementation), CR&P k=1, and CR&P k=10 — and
prints the same columns: baseline absolute numbers plus percentage
improvement for each contender.

Expected shape (not absolute numbers): via improvement exceeds
wirelength improvement, k=10 >= k=1 on average, no systematic DRV
increase, and [18] is only competitive on the least congested designs
(test2/test3 analogues).
"""

from __future__ import annotations

import pytest

from conftest import VARIANTS, flow_result, write_table


def _pct(new: float, old: float) -> float:
    if old == 0:
        return 0.0
    return 100.0 * (old - new) / old


def _by_kind(quality) -> str:
    """``open/short/min-area`` of one result: an open (contest weight 1 500)
    that became a short or a min-area (500 each) is a better result with a
    higher total, and only the breakdown shows it."""
    if quality is None:
        return "--"
    kinds = quality.drv_breakdown
    return "/".join(str(kinds.get(k, 0)) for k in ("open", "short", "min_area"))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="k=10 via improvement does not dominate wirelength: vias 12.81 % "
    "< wirelength 20.75 % (quick mode, with negotiated DR rounds and the "
    "hand-off overflow repair); the "
    "generated placements leave global-placement slack, see ROADMAP item 2",
)
def test_table3_quality(benchmark, designs):
    def run_all():
        return {
            (name, variant): flow_result(name, variant)
            for name in designs
            for variant in VARIANTS
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Table III: detailed-routing wirelength / DRVs / vias",
        "(improvements are % vs the GR+DR baseline; positive = better)",
        f"{'Benchmark':<15}{'BL wl':>11}{'[18] wl%':>9}{'k=1 wl%':>9}{'k=10 wl%':>9}"
        f"{'BL drv':>7}{'[18]':>6}{'k=1':>5}{'k=10':>5}"
        f"{'BL vias':>9}{'[18] v%':>9}{'k=1 v%':>8}{'k=10 v%':>8}",
        "-" * 110,
    ]
    avg = {v: {"wl": [], "vias": []} for v in VARIANTS}
    shape_rows = []
    for name in designs:
        base = results[(name, "baseline")].quality
        row = [f"{name:<15}{base.wirelength_dbu:>11}"]
        per_variant = {}
        for variant in ("fontana", "crp1", "crp10"):
            res = results[(name, variant)]
            if res.failed or res.quality is None:
                per_variant[variant] = None
            else:
                per_variant[variant] = res.quality
        for variant in ("fontana", "crp1", "crp10"):
            q = per_variant[variant]
            if q is None:
                row.append(f"{'Failed':>9}")
            else:
                wl_pct = _pct(q.wirelength_dbu, base.wirelength_dbu)
                avg[variant]["wl"].append(wl_pct)
                row.append(f"{wl_pct:>9.2f}")
        row.append(f"{base.drvs:>7}")
        for variant in ("fontana", "crp1", "crp10"):
            q = per_variant[variant]
            row.append(f"{'--':>6}" if q is None else f"{q.drvs:>6}")
        row.append(f"{base.vias:>9}")
        for variant in ("fontana", "crp1", "crp10"):
            q = per_variant[variant]
            if q is None:
                row.append(f"{'Failed':>9}")
            else:
                via_pct = _pct(q.vias, base.vias)
                avg[variant]["vias"].append(via_pct)
                row.append(f"{via_pct:>8.2f}")
        lines.append("".join(row))
        shape_rows.append((name, base, per_variant))

    lines.append("-" * 110)
    means = {}
    for variant in ("fontana", "crp1", "crp10"):
        wl = avg[variant]["wl"]
        vias = avg[variant]["vias"]
        means[variant] = (
            sum(wl) / len(wl) if wl else 0.0,
            sum(vias) / len(vias) if vias else 0.0,
        )
    lines.append(
        f"{'Avg':<15}{'':>11}"
        f"{means['fontana'][0]:>9.2f}{means['crp1'][0]:>9.2f}{means['crp10'][0]:>9.2f}"
        f"{'':>7}{'':>6}{'':>5}{'':>5}{'':>9}"
        f"{means['fontana'][1]:>9.2f}{means['crp1'][1]:>8.2f}{means['crp10'][1]:>8.2f}"
    )
    lines.append("")
    lines.append("DRVs by kind (open/short/min-area)")
    lines.append(f"{'Benchmark':<15}{'BL':>12}{'[18]':>12}{'k=1':>12}{'k=10':>12}")
    for name, base, per_variant in shape_rows:
        lines.append(
            f"{name:<15}{_by_kind(base):>12}"
            + "".join(
                f"{_by_kind(per_variant[v]):>12}" for v in ("fontana", "crp1", "crp10")
            )
        )
    lines.append("")
    lines.append(
        "paper averages: [18] wl -0.74% / vias +0.74%; "
        "CR&P k=1 wl +0.04% / vias +0.80%; k=10 wl +0.14% / vias +2.06%"
    )
    write_table("table3", lines)

    # ---- shape assertions -------------------------------------------
    # CR&P k=10 must improve vias on average, and more than wirelength.
    assert means["crp10"][1] > 0.0, "CR&P k=10 should reduce vias on average"
    assert means["crp10"][1] >= means["crp10"][0] - 1e-9, (
        "via improvement should dominate wirelength improvement"
    )
    # k=10 should be at least as good as k=1 on vias (on average).
    assert means["crp10"][1] >= means["crp1"][1] - 0.5
    # No systematic DRV explosion: average DRV delta <= +15% of baseline.
    deltas = []
    for name, base, per_variant in shape_rows:
        for variant in ("crp1", "crp10"):
            q = per_variant[variant]
            if q is not None:
                deltas.append(q.drvs - base.drvs)
    if deltas:
        base_total = sum(b.drvs for _, b, _ in shape_rows)
        assert sum(deltas) / max(1, len(deltas)) <= max(
            2.0, 0.15 * base_total / max(1, len(shape_rows))
        ), "CR&P must not systematically add DRVs"


def test_hand_off_overflow_is_repaired(designs):
    """GR hands DR no reported overflow: not after GR alone, and not after
    CR&P k=1 or k=10, whose stage ends with the overflow repair
    (ROADMAP Finding 5)."""
    left = {
        (name, variant): result.gr_overflow
        for name in designs
        for variant in ("baseline", "crp1", "crp10")
        if (result := flow_result(name, variant)).gr_overflow > 0
    }
    assert not left, f"reported overflow at hand-off to DR: {left}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="CR&P k=1 adds DRVs on ispd18_test5: 4 at the GR+DR baseline "
    "(0/4/0 open/short/min-area), 6 at k=1 (0/2/4); test1 0 -> 0 and test2 "
    "2 -> 2 hold (quick mode, with negotiated DR rounds); see ROADMAP item 3",
)
def test_table3_k1_adds_no_drvs(designs):
    """The paper's "no new DRVs" claim at k=1: on every design CR&P k=1,
    detailed-routed, has no more DRVs than the GR+DR baseline."""
    worse = {}
    for name in designs:
        base = flow_result(name, "baseline").quality
        k1 = flow_result(name, "crp1").quality
        if k1.drvs > base.drvs:
            worse[name] = (base.drvs, k1.drvs)
    assert not worse, f"k=1 DRVs above the baseline's: {worse}"

