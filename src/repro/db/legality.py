"""Placement legality checking (constraints Eq. 5-8 of the paper).

A placement is legal when every movable cell is inside the die, aligned
to a placement site horizontally (Eq. 7), aligned to a row vertically
with the row's orientation (Eq. 8), free of overlaps with other cells and
placement blockages (Eq. 6), and fully inside the circuit (Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.design import Design


@dataclass(slots=True)
class LegalityReport:
    """The violations found by :func:`check_legality`."""

    out_of_die: list[str] = field(default_factory=list)
    off_site: list[str] = field(default_factory=list)
    off_row: list[str] = field(default_factory=list)
    bad_orient: list[str] = field(default_factory=list)
    overlaps: list[tuple[str, str]] = field(default_factory=list)
    blocked: list[str] = field(default_factory=list)

    @property
    def is_legal(self) -> bool:
        return not (
            self.out_of_die
            or self.off_site
            or self.off_row
            or self.bad_orient
            or self.overlaps
            or self.blocked
        )

    def summary(self) -> str:
        return (
            f"out_of_die={len(self.out_of_die)} off_site={len(self.off_site)} "
            f"off_row={len(self.off_row)} bad_orient={len(self.bad_orient)} "
            f"overlaps={len(self.overlaps)} blocked={len(self.blocked)}"
        )


def check_legality(design: Design) -> LegalityReport:
    """Check every cell of ``design`` against the legality constraints."""
    report = LegalityReport()
    for cell in design.cells.values():
        box = cell.bbox()
        if not design.die.contains_rect(box):
            report.out_of_die.append(cell.name)
            continue
        row = design.row_at_y(cell.y)
        if row is None:
            report.off_row.append(cell.name)
            continue
        if not row.contains_x_span(box.lx, box.ux):
            report.out_of_die.append(cell.name)
            continue
        if (cell.x - row.origin_x) % row.site.width != 0:
            report.off_site.append(cell.name)
        if cell.orient != row.orient:
            report.bad_orient.append(cell.name)
        for blockage in design.placement_blockages():
            if box.intersects(blockage.rect, strict=True):
                report.blocked.append(cell.name)
                break
    report.overlaps = design.spatial.overlapping_pairs()
    return report
