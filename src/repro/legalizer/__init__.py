"""The placement legalizer: :class:`WindowLegalizer`, the paper's
ILP-based local legalizer (Section IV.B.2, Eq. 11).  It generates
multiple legalized candidate positions for a critical cell inside an
``N_site`` x ``N_row`` window.  CR&P and [18] only refine a placement
that is already legal, so the flow has no full-design legalizer.
"""

from repro.legalizer.window import MoveCandidate, WindowLegalizer

__all__ = [
    "WindowLegalizer",
    "MoveCandidate",
]
