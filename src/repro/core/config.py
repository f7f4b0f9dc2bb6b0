"""CR&P configuration (the paper's tuned constants as defaults)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CrpConfig:
    """Knobs of the CR&P framework.

    Defaults are the values the paper reports: window legalizer with
    ``|sites| = 20``, ``|rows| = 5``, ``|cells| <= 3``.  The paper's
    other constants, which no flow varies, are module constants where
    they are used: ``gamma`` and the annealing temperature ``T`` in
    :mod:`repro.core.labeling`, the candidates per cell in
    :mod:`repro.core.candidates`.

    ``use_penalty`` and ``prioritize`` exist for the ablation studies:
    disabling them reproduces the two modeling choices the paper credits
    for beating the state of the art [18].

    Every ILP (Eq. 12 selection, Eq. 11 windows past three cells) is
    solved exactly by HiGHS (``repro.ilp.solve``), as the paper's
    CPLEX solves them; there is no solver or solve-budget knob.
    """

    n_sites: int = 20
    n_rows: int = 5
    max_cells: int = 3
    #: RNG seed for the simulated-annealing acceptance test
    seed: int = 0
    #: include the congestion penalty in movement cost estimation
    use_penalty: bool = True
    #: order cells by routed-net cost (False = arbitrary order, like [18])
    prioritize: bool = True

    def validate(self) -> None:
        if self.n_sites < 2 or self.n_rows < 1 or self.max_cells < 1:
            raise ValueError("degenerate legalizer window")
