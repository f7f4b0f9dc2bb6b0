"""CR&P configuration (the paper's tuned constants as defaults)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ilp.solver import BACKENDS as ILP_BACKENDS


@dataclass(slots=True)
class CrpConfig:
    """Knobs of the CR&P framework.

    Defaults are the values the paper reports: ``gamma = 0.6`` (fraction
    of cells eligible for movement per iteration), window legalizer with
    ``|sites| = 20``, ``|rows| = 5``, ``|cells| <= 3``, simulated-
    annealing temperature 1 (so re-selecting an already-critical cell
    has probability ``exp(-1)`` ~ 36% and an already-moved one
    ``exp(-2)`` ~ 13%).

    ``use_penalty`` and ``prioritize`` exist for the ablation studies:
    disabling them reproduces the two modeling choices the paper credits
    for beating the state of the art [18].
    """

    gamma: float = 0.6
    temperature: float = 1.0
    n_sites: int = 20
    n_rows: int = 5
    max_cells: int = 3
    #: legalized candidates requested per critical cell
    max_targets: int = 6
    #: RNG seed for the simulated-annealing acceptance test
    seed: int = 0
    #: include the congestion penalty in movement cost estimation
    use_penalty: bool = True
    #: order cells by routed-net cost (False = arbitrary order, like [18])
    prioritize: bool = True
    #: ILP backend for legalizer and selection: one of ``repro.ilp.solver.BACKENDS``
    ilp_backend: str = "auto"
    #: wall-clock budget per ILP solve (None = unbounded); on expiry the
    #: guard ladder degrades to the greedy backend instead of hanging
    ilp_budget_s: float | None = None
    #: cap on critical cells per iteration (keeps runtime bounded)
    max_critical_cells: int = 200

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.n_sites < 2 or self.n_rows < 1 or self.max_cells < 1:
            raise ValueError("degenerate legalizer window")
        if self.ilp_backend not in ILP_BACKENDS:
            raise ValueError(
                f"ilp_backend must be one of {', '.join(ILP_BACKENDS)}, "
                f"got {self.ilp_backend!r}"
            )
        if self.ilp_budget_s is not None and self.ilp_budget_s < 0:
            raise ValueError("ilp_budget_s must be non-negative")
