"""Configuration dataclasses shared by the solvers, plus the per-fit report."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

__all__ = ["AnnealSchedule", "SolverConfig", "FitReport"]


def _check_int(name: str, value, low: int = 1) -> None:
    """A count, such as an iteration budget, is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric penalty ladder with a normalized-distance stopping rule."""

    rho0: float = 1.0
    multiplier: float = 1.2
    max_outer: int = 100
    dist_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")
        if not 1.0 < self.multiplier < math.inf:
            raise ValueError(f"multiplier must exceed 1 and be finite, got {self.multiplier}")
        _check_int("max_outer", self.max_outer)
        if not 0 < self.dist_tol < math.inf:
            raise ValueError(f"dist_tol must be positive and finite, got {self.dist_tol}")


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver tolerances: ``grad_tol`` bounds the squared gradient norm,
    ``max_inner`` the updates of one penalty level."""

    grad_tol: float = 1e-6
    max_inner: int = 10_000

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        _check_int("max_inner", self.max_inner)


@dataclass
class FitReport:
    """Diagnostics of one fit: iteration counts, final objective pieces, timing."""

    outer_iters: int = 0
    rho: float = float("nan")  # penalty of the last level solved
    total_inner_iters: int = 0
    objective: float = float("nan")
    grad_sq: float = float("nan")
    distance: float = float("nan")
    sv_count: int = 0
    converged: bool = False
    wall_time: float = 0.0
    # why prox_dist_fit's ladder ended: "distance" (then converged), "budget"
    # (the levels spent) or "inner_budget" (the last level's updates spent);
    # None for a single-level solve
    stop_reason: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["converged"] = bool(d["converged"])
        return d
