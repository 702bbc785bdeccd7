"""Projection onto the k-sparse coefficient set; the intercept is exempt."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _check_int

__all__ = ["SparsityConstraint", "project"]


@dataclass(frozen=True)
class SparsityConstraint:
    """Keep at most ``k`` of the ``p`` leading (non-intercept) coefficients."""

    k: int
    p: int

    def __post_init__(self):
        _check_int("k", self.k, 0)
        _check_int("p", self.p, self.k)

    @classmethod
    def from_sparsity(cls, s: float, p: int) -> "SparsityConstraint":
        """Constraint for a sparsity fraction s in [0, 1): k = round((1 - s) p)."""
        if not 0.0 <= s < 1.0:
            raise ValueError(f"sparsity fraction must lie in [0, 1), got {s}")
        return cls(int(round((1.0 - s) * p)), int(p))

    def require_p(self, p: int) -> "SparsityConstraint":
        """This constraint, checked to be built for a design of ``p`` features."""
        if self.p != p:
            raise ValueError(f"constraint built for p={self.p}, design has p={p}")
        return self


def project(beta: np.ndarray, constraint: SparsityConstraint) -> np.ndarray:
    """Zero all but the k largest-magnitude entries among the first p coordinates.

    Anything past the first ``p`` entries (the intercept) passes through
    untouched. The output is that of ranking the entries by a stable sort of
    their negated magnitudes, NaN last: magnitude ties at the selection
    boundary keep the lower index, making the output deterministic. It is
    found by selection in O(p): every entry at or below the (k+1)-th largest
    magnitude is dropped, except that the entries tied with it take the
    places left, lowest index first.
    """
    out = np.array(beta, dtype=float)
    k, p = constraint.k, constraint.p
    if k < p:
        # np.fmax ignores NaN: a NaN entry ranks at -1, below every magnitude
        mag = np.abs(out[:p])
        np.fmax(mag, -1.0, out=mag)
        part = mag.copy()
        part.partition(p - k - 1)
        cut = part[p - k - 1]
        drop = mag <= cut
        left = np.count_nonzero(drop) - (p - k)
        if left:
            drop[(mag == cut).nonzero()[0][:left]] = False
        np.putmask(out[:p], drop, 0.0)
    return out
