"""Dense probability tables over finite discrete variables."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ._record import Record
from .errors import GraphError


class ProbTable(Record, eq=False):
    """A joint distribution stored densely, axes in ``variables`` order."""

    variables: Tuple[str, ...]
    cards: Tuple[int, ...]
    values: np.ndarray

    def __init__(self, variables: Tuple[str, ...], cards: Tuple[int, ...], values: np.ndarray):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "values", values)
        if len(self.variables) != len(self.cards):
            raise GraphError("variables and cardinalities differ in length")
        if tuple(self.values.shape) != tuple(self.cards):
            raise GraphError(
                f"table shape {self.values.shape} does not match cards {self.cards}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GraphError("probability table has non-finite entries")
        if np.any(self.values < 0):
            raise GraphError("probability table has negative entries")
        total = float(self.values.sum())
        if abs(total - 1.0) > 1e-12:
            raise GraphError(f"probability table sums to {total!r}, not 1")

    def card(self, v: str) -> int:
        return self.cards[self.variables.index(v)]

    def card_map(self) -> Dict[str, int]:
        return dict(zip(self.variables, self.cards))

    def marginal(self, keep) -> "ProbTable":
        """Marginal over ``keep`` (any order); result axes are sorted. One
        ``einsum`` sums out the other axes and orders the kept ones."""
        keep = sorted(set(keep))
        missing = [v for v in keep if v not in self.variables]
        if missing:
            raise GraphError(f"unknown variables in marginal: {missing}")
        values = np.einsum(
            self.values, range(len(self.variables)), [self.variables.index(v) for v in keep]
        )
        return ProbTable(
            variables=tuple(keep), cards=tuple(self.card(v) for v in keep), values=values
        )
