"""Dense probability tables over finite discrete variables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from .errors import GraphError


@dataclass(frozen=True, eq=False)
class ProbTable:
    """A joint distribution stored densely, axes in ``variables`` order."""

    variables: Tuple[str, ...]
    cards: Tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.variables) != len(self.cards):
            raise GraphError("variables and cardinalities differ in length")
        if tuple(self.values.shape) != tuple(self.cards):
            raise GraphError(
                f"table shape {self.values.shape} does not match cards {self.cards}"
            )
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
        """Marginal over ``keep`` (any order); result axes are sorted."""
        keep = sorted(set(keep))
        missing = [v for v in keep if v not in self.variables]
        if missing:
            raise GraphError(f"unknown variables in marginal: {missing}")
        drop_axes = tuple(
            i for i, v in enumerate(self.variables) if v not in keep
        )
        vals = self.values.sum(axis=drop_axes) if drop_axes else self.values
        kept = [v for v in self.variables if v in keep]
        # reorder axes to sorted variable order
        order = np.argsort(kept, kind="stable")
        vals = np.transpose(vals, axes=tuple(order))
        kept_sorted = sorted(kept)
        return ProbTable(
            variables=tuple(kept_sorted),
            cards=tuple(self.card(v) for v in kept_sorted),
            values=vals,
        )

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Probability of an assignment that binds exactly ``variables``;
        any other assignment raises :class:`GraphError` (marginalize first)."""
        if assignment.keys() != set(self.variables):
            raise GraphError(f"assignment {sorted(assignment)} must bind exactly {list(self.variables)}")
        return float(self.values[tuple(assignment[v] for v in self.variables)])
