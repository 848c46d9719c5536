"""Result container shared by the closed-form and brute-force paths."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = ["CLOSED_FORM", "COMPARED_FIELDS", "ORACLE", "IndexReport"]

CLOSED_FORM = "closed_form"
ORACLE = "oracle"

#: The ten values every report holds and ``verify`` compares between the two
#: paths: the eight indices plus the edge count and degree sum.
COMPARED_FIELDS = (
    "edge_count",
    "degree_sum",
    "wiener",
    "harary",
    "hyper_wiener",
    "zagreb1",
    "zagreb2",
    "gutman",
    "schultz",
    "eccentric_connectivity",
)


@dataclass(frozen=True)
class IndexReport:
    """The eight topological indices of one divisor prime graph, plus the
    structural counts they derive from.

    All indices are exact integers except the Harary index, a sum of 1/d
    over pairs at distance d, so an exact rational whose denominator divides
    lcm(1..diameter).  ``diameter`` is only known on the brute-force path and
    is None on closed-form reports, whose graphs have diameter at most 2.
    """

    n: int
    divisor_count: int
    edge_count: int
    degree_sum: int
    wiener: int
    harary: Fraction
    hyper_wiener: int
    zagreb1: int
    zagreb2: int
    gutman: int
    schultz: int
    eccentric_connectivity: int
    source: str
    diameter: int | None = None

    def __post_init__(self):
        diameter = 2 if self.diameter is None else self.diameter
        bound = lcm(*range(1, diameter + 1))
        if bound % self.harary.denominator:
            raise ValueError(f"harary denominator must divide {bound}: {self.harary}")
        if self.degree_sum != 2 * self.edge_count:
            raise ValueError(
                f"degree sum {self.degree_sum} != twice edge count {self.edge_count}"
            )
        for name in COMPARED_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.source not in (CLOSED_FORM, ORACLE):
            raise ValueError(f"unknown source tag {self.source!r}")
