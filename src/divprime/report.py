"""Result container shared by the closed-form and brute-force paths."""

from collections import namedtuple
from math import lcm
from operator import attrgetter

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
# A report's ten compared values as ints, the Harary index as its numerator (its
# sign) and then its denominator, equal exactly when the values are (lowest terms).
_exact = attrgetter(
    *(f"{f}.numerator" if f == "harary" else f for f in COMPARED_FIELDS), "harary.denominator"
)


class IndexReport(
    namedtuple(
        "IndexReport",
        ("n", "divisor_count", *COMPARED_FIELDS, "source", "diameter"),
        defaults=(None,),
    )
):
    """The eight topological indices of one divisor prime graph, plus the
    structural counts they derive from.

    Every field is an int except three.  The Harary index is a sum of 1/d
    over pairs at distance d, so an exact ``Fraction`` whose denominator
    divides lcm(1..diameter).  ``source`` is the str tag of the path that
    made the report, ``CLOSED_FORM`` or ``ORACLE``.  ``diameter`` is an int
    known only on the brute-force path, and None on closed-form reports,
    whose graphs have diameter at most 2.  The constructor and ``_replace``
    validate the report.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        diameter = 2 if self.diameter is None else self.diameter
        bound = lcm(*range(1, diameter + 1))
        if bound % self.harary.denominator:
            raise ValueError(f"harary denominator must divide {bound}: {self.harary}")
        _check_handshake(self.degree_sum, self.edge_count)
        if min(signs := _exact(self)) < 0:  # the denominator is positive
            name = next(name for name, value in zip(COMPARED_FIELDS, signs) if value < 0)
            raise ValueError(f"{name} must be nonnegative")
        if self.source not in (CLOSED_FORM, ORACLE):
            raise ValueError(f"unknown source tag {self.source!r}")
        return self

    # namedtuple's own _make, behind _replace, bypasses __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def _check_handshake(degree_sum: int, edge_count: int) -> None:
    """Raise ValueError unless the degree sum is twice the edge count."""
    if degree_sum != 2 * edge_count:
        raise ValueError(f"degree sum {degree_sum} != twice edge count {edge_count}")
