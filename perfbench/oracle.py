"""Brute-force answers the benchmark checks every query against.

A filter is a conjunction of ``(attribute, operator, value)`` clauses.  The same clauses build
the query through the public expression DSL (:func:`expression`) and are evaluated here in
plain Python over the generated rows (:func:`answer`), so no part of the program under test
computes the expected answer.
"""

from __future__ import annotations

import operator
from datetime import date
from typing import Any, Optional, Sequence

Clause = tuple[str, str, Any]

_OPERATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

_PROBE_IP = "172.101.11.46"

#: Bob-Q1..Q5 restated from the SQL the paper gives for them: ``(clauses, projection)``.
BOB_ORACLE: dict[str, tuple[tuple[Clause, ...], tuple[str, ...]]] = {
    "Bob-Q1": (
        (("visitDate", ">=", date(1999, 1, 1)), ("visitDate", "<=", date(2000, 1, 1))),
        ("sourceIP",),
    ),
    "Bob-Q2": ((("sourceIP", "==", _PROBE_IP),), ("searchWord", "duration", "adRevenue")),
    "Bob-Q3": (
        (("sourceIP", "==", _PROBE_IP), ("visitDate", "==", date(1992, 12, 22))),
        ("searchWord", "duration", "adRevenue"),
    ),
    "Bob-Q4": (
        (("adRevenue", ">=", 1.0), ("adRevenue", "<=", 10.0)),
        ("searchWord", "duration", "adRevenue"),
    ),
    "Bob-Q5": (
        (("adRevenue", ">=", 1.0), ("adRevenue", "<=", 100.0)),
        ("searchWord", "duration", "adRevenue"),
    ),
}


def expression(clauses: Sequence[Clause]):
    """The DSL expression of a conjunction of clauses."""
    from repro import col

    combined = None
    for attribute, op, value in clauses:
        term = _OPERATORS[op](col(attribute), value)
        combined = term if combined is None else combined & term
    return combined


def answer(
    rows: Sequence[tuple],
    field_names: Sequence[str],
    clauses: Sequence[Clause],
    projection: Optional[Sequence[str]],
) -> list[tuple]:
    """The expected records, in :func:`canonical` order."""
    position = {name: index for index, name in enumerate(field_names)}
    tests = [(position[a], _OPERATORS[op], value) for a, op, value in clauses]
    keep = [position[name] for name in projection] if projection else None
    matches = []
    for row in rows:
        if all(test(row[index], value) for index, test, value in tests):
            matches.append(tuple(row[i] for i in keep) if keep else tuple(row))
    return canonical(matches)


def canonical(records: Sequence[tuple]) -> list[tuple]:
    """Records in an order that does not depend on how the system returned them."""
    return sorted((tuple(record) for record in records), key=repr)
