"""Exact reference percentiles for the tests, sharing no code with citerank's arithmetic.

Each percentile is derived from its definition by pairwise comparison and
kept as a :class:`fractions.Fraction`. The production path computes every
value with one correctly rounded float division, so it must equal the exact
value rounded once to the nearest float.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction


def exact_percentile(count: int, group: Sequence[int], rule_token: str) -> Fraction:
    """Percentile of ``count`` within ``group`` (which holds it) under one rule, exactly."""
    n = len(group)
    below = sum(1 for other in group if other < count)
    at_or_below = sum(1 for other in group if other <= count)
    if rule_token == "quantile":
        return Fraction(100 * below, n)
    if rule_token == "lb09":
        return 100 * (below + Fraction(9, 10)) / n
    if rule_token == "rousseau-raw":
        return Fraction(100 * at_or_below, n)
    if rule_token == "rousseau":
        return Fraction(0) if count == 0 else Fraction(100 * at_or_below, n)
    raise ValueError(f"unknown rule {rule_token!r}")


def oracle_entries(records: Iterable, rule) -> dict[str, float]:
    """Per-set percentile of every record, the exact value rounded once to a float.

    ``rule`` is a :class:`citerank.PercentileRule`; only its token is read.
    """
    groups: dict[str, list[int]] = defaultdict(list)
    recs = list(records)
    for record in recs:
        groups[record.set_id].append(record.citations)
    exact: dict[tuple[str, int], float] = {}
    for set_id, group in groups.items():
        for count in set(group):
            exact[set_id, count] = float(exact_percentile(count, group, rule.value))
    return {record.paper_id: exact[record.set_id, record.citations] for record in recs}
