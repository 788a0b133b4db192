"""Percentile counting rules, rank classes, and I3 aggregation.

Each paper is scored as a percentile of its citation count within a
reference group; sets are then aggregated: I3 sums percentile weights over
a set's papers, %I3 normalizes those sums across sets, and top-share is
the fraction of a set at or above a percentile threshold.

All operations are pure functions over immutable inputs and are safe to
call concurrently. Float sums go through :func:`math.fsum`, so every
aggregate is independent of record ordering.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

__all__ = [
    "CitationRecord",
    "PercentileRule",
    "ReferenceScope",
    "SchemeVariant",
    "RankClassScheme",
    "P100",
    "NSF6",
    "TOP10",
    "PercentileAssignment",
    "SetReport",
    "percentile_of",
    "compute_percentiles",
    "classify",
    "class_histogram",
    "i3",
    "percent_i3",
    "top_count",
    "top_share",
]


class PercentileRule(Enum):
    """How a citation tally maps to a percentile within its reference group.

    QUANTILE scores the share of reference items with strictly lower
    counts. LB09 adds 0.9 to that tally, lifting the ceiling for small
    groups (a 10-item group tops out at 99 instead of 90). ROUSSEAU_RAW
    counts items at or below, so the item counts itself and the group
    maximum always scores 100. ROUSSEAU_REVISED behaves like ROUSSEAU_RAW
    except uncited items are pinned to the zeroth percentile.
    """

    QUANTILE = "quantile"
    LB09 = "lb09"
    ROUSSEAU_RAW = "rousseau-raw"
    ROUSSEAU_REVISED = "rousseau"

    @property
    def token(self) -> str:
        """Stable spelling used in CLI flags and report column names."""
        return self.value

    @classmethod
    def from_token(cls, token: str) -> PercentileRule:
        for rule in cls:
            if rule.value == token:
                return rule
        valid = ", ".join(r.value for r in cls)
        raise ValueError(f"unknown rule {token!r} (expected one of: {valid})")


class ReferenceScope(Enum):
    """Which records form the reference group a percentile is computed in.

    GLOBAL_POOL ranks every record against the whole input; PER_SET ranks
    within the owning set; the doc-type scopes group by document type,
    optionally crossed with the set.
    """

    GLOBAL_POOL = "global"
    PER_SET = "per-set"
    PER_DOC_TYPE_POOL = "per-doc-type"
    PER_SET_AND_DOC_TYPE = "per-set-and-doc-type"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> ReferenceScope:
        for scope in cls:
            if scope.value == token:
                return scope
        valid = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown scope {token!r} (expected one of: {valid})")


class SchemeVariant(Enum):
    P100 = "p100"
    NSF6 = "nsf6"
    TWO_CLASS = "two-class"


# Lower-inclusive class bounds; the top class is [99, 100].
_NSF6_BOUNDS = (0.0, 50.0, 75.0, 90.0, 95.0, 99.0)

_TOP_TOKEN = re.compile(r"^top(\d+(?:\.\d+)?)$")


@dataclass(frozen=True)
class RankClassScheme:
    """Weighting of the percentile axis for I3 aggregation.

    P100 keeps the continuous percentile as the weight. NSF6 partitions
    [0, 100] into the six classes bottom-50%, 50-75%, 75-90%, 90-95%,
    95-99%, and top-1%, weighted 1..6 from the bottom. TWO_CLASS splits at
    ``threshold`` (weights 1 and 2), the two-class form of a top-share
    excellence indicator.

    Class intervals are lower-inclusive; the top class includes 100.
    """

    variant: SchemeVariant
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.variant is SchemeVariant.TWO_CLASS:
            if self.threshold is None:
                raise ValueError("two-class scheme requires a threshold")
            if not 0.0 < self.threshold < 100.0:
                raise ValueError(f"threshold {self.threshold} outside (0, 100)")
        elif self.threshold is not None:
            raise ValueError("threshold only applies to the two-class scheme")

    @classmethod
    def p100(cls) -> RankClassScheme:
        return cls(SchemeVariant.P100)

    @classmethod
    def nsf6(cls) -> RankClassScheme:
        return cls(SchemeVariant.NSF6)

    @classmethod
    def two_class(cls, threshold: float = 90.0) -> RankClassScheme:
        return cls(SchemeVariant.TWO_CLASS, threshold)

    @classmethod
    def from_token(cls, token: str) -> RankClassScheme:
        """Parse ``p100``, ``nsf6``, or ``top<P>`` (e.g. ``top10``)."""
        if token == "p100":
            return cls.p100()
        if token == "nsf6":
            return cls.nsf6()
        match = _TOP_TOKEN.match(token)
        if match:
            # the exact decimal 100 - P, rounded once, so a percentile on the bound meets it
            return cls.two_class(float(100 - Fraction(match.group(1))))
        raise ValueError(f"unknown scheme {token!r} (expected p100, nsf6, or top<P>)")

    @property
    def label(self) -> str:
        """Stable spelling used in CLI flags and report column names."""
        if self.variant is SchemeVariant.P100:
            return "p100"
        if self.variant is SchemeVariant.NSF6:
            return "nsf6"
        return f"top{100.0 - self.threshold:g}"

    @property
    def is_discrete(self) -> bool:
        return self.variant is not SchemeVariant.P100

    @property
    def class_count(self) -> int:
        return len(self.lower_bounds)

    @property
    def lower_bounds(self) -> tuple[float, ...]:
        """Lower-inclusive class boundaries, lowest class first."""
        if self.variant is SchemeVariant.NSF6:
            return _NSF6_BOUNDS
        if self.variant is SchemeVariant.TWO_CLASS:
            return (0.0, self.threshold)
        raise ValueError("continuous scheme has no rank classes")


P100 = RankClassScheme.p100()
NSF6 = RankClassScheme.nsf6()
TOP10 = RankClassScheme.two_class(90.0)


@dataclass(frozen=True)
class CitationRecord:
    """One document: owning set, unique id, citation count, optional type."""

    set_id: str
    paper_id: str
    citations: int
    doc_type: str | None = None

    def __post_init__(self) -> None:
        if self.citations < 0:
            raise ValueError(f"negative citations for paper {self.paper_id!r}")


@dataclass(frozen=True)
class PercentileAssignment:
    """Per-paper percentiles plus the reference group each was computed in.

    ``entries`` maps paper_id to a percentile in [0, 100]; ``group_keys``
    and ``set_ids`` record, per paper, the reference-group label used and
    the owning set. Papers with equal citation counts in the same
    reference group always hold equal percentiles.

    The first :meth:`percentiles_for_set` call indexes every paper's value
    by set in one pass over ``entries``; later calls are lookups, so
    aggregating all sets costs time linear in the number of papers. The
    mappings must not be mutated once the index is built.
    """

    entries: Mapping[str, float]
    group_keys: Mapping[str, str]
    set_ids: Mapping[str, str]
    rule: PercentileRule
    scope: ReferenceScope

    @cached_property
    def _values_by_set(self) -> dict[str, list[float]]:
        index: dict[str, list[float]] = defaultdict(list)
        for paper_id, value in self.entries.items():
            index[self.set_ids[paper_id]].append(value)
        return dict(index)

    def percentiles_for_set(self, set_id: str) -> list[float]:
        """Percentile values of one set's papers (aggregation-order only).

        Returns a fresh list; raises ``ValueError`` for a set with no papers.
        """
        try:
            return list(self._values_by_set[set_id])
        except KeyError:
            raise ValueError(f"unknown set_id {set_id!r}") from None


@dataclass(frozen=True)
class SetReport:
    """Per-set aggregates for one ranking-report row.

    The mapping fields are keyed by ``<rule>_<scheme>`` labels naming the
    counting rule and rank-class scheme that produced each value;
    ``rank`` holds the competition rank of the set under each column's
    descending %I3 ordering (ties share the smaller rank).
    """

    set_id: str
    n_papers: int
    total_citations: int
    i3: Mapping[str, float]
    percent_i3: Mapping[str, float]
    rank: Mapping[str, int]
    top_share: float


def _rule_value(rule: PercentileRule, lower: int, lower_or_equal: int, count: int, n: int) -> float:
    if rule is PercentileRule.QUANTILE:
        return 100.0 * lower / n
    if rule is PercentileRule.LB09:
        # One correctly rounded division of integers, so a percentile exactly
        # on a class bound (n=21, lower=18 gives 90) comes out exactly on it.
        return (1000 * lower + 900) / (10 * n)
    if rule is PercentileRule.ROUSSEAU_RAW:
        return 100.0 * lower_or_equal / n
    if count == 0:
        return 0.0
    return 100.0 * lower_or_equal / n


def percentile_of(count: int, group_counts: Iterable[int], rule: PercentileRule) -> float:
    """Percentile of one citation count within its reference group.

    Args:
        count: Citation count of the item under study; must occur in
            ``group_counts``.
        group_counts: Citation counts of the whole reference group, the
            item included.
        rule: Counting rule to apply.

    Returns:
        A percentile in [0, 100].
    """
    counts = list(group_counts)
    if not counts:
        raise ValueError("empty reference group")
    if count < 0:
        raise ValueError("negative citation count")
    if count not in counts:
        raise ValueError("item not in reference group")
    lower = sum(1 for x in counts if x < count)
    lower_or_equal = lower + counts.count(count)
    return _rule_value(rule, lower, lower_or_equal, count, len(counts))


def _group_keys(
    records: list[CitationRecord], paper_ids: list[str], set_ids: list[str], scope: ReferenceScope
) -> tuple[list[str] | list[int], list[str] | None]:
    """Reference-group key of every record, and each key's label when keys are numbers.

    ``per-set-and-doc-type`` numbers the (set_id, doc_type) pairs: their
    ``"<set_id>/<doc_type>"`` labels are for display only, since ``a/b`` + ``c``
    and ``a`` + ``b/c`` share one. Other scopes key by one label string per group.
    """
    if scope is ReferenceScope.GLOBAL_POOL:
        return ["all"] * len(records), None
    if scope is ReferenceScope.PER_SET:
        return set_ids, None
    doc_types = [record.doc_type for record in records]
    if None in doc_types:
        paper_id = paper_ids[doc_types.index(None)]
        raise ValueError(f"record {paper_id!r} has no doc_type, required by scope {scope.token!r}")
    if scope is ReferenceScope.PER_DOC_TYPE_POOL:
        return doc_types, None
    number_of = {pair: number for number, pair in enumerate(set(zip(set_ids, doc_types)))}
    names = [f"{set_id}/{doc_type}" for set_id, doc_type in number_of]
    return list(map(number_of.__getitem__, zip(set_ids, doc_types))), names


def _raise_duplicate_id(paper_ids: list[str]) -> None:
    seen: set[str] = set()
    for paper_id in paper_ids:
        if paper_id in seen:
            raise ValueError(f"duplicate paper_id {paper_id!r}")
        seen.add(paper_id)


def compute_percentiles(
    records: Iterable[CitationRecord],
    rule: PercentileRule,
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
) -> PercentileAssignment:
    """Score every record as a percentile within its reference group.

    Records are partitioned into reference groups per ``scope``; each
    paper's percentile equals :func:`percentile_of` over its group's
    counts. One :class:`~collections.Counter` pass tallies every
    (group, citation count) pair; each group's distinct counts are then
    walked once in ascending order, so the rule is evaluated once per
    distinct count and every member takes its count's value by lookup.
    The per-member work runs in ``zip``/``map``/``dict`` rather than a
    Python loop, and each group's key is one string (or number) shared by
    its members. Output is independent of input ordering.

    Args:
        records: Citation records with unique paper_ids; non-empty.
        rule: Counting rule to apply.
        scope: Reference-group partitioning; doc-type scopes require
            ``doc_type`` on every record.

    Returns:
        A :class:`PercentileAssignment` covering every input record.
    """
    recs = list(records)
    if not recs:
        raise ValueError("empty input")
    paper_ids = [record.paper_id for record in recs]
    set_ids = [record.set_id for record in recs]
    set_of = dict(zip(paper_ids, set_ids))
    if len(set_of) != len(recs):
        _raise_duplicate_id(paper_ids)
    labels, names = _group_keys(recs, paper_ids, set_ids, scope)
    counts = [record.citations for record in recs]

    sizes = Counter(labels)
    value_of: dict[tuple[str, int], float] = {}
    group = None
    lower = 0
    for key, tied in sorted(Counter(zip(labels, counts)).items()):
        label, count = key
        if label != group:
            group, lower = label, 0
        value_of[key] = _rule_value(rule, lower, lower + tied, count, sizes[label])
        lower += tied

    entries = dict(zip(paper_ids, map(value_of.__getitem__, zip(labels, counts))))
    if scope is ReferenceScope.GLOBAL_POOL:
        group_keys = dict.fromkeys(paper_ids, "all")
    elif scope is ReferenceScope.PER_SET:
        group_keys = set_of  # the labels are the set ids, so one mapping serves both fields
    else:
        shown = labels if names is None else map(names.__getitem__, labels)
        group_keys = dict(zip(paper_ids, shown))
    return PercentileAssignment(entries, group_keys, set_of, rule, scope)


def classify(percentile: float, scheme: RankClassScheme) -> float:
    """Weight of a percentile under a scheme.

    Discrete schemes return the 1-based class index (lowest class is 1);
    the continuous scheme passes the percentile through as its own weight.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside [0, 100]")
    if scheme.variant is SchemeVariant.P100:
        return percentile
    return bisect_right(scheme.lower_bounds, percentile)


def class_histogram(
    assignment: PercentileAssignment, scheme: RankClassScheme, set_id: str
) -> list[int]:
    """Per-class paper counts for one set; counts sum to the set size."""
    if not scheme.is_discrete:
        raise ValueError("continuous scheme has no rank classes")
    counts = [0] * scheme.class_count
    for value in assignment.percentiles_for_set(set_id):
        counts[int(classify(value, scheme)) - 1] += 1
    return counts


def i3(assignment: PercentileAssignment, scheme: RankClassScheme, set_id: str) -> float:
    """Set-level impact: the sum of the set's percentile weights.

    Under the continuous scheme this is the plain sum of percentile
    values; under a discrete scheme each paper contributes its 1-based
    class index, i.e. the class histogram dotted with weights 1..k.
    """
    if scheme.variant is SchemeVariant.P100:
        return math.fsum(assignment.percentiles_for_set(set_id))
    histogram = class_histogram(assignment, scheme, set_id)
    return float(sum((index + 1) * count for index, count in enumerate(histogram)))


def percent_i3(i3_by_set: Mapping[str, float]) -> dict[str, float]:
    """Express each set's I3 as a percentage of the summed I3 over all sets."""
    if not i3_by_set:
        raise ValueError("no sets")
    for set_id, value in i3_by_set.items():
        if value < 0:
            raise ValueError(f"negative I3 for set {set_id!r}")
    total = math.fsum(i3_by_set.values())
    if total == 0.0:
        raise ValueError("degenerate pool: total I3 is zero")
    return {set_id: 100.0 * value / total for set_id, value in i3_by_set.items()}


def top_count(
    assignment: PercentileAssignment, set_id: str, threshold: float = 90.0
) -> tuple[int, int]:
    """Number of a set's papers at or above the percentile threshold, and the set's size."""
    values = assignment.percentiles_for_set(set_id)
    return sum(1 for value in values if value >= threshold), len(values)


def top_share(
    assignment: PercentileAssignment, set_id: str, threshold: float = 90.0
) -> float:
    """Fraction of a set's papers at or above the percentile threshold."""
    k, n = top_count(assignment, set_id, threshold)
    return k / n
