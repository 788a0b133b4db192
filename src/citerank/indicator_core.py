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
import operator
import re
from bisect import bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple

__all__ = [
    "CitationTable",
    "PercentileRule",
    "ReferenceScope",
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


def _member(kind: type[Enum], noun: str, token: str):
    """The member of ``kind`` whose value is ``token``; ``noun`` names the kind in the error."""
    for member in kind:
        if member.value == token:
            return member
    valid = ", ".join(member.value for member in kind)
    raise ValueError(f"unknown {noun} {token!r} (expected one of: {valid})")


class PercentileRule(Enum):
    """How a citation tally maps to a percentile within its reference group.

    Every rule scores ``(a*lower + b*tied + c) / (d*n)`` for an item with ``lower`` of its group's
    ``n`` items citing less and ``tied`` as much, itself included. QUANTILE (100, 0, 0, 1) scores the
    share citing less; LB09 (1000, 0, 900, 10) adds 0.9 to that tally, so a 10-item group tops out at
    99, not 90. ROUSSEAU_RAW (100, 100, 0, 1) counts items at or below, so the group maximum scores
    100; ROUSSEAU_REVISED is ROUSSEAU_RAW with uncited items pinned to the zeroth percentile.
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
        return _member(cls, "rule", token)


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
        return _member(cls, "scope", token)


# Lower-inclusive class bounds; the top class is [99, 100].
_NSF6_BOUNDS = (0.0, 50.0, 75.0, 90.0, 95.0, 99.0)

# top<P>: the whole part without leading zeros, the decimals up to the last non-zero one
_TOP_TOKEN = re.compile(r"top0*([0-9]+?)(?:\.(?=[0-9])([0-9]*[1-9])?0*)?")


class RankClassScheme(NamedTuple):
    """Weighting of the percentile axis for I3 aggregation: a canonical token and its class bounds.

    ``p100`` keeps the continuous percentile as the weight (``lower_bounds``
    is ``None``). ``nsf6`` partitions [0, 100] into the six classes
    bottom-50%, 50-75%, 75-90%, 90-95%, 95-99%, and top-1%, weighted 1..6
    from the bottom. ``top<P>`` splits at ``100 - P`` (weights 1 and 2), the
    two-class form of a top-share excellence indicator. Bounds are
    lower-inclusive, lowest class first; the top class includes 100. Both
    fields come from the token (:meth:`from_token`), so unequal schemes
    never share a label.
    """

    label: str
    lower_bounds: tuple[float, ...] | None

    @classmethod
    def from_token(cls, token: str) -> RankClassScheme:
        """Parse ``p100``, ``nsf6``, or ``top<P>``, ``P`` a decimal in (0, 100): ``top010.50`` is ``top10.5``."""
        if token == "p100":
            return cls(token, None)
        if token == "nsf6":
            return cls(token, _NSF6_BOUNDS)
        match = _TOP_TOKEN.fullmatch(token)
        if match is None:
            raise ValueError(f"unknown scheme {token!r} (expected p100, nsf6, or top<P>)")
        whole, decimals = match.groups(default="")
        share = f"{whole}.{decimals}" if decimals else whole
        scale, share_scaled = 10 ** len(decimals), int(whole + decimals)
        if not 0 < share_scaled < 100 * scale:
            raise ValueError(f"scheme {token!r}: top share {share} outside (0, 100)")
        # the exact decimal 100 - P, one correctly rounded division, so a percentile on the bound meets it
        return cls(f"top{share}", (0.0, (100 * scale - share_scaled) / scale))


P100 = RankClassScheme.from_token("p100")
NSF6 = RankClassScheme.from_token("nsf6")
TOP10 = RankClassScheme.from_token("top10")


class _NumberedIds(Sequence):
    """The paper_ids of generated sets: a sequence that reads exactly as the tuple of them.

    Each block ``(set_id, width, n)``, with ``1 <= n <= 10**width``, stands for the ids
    ``f"{set_id}-" + str(i).zfill(width)`` for ``i < n``, in order. ``len`` comes from the blocks;
    the first other read formats every id once and keeps their tuple, which every later read uses.
    Indexing, slices (tuples), iteration, ``==``, hash, ``in`` and ``index`` are the tuple's. It is
    no ``tuple`` subclass, as C functions such as ``str.join`` read a subclass's stored items.
    """

    __slots__ = ("blocks", "_len", "_ids")

    def __init__(self, blocks: Iterable[tuple[str, int, int]]) -> None:
        self.blocks = tuple(blocks)
        self._len = sum(n for _, _, n in self.blocks)
        self._ids: tuple[str, ...] | None = None

    @property
    def _tuple(self) -> tuple[str, ...]:
        if self._ids is None:
            ids: list[str] = []
            for set_id, width, n in self.blocks:
                # a head (the set_id and the leading digits) and a tail of the last two digits: one
                # concatenation per id, about 4 times faster than formatting each number
                prefix, low = f"{set_id}-", min(width, 2)
                heads = ([prefix + str(number).zfill(width - low) for number in range(-(-n // 10**low))]
                         if width > low else [prefix])
                tails = [str(number).zfill(low) for number in range(10**low)]
                start = len(ids)
                ids += [head + tail for head in heads for tail in tails]
                del ids[start + n:]  # the last head's ids past number n - 1
            self._ids = tuple(ids)
        return self._ids

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._tuple[index]

    def __iter__(self):
        return iter(self._tuple)

    def __contains__(self, value: object) -> bool:
        return value in self._tuple

    def index(self, value, *bounds) -> int:
        return self._tuple.index(value, *bounds)

    def __eq__(self, other: object):
        if isinstance(other, _NumberedIds):
            other = other._tuple
        return self._tuple == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple)

    def __repr__(self) -> str:
        return repr(self._tuple)


def _first_repeat(ids: Sequence[str]) -> str | None:
    """The first paper_id of ``ids`` in order that an earlier one repeats, or ``None``."""
    if isinstance(ids, _NumberedIds):
        # Two blocks share an id exactly when they share (set_id, width). Each id is set_id, then "-",
        # then exactly width digits, as n <= 10**width. Equal ids of equal width have equal set_ids:
        # the ids less their last width + 1 characters. Equal ids of widths w < v would put the
        # narrower id's "-" v - w characters past the wider id's "-", and so at most v - 1 past it:
        # on one of the wider id's digits. So blocks of distinct keys hold distinct ids, a block holds
        # n distinct ids, and a block whose key came before first repeats its own first id, number 0.
        keys: set[tuple[str, int]] = set()
        for set_id, width, _ in ids.blocks:
            if (set_id, width) in keys:
                return f"{set_id}-" + "0" * width
            keys.add((set_id, width))
        return None
    # strictly increasing ids are distinct; other orders count a dict, smaller than a set of the ids
    if all(map(operator.lt, ids, islice(ids, 1, None))) or len(dict.fromkeys(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for paper_id in ids:
        if paper_id in seen:
            return paper_id
        seen.add(paper_id)
    return None


class CitationTable:
    """Citation records held as four equal-length columns, each read as a tuple.

    ``set_ids``, ``paper_ids``, ``citations`` and ``doc_types`` (``None``
    where absent) are the fields of the records in order; ``len`` is the
    number of records. The columns are tuples, except the ``paper_ids`` of
    a table of generated sets: a numbered column that reads as the tuple of
    its ids and formats them on first read. The constructor is the one way
    records enter the library, and the one place that checks them: it
    raises ``ValueError`` on a negative count or a repeated paper_id. A
    numbered column is checked by its blocks; other paper_ids by comparing
    neighbours when they strictly increase, and by a dict of them only in
    any other order. Tallies computed from it are memoized on it, one per
    reference scope (see :func:`compute_percentiles`).
    """

    __slots__ = ("set_ids", "paper_ids", "citations", "doc_types", "_tallies")

    def __init__(
        self,
        set_ids: Iterable[str],
        paper_ids: Iterable[str],
        citations: Iterable[int],
        doc_types: Iterable[str | None] | None = None,
    ) -> None:
        self.set_ids = tuple(set_ids)
        self.paper_ids = paper_ids if isinstance(paper_ids, _NumberedIds) else tuple(paper_ids)
        self.citations = tuple(citations)
        self.doc_types = (None,) * len(self.paper_ids) if doc_types is None else tuple(doc_types)
        if not len(self.set_ids) == len(self.paper_ids) == len(self.citations) == len(self.doc_types):
            raise ValueError("columns differ in length")
        if self.citations and min(self.citations) < 0:
            paper_id = next(p for p, c in zip(self.paper_ids, self.citations) if c < 0)
            raise ValueError(f"negative citations for paper {paper_id!r}")
        repeated = _first_repeat(self.paper_ids)
        if repeated is not None:
            raise ValueError(f"duplicate paper_id {repeated!r}")
        self._tallies: dict[ReferenceScope, _Tally] = {}

    @classmethod
    def concat(cls, tables: Iterable[CitationTable]) -> CitationTable:
        """One table holding the records of ``tables`` in order, read one table at a time.

        When every table's paper_ids are numbered (generated sets), the joined column holds their
        blocks; otherwise it is the tuple of their ids.
        """
        names = ("set_ids", "citations", "doc_types")
        columns: list = [[] for _ in names]
        id_columns = []
        for table in tables:
            id_columns.append(table.paper_ids)  # held, not copied: a numbered column is a few blocks
            for column, name in zip(columns, names):
                column += getattr(table, name)
            del table  # a table that only the caller's iterable held is freed once it is copied
        if all(isinstance(ids, _NumberedIds) for ids in id_columns):
            paper_ids = _NumberedIds(chain.from_iterable(ids.blocks for ids in id_columns))
        else:
            paper_ids = tuple(chain.from_iterable(id_columns))
        del id_columns
        # each list is freed as soon as its tuple is built, before the next tuple
        set_ids, citations, doc_types = [tuple(columns.pop(0)) for _ in range(len(columns))]
        return cls(set_ids, paper_ids, citations, doc_types)

    def __len__(self) -> int:
        return len(self.paper_ids)

    @property
    def row_count(self) -> int:
        """``len(self)``, read only by the benchmark's tracer (``perfbench/tracing.py``); ROADMAP item 2 deletes it."""
        return len(self)


class _AssignmentColumns(NamedTuple):
    row_values: tuple[float, ...]
    tally: _Tally


class PercentileAssignment(_AssignmentColumns):  # subclassed, as _Tally is, for its cached views
    """One counting rule's percentiles: a value per row of the tally they were computed from.

    ``tally`` is the rule-independent tally that all rules' assignments
    over one table and scope share, and the one way to reach it (see
    :func:`compute_percentiles`); ``row_values[r]`` is the percentile, in
    [0, 100], of every paper in tally row ``r``: one (reference group,
    citation count) pair. So papers with equal citation counts in the same
    reference group always hold equal percentiles.

    ``entries`` (paper_id -> percentile) and ``group_keys`` (paper_id ->
    reference-group label) are paper_id-keyed views in table order, built
    on first read; no percentile or aggregation path reads them. The first
    :meth:`percentiles_for_set` call under a scope builds the tally's set
    index (``tally.rows_by_set``, each set's papers' tally rows) in one
    pass, shared by every rule's assignment; each assignment then looks up
    its ``row_values`` at those rows once. :func:`class_histogram`
    classifies each distinct value of a set once, with its multiplicity.
    """

    @cached_property
    def entries(self) -> dict[str, float]:
        return dict(zip(self.tally.paper_ids, map(self.row_values.__getitem__, self.tally.row_of)))

    @cached_property
    def group_keys(self) -> dict[str, str]:
        labels = [self.tally.names[group] for group in self.tally.groups]
        return dict(zip(self.tally.paper_ids, map(labels.__getitem__, self.tally.row_of)))

    @cached_property
    def _values_by_set(self) -> dict[str, list[float]]:
        values = self.row_values
        return {set_id: [values[row] for row in rows] for set_id, rows in self.tally.rows_by_set.items()}

    def percentiles_for_set(self, set_id: str) -> list[float]:
        """Percentile values of one set's papers, in table order.

        Returns a fresh list; raises ``ValueError`` for a set with no papers.
        """
        try:
            return list(self._values_by_set[set_id])
        except KeyError:
            raise ValueError(f"unknown set_id {set_id!r}") from None


class SetReport(NamedTuple):
    """Per-set aggregates for one ranking-report row.

    The mapping fields are keyed by ``<rule>_<scheme>`` labels naming the
    counting rule and rank-class scheme that produced each value;
    ``rank`` holds the competition rank of the set under each column's
    descending %I3 ordering (ties share the smaller rank). The fields, in
    order, are the keys of a row of the JSON ranking report.
    """

    set_id: str
    n_papers: int
    total_citations: int
    i3: Mapping[str, float]
    percent_i3: Mapping[str, float]
    rank: Mapping[str, int]
    top_share: float


# (a, b, c, d, uncited_zero) per rule, see PercentileRule. A value is one correctly rounded int / int,
# so a percentile exactly on a class bound (n=21, lower=18 gives 90 under lb09) comes out on it.
_COEFFICIENTS = {
    PercentileRule.QUANTILE: (100, 0, 0, 1, False),
    PercentileRule.LB09: (1000, 0, 900, 10, False),
    PercentileRule.ROUSSEAU_RAW: (100, 100, 0, 1, False),
    PercentileRule.ROUSSEAU_REVISED: (100, 100, 0, 1, True),
}


def _row_values(rule: PercentileRule, rows: Iterable[tuple[int, int, int, int]]) -> tuple[float, ...]:
    """The percentile of each (count, lower, tied, n) tally row under ``rule``."""
    a, b, c, d, uncited_zero = _COEFFICIENTS[rule]
    return tuple([0.0 if uncited_zero and count == 0 else (a * lower + b * tied + c) / (d * n)
                  for count, lower, tied, n in rows])


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
    return _row_values(rule, [(count, lower, counts.count(count), len(counts))])[0]


class _TallyColumns(NamedTuple):
    """What every counting rule shares for one table under one scope.

    ``rows`` holds one (count, lower, tied, n) tuple per distinct
    (group, citation count): the count, how many group members cite less,
    how many cite exactly as much, and the group size. ``row_of`` gives
    each record's row, in table order. ``paper_ids`` and ``set_ids`` are
    the table's own columns, not copies. ``groups`` gives each row's
    reference-group number, and ``names`` each group's label.
    """

    rows: list[tuple[int, int, int, int]]
    row_of: list[int]
    paper_ids: Sequence[str]
    set_ids: tuple[str, ...]
    groups: list[int]
    names: list[str]


class _Tally(_TallyColumns):  # a NamedTuple has no instance dict to hold a cached property
    @cached_property
    def rows_by_set(self) -> dict[str, list[int]]:
        """The tally rows of each set's papers in table order: the set index, one pass shared by every rule."""
        rows: dict[str, list[int]] = defaultdict(list)
        for set_id, row in zip(self.set_ids, self.row_of):
            rows[set_id].append(row)
        return dict(rows)  # a defaultdict would answer an unknown set_id with an empty list


def _tally(table: CitationTable, scope: ReferenceScope) -> _Tally:
    """Every distinct (reference group, citation count) of ``table`` under ``scope``, from one sorted walk.

    A record's key is the tuple of its count and its group: ``()`` in the global pool, ``(set_id,)``,
    ``(doc_type,)``, or ``(set_id, doc_type)``. So a group is keyed by its own values: ``a/b`` + ``c``
    and ``a`` + ``b/c`` are two groups, and the ``"<set_id>/<doc_type>"`` label joins a pair for
    display only and may be shared by two groups. Sorted keys order by count, so each group's
    running ``lower`` is complete when its next count comes up.
    """
    if not table:
        raise ValueError("empty input")
    if scope in (ReferenceScope.PER_DOC_TYPE_POOL, ReferenceScope.PER_SET_AND_DOC_TYPE) and None in table.doc_types:
        paper_id = table.paper_ids[table.doc_types.index(None)]
        raise ValueError(f"record {paper_id!r} has no doc_type, required by scope {scope.token!r}")
    group_columns = {
        ReferenceScope.GLOBAL_POOL: (),
        ReferenceScope.PER_SET: (table.set_ids,),
        ReferenceScope.PER_DOC_TYPE_POOL: (table.doc_types,),
        ReferenceScope.PER_SET_AND_DOC_TYPE: (table.set_ids, table.doc_types),
    }[scope]
    lower: dict[tuple, int] = {}
    walked: list[tuple[int, int, int]] = []
    row_groups: list[tuple] = []
    row_number: dict[tuple, int] = {}
    for key, tied in sorted(Counter(zip(table.citations, *group_columns)).items()):
        group = key[1:]
        below = lower.get(group, 0)
        row_number[key] = len(walked)
        walked.append((key[0], below, tied))
        row_groups.append(group)
        lower[group] = below + tied
    # the walk has counted every member of a group into its ``lower``: the group size
    rows = [(count, below, tied, lower[group]) for (count, below, tied), group in zip(walked, row_groups)]
    number = dict(zip(lower, range(len(lower))))
    names = ["/".join(group) if group else "all" for group in lower]
    # the keys are zipped again, not kept: a list of one tuple per record would raise the peak
    row_of = list(map(row_number.__getitem__, zip(table.citations, *group_columns)))
    return _Tally(rows, row_of, table.paper_ids, table.set_ids, list(map(number.__getitem__, row_groups)), names)


def compute_percentiles(
    records: CitationTable,
    rule: PercentileRule,
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
) -> PercentileAssignment:
    """Score every record as a percentile within its reference group.

    Records are partitioned into reference groups per ``scope``; each
    paper's percentile equals :func:`percentile_of` over its group's
    counts. The rule-independent part is one tally per scope, memoized on
    the table: the group numbering, every distinct (group, citation count)
    with its ``lower``/``tied``/``n`` from one sorted walk, and each
    record's row. A rule then costs one evaluation per distinct (group,
    count), kept as the assignment's ``row_values``; no per-record column
    and no paper_id-keyed dict is built. A paper's value does not depend on
    input ordering.

    Args:
        records: A non-empty table.
        rule: Counting rule to apply.
        scope: Reference-group partitioning; doc-type scopes require
            ``doc_type`` on every record.

    Returns:
        A :class:`PercentileAssignment` whose ``row_values[tally.row_of[i]]``
        is the percentile of record ``i`` of ``records``.
    """
    tally = records._tallies.get(scope)
    if tally is None:
        tally = records._tallies[scope] = _tally(records, scope)
    return PercentileAssignment(_row_values(rule, tally.rows), tally)


def classify(percentile: float, scheme: RankClassScheme) -> float:
    """Weight of a percentile under a scheme.

    Discrete schemes return the 1-based class index (lowest class is 1);
    the continuous scheme passes the percentile through as its own weight.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside [0, 100]")
    if scheme.lower_bounds is None:
        return percentile
    return bisect_right(scheme.lower_bounds, percentile)


def class_histogram(
    assignment: PercentileAssignment, scheme: RankClassScheme, set_id: str
) -> list[int]:
    """Per-class paper counts for one set; counts sum to the set size."""
    if scheme.lower_bounds is None:
        raise ValueError("continuous scheme has no rank classes")
    counts = [0] * len(scheme.lower_bounds)
    for value, papers in Counter(assignment.percentiles_for_set(set_id)).items():
        counts[int(classify(value, scheme)) - 1] += papers
    return counts


def i3(assignment: PercentileAssignment, scheme: RankClassScheme, set_id: str) -> float:
    """Set-level impact: the sum of the set's percentile weights.

    Under the continuous scheme this is the plain sum of percentile
    values; under a discrete scheme each paper contributes its 1-based
    class index, i.e. the class histogram dotted with weights 1..k.
    """
    if scheme.lower_bounds is None:
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


# The percentile at or above which a paper counts toward its set's top-share.
TOP_SHARE_THRESHOLD = 90.0


def top_count(
    assignment: PercentileAssignment, set_id: str, threshold: float = TOP_SHARE_THRESHOLD
) -> tuple[int, int]:
    """Number of a set's papers at or above the percentile threshold, and the set's size."""
    if not 0.0 <= threshold <= 100.0:  # NaN fails both comparisons
        raise ValueError(f"top-share threshold {threshold} outside [0, 100]")
    values = assignment.percentiles_for_set(set_id)
    return sum(1 for value in values if value >= threshold), len(values)


def top_share(
    assignment: PercentileAssignment, set_id: str, threshold: float = TOP_SHARE_THRESHOLD
) -> float:
    """Fraction of a set's papers at or above the percentile threshold."""
    k, n = top_count(assignment, set_id, threshold)
    return k / n
