"""CSV ingestion, analysis orchestration, and ranking-report emission.

Input files are UTF-8 CSV with a ``set_id,paper_id,citations[,doc_type]``
header. Reports carry a ``# citerank-i3 <version>`` leader line and fixed
6-decimal formatting for percentile-derived cells, so identical inputs
always emit byte-identical streams (timestamps never enter any payload).
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from ._version import __version__
from .indicator_core import (
    P100,
    CitationTable,
    PercentileRule,
    RankClassScheme,
    ReferenceScope,
    SetReport,
    _check_threshold,
    compute_percentiles,
    i3,
    percent_i3,
    top_share,
)

__all__ = [
    "InputDataset",
    "AnalysisConfig",
    "RankingReport",
    "pair_key",
    "parse_records",
    "load_records",
    "run_analysis",
    "emit_ranking_table",
    "parse_ranking_table",
    "emit_paper_percentiles",
]

REQUIRED_COLUMNS = ("set_id", "paper_id", "citations")

FORMATS = ("delimited", "aligned", "json")

# Rows parsed per chunk: the raw rows of one chunk are alive at a time.
CHUNK_ROWS = 16384

# ASCII digits with an optional sign: int() alone also takes "1_000" and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class InputDataset:
    """Validated citation records plus their provenance.

    ``records`` is held as a :class:`CitationTable`; any other sequence of
    records is converted to one.
    """

    records: CitationTable
    source_path: str = "<stream>"

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", CitationTable.of(self.records))

    @property
    def row_count(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class AnalysisConfig:
    """Which rules, schemes, and reference scope an analysis runs under."""

    rules: tuple[PercentileRule, ...] = (PercentileRule.QUANTILE,)
    schemes: tuple[RankClassScheme, ...] = (P100,)
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL
    top_share_threshold: float = 90.0

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("at least one rule required")
        if not self.schemes:
            raise ValueError("at least one scheme required")
        _check_threshold(self.top_share_threshold)


@dataclass(frozen=True)
class RankingReport:
    """Ordered set-level report rows for a rule/scheme grid.

    Rows are sorted by descending %I3 of the primary column (first rule,
    first scheme), ties broken by ascending set_id.
    """

    rows: tuple[SetReport, ...]
    rules: tuple[PercentileRule, ...]
    schemes: tuple[RankClassScheme, ...]
    scope: ReferenceScope
    top_share_threshold: float = 90.0


def pair_key(rule: PercentileRule, scheme: RankClassScheme) -> str:
    """Column label for one (rule, scheme) combination, e.g. ``quantile_p100``."""
    return f"{rule.token}_{scheme.label}"


def parse_records(stream: TextIO, source: str = "<stream>") -> InputDataset:
    """Parse a CSV stream of citation records.

    The first row must be a header containing at least the columns
    ``set_id``, ``paper_id``, and ``citations``; a ``doc_type`` column is
    optional (empty cells mean absent). Labels are whitespace-trimmed and
    a leading UTF-8 byte-order mark is ignored. Citation counts are ASCII
    digits with an optional sign. Raises ``ValueError`` naming the missing
    column, or the offending row number for bad citation counts and
    duplicate paper_ids (the header is row 1), or the line the ``csv``
    module could not read, or ``source`` when its bytes are not UTF-8.

    Rows are read in chunks of :data:`CHUNK_ROWS`, and each chunk's
    columns are checked in bulk; only when a check fails are the chunk's
    rows scanned one by one for the first offending row.
    """
    reader = csv.reader(stream)
    try:
        return _parse_rows(reader, source)
    except csv.Error as exc:
        raise ValueError(f"malformed CSV at line {reader.line_num} of {source}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the decoder's byte offset counts from its read buffer, not from the start of the file
        raise ValueError(f"{source} is not UTF-8 text: {exc.reason}") from None


def _parse_rows(reader: Iterator[list[str]], source: str) -> InputDataset:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"empty input: {source}") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    columns = [cell.strip() for cell in header]
    for name in REQUIRED_COLUMNS:
        if name not in columns:
            raise ValueError(f"missing required column {name!r}")
    index = {name: columns.index(name) for name in columns}
    width = max(index[name] for name in REQUIRED_COLUMNS) + 1

    seen: set[str] = set()
    # each chunk's table, and the row number of each of its records
    chunks: list[tuple[CitationTable, Sequence[int]]] = []

    def add_chunk(rows: list[list[str]], first: int) -> None:
        body = [row for row in rows if row]
        table = _column_table(body, index, width)
        if table is not None:
            known = len(seen)
            seen.update(table.paper_ids)
            if len(seen) == known + len(table):
                numbers = range(first, first + len(rows))
                if len(body) < len(rows):
                    numbers = [number for number, row in zip(numbers, rows) if row]
                chunks.append((table, numbers))
                return
        first_row_of = {
            paper_id: number for table, numbers in chunks for paper_id, number in zip(table.paper_ids, numbers)
        }
        _raise_first_bad_row(rows, first, index, width, first_row_of)

    first = 2
    while True:
        rows: list[list[str]] = []
        try:
            rows.extend(islice(reader, CHUNK_ROWS))
        except csv.Error:
            add_chunk(rows, first)  # a bad row before the unreadable line is reported first
            raise
        if not rows:
            return InputDataset(CitationTable.concat(table for table, _ in chunks), source)
        add_chunk(rows, first)
        first += len(rows)


def _column_table(body: list[list[str]], index: dict[str, int], width: int) -> CitationTable | None:
    """The table of non-blank data rows, checked column by column; None if a row check fails.

    Duplicate paper_ids are left to the caller, which checks them across chunks.
    """
    if min(map(len, body), default=width) < width:
        return None
    set_ids, paper_ids, raw = (
        tuple(map(str.strip, map(itemgetter(index[name]), body))) for name in REQUIRED_COLUMNS
    )
    if "" in set_ids or "" in paper_ids:
        return None
    try:
        citations = tuple(map(int, raw))
    except ValueError:  # not an integer, or more digits than int() converts
        return None
    # int() takes a stripped cell that _INTEGER rejects only through "_" or a non-ASCII digit
    joined = "".join(raw)
    if not joined.isascii() or "_" in joined or min(citations, default=0) < 0:
        return None
    doc_types = None
    if "doc_type" in index:
        at = index["doc_type"]
        doc_types = tuple(sys.intern(row[at].strip()) or None if len(row) > at else None for row in body)
    # set ids and doc types repeat on many rows: one shared string per value keeps the table small
    return CitationTable(map(sys.intern, set_ids), paper_ids, citations, doc_types)


def _raise_first_bad_row(
    rows: list[list[str]], first: int, index: dict[str, int], width: int, first_row_of: dict[str, int]
) -> None:
    """Raise the ``ValueError`` of the first row that fails a check; ``first`` is its row number.

    ``first_row_of`` maps the paper_ids of earlier rows to their row numbers.
    """
    for row_number, row in enumerate(rows, start=first):
        if not row:
            continue
        if len(row) < width:
            raise ValueError(f"too few columns at row {row_number}")
        set_id, paper_id, raw_citations = (row[index[name]].strip() for name in REQUIRED_COLUMNS)
        if not set_id:
            raise ValueError(f"empty set_id at row {row_number}")
        if not paper_id:
            raise ValueError(f"empty paper_id at row {row_number}")
        if _INTEGER.fullmatch(raw_citations) is None:
            raise ValueError(f"non-integer citations {raw_citations!r} at row {row_number}")
        if int(raw_citations) < 0:
            raise ValueError(f"negative citations at row {row_number}")
        if paper_id in first_row_of:
            raise ValueError(
                f"duplicate paper_id {paper_id!r} at rows "
                f"{first_row_of[paper_id]} and {row_number}"
            )
        first_row_of[paper_id] = row_number


def load_records(path: str | Path) -> InputDataset:
    with open(path, newline="", encoding="utf-8") as handle:
        return parse_records(handle, source=str(path))


def _competition_ranks(shares: dict[str, float]) -> dict[str, int]:
    """Competition ranking on descending share; tied values share the smaller rank."""
    ordered = sorted(shares.items(), key=lambda item: (-item[1], item[0]))
    ranks: dict[str, int] = {}
    current_rank = 0
    previous: float | None = None
    for position, (set_id, value) in enumerate(ordered, start=1):
        if previous is None or value != previous:
            current_rank = position
            previous = value
        ranks[set_id] = current_rank
    return ranks


def run_analysis(dataset: InputDataset, config: AnalysisConfig) -> RankingReport:
    """Full pipeline: percentiles, per-set I3 and %I3, ranks, top-share.

    Composes :func:`compute_percentiles`, :func:`i3`, :func:`percent_i3`,
    and :func:`top_share` for every requested (rule, scheme) pair. One
    rule's assignment is alive at a time: it is computed, aggregated under
    every scheme (and, for the first requested rule, reduced to the
    top-share column at ``config.top_share_threshold``), then dropped.
    Deterministic for any input ordering.
    """
    table = dataset.records
    if not table:
        raise ValueError("empty input")
    n_papers = Counter(table.set_ids)
    total_citations = dict.fromkeys(n_papers, 0)
    for set_id, count in zip(table.set_ids, table.citations):
        total_citations[set_id] += count
    set_order = sorted(n_papers)

    i3_cells: dict[str, dict[str, float]] = {}
    share_cells: dict[str, dict[str, float]] = {}
    rank_cells: dict[str, dict[str, int]] = {}
    top_shares: dict[str, float] = {}
    for rule in config.rules:
        assignment = compute_percentiles(table, rule, config.scope)
        for scheme in config.schemes:
            key = pair_key(rule, scheme)
            i3_by_set = {set_id: i3(assignment, scheme, set_id) for set_id in set_order}
            shares = percent_i3(i3_by_set)
            i3_cells[key] = i3_by_set
            share_cells[key] = shares
            rank_cells[key] = _competition_ranks(shares)
        if rule is config.rules[0]:
            top_shares = {
                set_id: top_share(assignment, set_id, config.top_share_threshold)
                for set_id in set_order
            }
        del assignment

    rows = [
        SetReport(
            set_id=set_id,
            n_papers=n_papers[set_id],
            total_citations=total_citations[set_id],
            i3={key: cells[set_id] for key, cells in i3_cells.items()},
            percent_i3={key: cells[set_id] for key, cells in share_cells.items()},
            rank={key: cells[set_id] for key, cells in rank_cells.items()},
            top_share=top_shares[set_id],
        )
        for set_id in set_order
    ]
    primary = pair_key(config.rules[0], config.schemes[0])
    rows.sort(key=lambda row: (-row.percent_i3[primary], row.set_id))
    return RankingReport(
        rows=tuple(rows),
        rules=config.rules,
        schemes=config.schemes,
        scope=config.scope,
        top_share_threshold=config.top_share_threshold,
    )


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of: {', '.join(FORMATS)})")


def _aligned_lines(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    body = [list(columns)] + [list(row) for row in rows]
    widths = [max(len(line[i]) for line in body) for i in range(len(columns))]
    lines = []
    for line in body:
        # left-align the first (label) column, right-align the numbers
        cells = [line[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(line) if i > 0
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _render(
    fmt: str,
    payload: Callable[[], object],
    title: str,
    tables: Sequence[tuple[str | None, Sequence[str], Iterable[Sequence[str]]]],
    aligned: Sequence[str] | None = None,
) -> str:
    """Render one report in one of :data:`FORMATS`.

    ``payload`` builds the JSON document and is called for ``json`` only.
    ``tables`` holds (caption, columns, rows) sections: ``delimited``
    writes them all through one ``csv.writer`` after the ``# citerank-i3
    <version>`` leader, each captioned section under a ``# <caption>``
    line. The aligned form prints the program name and ``title``, a blank
    line, then the ``aligned`` lines if given, else every section laid out
    by :func:`_aligned_lines`.
    """
    _check_format(fmt)
    if fmt == "json":
        return json.dumps(payload(), indent=2) + "\n"
    if fmt == "aligned":
        if aligned is None:
            aligned = [line for _, head, rows in tables for line in _aligned_lines(head, rows)]
        return "\n".join([f"citerank-i3 {__version__} {title}", "", *aligned]) + "\n"
    buffer = io.StringIO()
    buffer.write(f"# citerank-i3 {__version__}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    for caption, columns, rows in tables:
        if caption is not None:
            buffer.write(f"# {caption}\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return buffer.getvalue()


def emit_ranking_table(report: RankingReport, fmt: str = "delimited") -> str:
    """Render a report as delimited CSV, an aligned text table, or JSON.

    The delimited form round-trips: :func:`parse_ranking_table` on the
    emitted stream recovers every numeric cell at 6 decimal places.
    """
    if not report.rows:
        raise ValueError("empty report")
    keys = [pair_key(rule, scheme) for rule in report.rules for scheme in report.schemes]
    columns = ["set_id", "n_papers", "total_citations"]
    columns += [f"{prefix}_{key}" for key in keys for prefix in ("pI3", "rank")] + ["top_share"]
    rows = [
        [row.set_id, str(row.n_papers), str(row.total_citations)]
        + [cell for key in keys for cell in (f"{row.percent_i3[key]:.6f}", str(row.rank[key]))]
        + [f"{row.top_share:.6f}"]
        for row in report.rows
    ]

    def payload() -> dict[str, object]:
        return {
            "version": __version__,
            "rules": [rule.token for rule in report.rules],
            "schemes": [scheme.label for scheme in report.schemes],
            "scope": report.scope.token,
            "top_share_threshold": report.top_share_threshold,
            "rows": [
                {
                    "set_id": row.set_id,
                    "n_papers": row.n_papers,
                    "total_citations": row.total_citations,
                    "i3": dict(row.i3),
                    "percent_i3": dict(row.percent_i3),
                    "rank": dict(row.rank),
                    "top_share": row.top_share,
                }
                for row in report.rows
            ],
        }

    title = f"ranking report (scope: {report.scope.token})"
    return _render(fmt, payload, title, [(None, columns, rows)])


def parse_ranking_table(text: str) -> list[dict[str, object]]:
    """Parse a delimited report back into typed row dicts."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.DictReader(lines)
    rows: list[dict[str, object]] = []
    for raw in reader:
        row: dict[str, object] = {}
        for column, cell in raw.items():
            if column in ("n_papers", "total_citations") or column.startswith("rank_"):
                row[column] = int(cell)
            elif column.startswith("pI3_") or column == "top_share":
                row[column] = float(cell)
            else:
                row[column] = cell
        rows.append(row)
    return rows


def emit_paper_percentiles(
    dataset: InputDataset,
    rules: Sequence[PercentileRule],
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
    fmt: str = "delimited",
) -> str:
    """Per-paper percentile table, one ``pct_<rule>`` column per rule.

    Rows are sorted by (set_id, paper_id) so equal inputs emit equal bytes.
    The table is built by column from the :class:`CitationTable`: each
    rule's assignment is reduced to its column of values (in table order)
    as soon as it is computed, then the row indexes are ordered once and
    every column is mapped through that order. Only the delimited and
    aligned forms format text cells, each distinct value once per rule.
    """
    table = dataset.records
    if not table:
        raise ValueError("empty input")
    _check_format(fmt)
    columns = [table.set_ids, table.paper_ids, table.citations]
    columns += [compute_percentiles(table, rule, scope).values for rule in rules]
    # Sorting after the tally keeps the index list out of the tally's peak memory.
    # Two stable sorts give the (set_id, paper_id) order without building tuple keys.
    order = sorted(range(len(table)), key=table.paper_ids.__getitem__)
    order.sort(key=table.set_ids.__getitem__)
    set_ids, paper_ids, citations, *values = (list(map(column.__getitem__, order)) for column in columns)
    del order, columns

    tokens = [rule.token for rule in rules]

    def payload() -> dict[str, object]:
        return {
            "version": __version__,
            "rules": tokens,
            "scope": scope.token,
            "papers": [
                {
                    "set_id": set_id,
                    "paper_id": paper_id,
                    "citations": count,
                    "percentiles": dict(zip(tokens, row)),
                }
                for set_id, paper_id, count, row in zip(set_ids, paper_ids, citations, zip(*values))
            ],
        }

    def text_rows() -> Iterator[Iterator[tuple[str, ...]]]:
        # Yields the rows as one iterator, on first use: the json form never asks, so it
        # formats no cells, and the other forms read the rows from zip without a frame per row.
        cells = [set_ids, paper_ids]
        for column, spec in [(citations, "d"), *((column, ".6f") for column in values)]:
            text_of = {value: format(value, spec) for value in set(column)}
            cells.append(list(map(text_of.__getitem__, column)))
        yield zip(*cells)

    columns = ["set_id", "paper_id", "citations"] + [f"pct_{token}" for token in tokens]
    title = f"paper percentiles (scope: {scope.token})"
    return _render(fmt, payload, title, [(None, columns, chain.from_iterable(text_rows()))])
