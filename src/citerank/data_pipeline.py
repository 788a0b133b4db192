"""CSV ingestion, analysis orchestration, and ranking-report emission.

Input files are UTF-8 CSV with a ``set_id,paper_id,citations[,doc_type]``
header. Reports carry a ``# citerank-i3 <version>`` leader line and fixed
6-decimal formatting for percentile-derived cells, so identical inputs
always emit byte-identical streams (timestamps never enter any payload).
"""

from __future__ import annotations

import csv
import gc
import io
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, TextIO

from ._version import FORMATS, __version__
from .indicator_core import (
    P100,
    TOP_SHARE_THRESHOLD,
    CitationTable,
    PercentileRule,
    RankClassScheme,
    ReferenceScope,
    SetReport,
    compute_percentiles,
    i3,
    percent_i3,
    top_share,
)

__all__ = [
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

# Lines parsed, or papers gathered into a per-paper table, per chunk: one chunk's rows or pieces are alive at a time.
# Blocks of 2048 lines left a 0.3-0.5 MB lower peak RSS than 4096 on 40k records, at the same speed (2-core VM, Python 3.11).
CHUNK_ROWS = 2048

# A delimited cell holding one of these is quoted (see _cell and _first_cell).
_QUOTED = re.compile(r'[,"\r\n]')

# ASCII digits with an optional sign: int() alone also takes "1_000" and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class RankingReport(NamedTuple):
    """Ordered set-level report rows for a rule/scheme grid.

    Rows are sorted by descending %I3 of the primary column (first rule,
    first scheme), ties broken by ascending set_id.
    """

    rows: tuple[SetReport, ...]
    rules: tuple[PercentileRule, ...]
    schemes: tuple[RankClassScheme, ...]
    scope: ReferenceScope


def pair_key(rule: PercentileRule, scheme: RankClassScheme) -> str:
    """Column label for one (rule, scheme) combination, e.g. ``quantile_p100``."""
    return f"{rule.token}_{scheme.label}"


def parse_records(stream: TextIO, source: str = "<stream>") -> CitationTable:
    """Parse a CSV stream of citation records into one :class:`CitationTable`.

    The first row must be a header containing at least the columns
    ``set_id``, ``paper_id``, and ``citations``; a ``doc_type`` column is
    optional (empty cells mean absent). Labels are whitespace-trimmed and
    a leading UTF-8 byte-order mark is ignored. Citation counts are ASCII
    digits with an optional sign. Raises ``ValueError`` naming a missing or
    repeated column, or the offending row number for bad citation counts and
    duplicate paper_ids (the header is row 1), or the line the ``csv``
    module could not read, or ``source`` when it holds no record or is not UTF-8.

    The header is read by ``csv.reader``; the lines after it are read in
    blocks of :data:`CHUNK_ROWS`, each as the stream splits them. A block is
    split once at every comma and newline when it holds no ``"`` and no NUL,
    has every ``\\r`` in a ``\\r\\n`` that ends a line (read as ``\\n``),
    has no line longer than ``csv.field_size_limit()``, and has exactly the
    header's number of cells on every line; ``str.strip`` is skipped when
    the block is ASCII and holds no character it removes. From the first
    block that is not split, or whose cells fail a check, ``csv.reader``
    reads every row to the end, :data:`CHUNK_ROWS` rows at a time, so every
    row, error text, row number and line number is the one ``csv.reader``
    gives, and a file of quoted cells or short rows pays for one failed
    split, not one per block. Each block's cells pass the format checks in
    bulk and extend one list per column; the lists become the tuples of the
    one :class:`CitationTable`, whose constructor alone checks each count's
    sign and paper_id's uniqueness. Only when a check fails are the rows
    scanned one by one for the first offending row. Cyclic garbage
    collection is paused meanwhile and left as the caller had it. The pause
    is process-wide: other threads run without cyclic collection until the
    parse ends, and if one of them disables collection during the parse, the
    parse re-enables it on exit.
    """
    # The parse makes no reference cycles: its garbage, the blocks' lines, cells and rows, is freed by reference
    # counting, and the lists it allocates would otherwise start collection passes that free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_rows(stream, source)
    except UnicodeDecodeError as exc:
        # the decoder's byte offset counts from its read buffer, not from the start of the file
        raise ValueError(f"{source} is not UTF-8 text: {exc.reason}") from None
    finally:
        if collecting:
            gc.enable()


def _parse_rows(stream: TextIO, source: str) -> CitationTable:
    stream = iter(stream)  # the header's reader and every block read one iterator of lines
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"empty input: {source}") from None
    except csv.Error as exc:
        raise ValueError(f"malformed CSV at line {reader.line_num} of {source}: {exc}") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    names = [cell.strip() for cell in header]
    for name in REQUIRED_COLUMNS:
        if name not in names:
            raise ValueError(f"missing required column {name!r}")
    for name in (*REQUIRED_COLUMNS, "doc_type"):
        if names.count(name) > 1:
            raise ValueError(f"column {name!r} appears more than once in the header")
    index = {name: names.index(name) for name in names}
    width = max(index[name] for name in REQUIRED_COLUMNS) + 1
    wanted = [index[name] for name in (*REQUIRED_COLUMNS, "doc_type") if name in index]

    # one list per column (set_ids, paper_ids, citations[, doc_types]), and the numbers of the blank rows
    columns: list[Sequence] = [[] for _ in wanted]
    blanks: set[int] = set()
    first, line = 2, reader.line_num  # the number of the block's first row, and of the last line read
    while lines := list(islice(stream, CHUNK_ROWS)):
        if _extend_split(columns, lines, len(header), wanted):
            first += len(lines)
            line += len(lines)
            continue
        # csv.reader reads every row from this block's first on: a block that the split cannot read
        # (a quoted cell, a short row) is seldom the last, and each try costs a join and a scan
        reader = csv.reader(chain(lines, stream))
        del lines  # freed once the reader has read past it
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(islice(reader, CHUNK_ROWS))
            except csv.Error as exc:  # a bad row before the unreadable line wins
                _raise_first_bad_row(columns, blanks, rows, first, index, width)
                raise ValueError(f"malformed CSV at line {line + reader.line_num} of {source}: {exc}") from None
            if not rows:
                break
            # the list of non-blank rows dies with the call, so no block's rows outlive it
            if not _extend_rows(columns, [row for row in rows if row], wanted, width):
                _raise_first_bad_row(columns, blanks, rows, first, index, width)
            if not all(rows):
                blanks.update(number for number, row in enumerate(rows, start=first) if not row)
            first += len(rows)
        break  # the reader has read the stream to its end
    if not columns[0]:  # a header alone, or with only blank rows
        raise ValueError(f"empty input: {source}")
    # each list is freed as soon as its tuple is built, before the next tuple
    columns = [tuple(columns.pop(0)) for _ in range(len(columns))]
    try:
        return CitationTable(*columns)
    except ValueError:  # a negative count, or a repeated paper_id
        _raise_first_bad_row(columns, blanks, [], first, index, width)
        raise


def _extend_split(columns: list[Sequence], lines: list[str], width: int, wanted: list[int]) -> bool:
    """Append the ``wanted`` cells of a block of whole lines as :func:`_extend_columns` does, if one split reads them.

    ``width`` is the header's number of cells. Returns ``False``, and appends nothing, unless the
    block's text, split once at every comma and newline, gives the cells that ``csv.reader`` gives
    for its lines, up to ``str.strip``, and each cell is well formed; then ``csv`` must read it.
    """
    text = "".join(lines)
    if not text.endswith("\n"):  # the stream's last line, when it has no line end
        text += "\n"
    if '"' in text or "\0" in text or text.count("\n") != len(lines):
        return False
    if "\r" in text:
        # each "\r" ends a line in its "\r\n"; a stream split at a lone "\r" leaves a "\n" inside a line
        if text.count("\r") != sum(map(str.endswith, lines, repeat("\r\n"))):
            return False
        text = text.replace("\r\n", "\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return False
    # every line ends in a cell of the last column: the newlines all sit there exactly when every line has width cells
    cells = text.replace("\n", "\n,").split(",")
    if len(cells) != len(lines) * width + 1:
        return False
    cells.pop()  # the empty cell after the last newline
    last = "".join(cells[width - 1::width])
    if last.count("\n") != len(lines):
        return False
    # set ids and paper_ids are stripped here when a cell may need it; counts and doc types once per distinct value
    strip = not text.isascii() or any(map(text.__contains__, " \t\x0b\x0c\x1c\x1d\x1e\x1f"))
    picked = [cells[at::width] for at in wanted]
    for column in (0, 1):
        if strip or wanted[column] == width - 1:  # the last column's cells end in "\n"
            picked[column] = list(map(str.strip, picked[column]))
    return _extend_columns(columns, *picked)


def _extend_rows(columns: list[Sequence], body: list[list[str]], wanted: list[int], width: int) -> bool:
    """Append the non-blank rows ``body`` as :func:`_extend_columns` does, if each has ``width`` cells."""
    if min(map(len, body), default=width) < width:
        return False
    cells = [list(map(str.strip, map(itemgetter(at), body))) for at in wanted[:2]]
    cells.append(list(map(itemgetter(wanted[2]), body)))
    if len(wanted) > 3:
        at = wanted[3]
        cells.append([row[at] if len(row) > at else "" for row in body])
    return _extend_columns(columns, *cells)


def _extend_columns(columns: list[Sequence], set_ids: list[str], paper_ids: list[str], raw: list[str],
                    doc_types: list[str] | None = None) -> bool:
    """Append one block's cells to ``columns`` if each is well formed (the table checks the rest).

    ``set_ids`` and ``paper_ids`` come stripped. Set ids are interned, and counts and doc types
    stripped and converted once per distinct value, so equal values share one object.
    """
    counts = {cell: cell.strip() for cell in set(raw)}
    # int() takes a stripped cell that _INTEGER rejects only through "_" or a non-ASCII digit
    joined = "".join(counts.values())
    if "" in set_ids or "" in paper_ids or not joined.isascii() or "_" in joined:
        return False
    try:
        counts = {cell: int(text) for cell, text in counts.items()}
    except ValueError:  # not an integer, or more digits than int() converts
        return False
    columns[0] += map(sys.intern, set_ids)
    columns[1] += paper_ids
    columns[2] += map(counts.__getitem__, raw)
    if doc_types is not None:
        kinds = {cell: sys.intern(cell.strip()) or None for cell in set(doc_types)}
        columns[3] += map(kinds.__getitem__, doc_types)
    return True


def _raise_first_bad_row(
    columns: list[Sequence], blanks: set[int], rows: list[list[str]], first: int, index: dict[str, int], width: int
) -> None:
    """Raise the ``ValueError`` of the first row that fails a check; return if none does.

    The rows are those in ``columns``, well formed and numbered from 2 but ``blanks``, then ``rows`` from ``first``.
    """
    built = zip(columns[1], columns[2], (number for number in range(2, first) if number not in blanks))
    read = (_checked_row(row, number, index, width) for number, row in enumerate(rows, start=first) if row)
    first_row_of: dict[str, int] = {}
    for paper_id, citations, number in chain(built, read):
        if citations < 0:
            raise ValueError(f"negative citations at row {number}")
        earlier = first_row_of.setdefault(paper_id, number)
        if earlier != number:
            raise ValueError(f"duplicate paper_id {paper_id!r} at rows {earlier} and {number}")


def _checked_row(row: list[str], number: int, index: dict[str, int], width: int) -> tuple[str, int, int]:
    """The paper_id and citation count of non-blank row ``number``, and the number, if its cells are well formed."""
    if len(row) < width:
        raise ValueError(f"too few columns at row {number}")
    set_id, paper_id, raw = (row[index[name]].strip() for name in REQUIRED_COLUMNS)
    if not set_id:
        raise ValueError(f"empty set_id at row {number}")
    if not paper_id:
        raise ValueError(f"empty paper_id at row {number}")
    if _INTEGER.fullmatch(raw) is None:
        raise ValueError(f"non-integer citations {raw!r} at row {number}")
    try:
        return paper_id, int(raw), number
    except ValueError:  # past the interpreter's limit on digits converted
        raise ValueError(f"citation count at row {number} has too many digits") from None


def load_records(path: str | Path) -> CitationTable:
    with open(path, newline="", encoding="utf-8") as handle:
        return parse_records(handle, source=str(path))


def run_analysis(
    records: CitationTable,
    rules: Sequence[PercentileRule] = (PercentileRule.QUANTILE,),
    schemes: Sequence[RankClassScheme] = (P100,),
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
) -> RankingReport:
    """Full pipeline: percentiles, per-set I3 and %I3, ranks, top-share.

    Composes :func:`compute_percentiles`, :func:`i3`, :func:`percent_i3`,
    and :func:`top_share` for every requested (rule, scheme) pair. The
    first rule's assignment makes one row per set, in set_id order, from
    the tally's set index (``tally.rows_by_set``): the set's size is its
    number of tally rows, its citation total the sum of their counts, and
    its top-share is taken at the 90th percentile. Each (rule, scheme)
    pass then writes its I3, %I3 and rank into every row; a repeated rule
    or scheme is computed once, and its columns repeat. One rule's
    assignment is alive at a time. Deterministic for any input ordering.
    Raises ``ValueError`` when ``rules`` or ``schemes`` is empty.
    """
    rules, schemes = tuple(rules), tuple(schemes)
    if not rules:
        raise ValueError("at least one rule required")
    if not schemes:
        raise ValueError("at least one scheme required")
    rows: list[SetReport] = []
    for rule in dict.fromkeys(rules):
        assignment = compute_percentiles(records, rule, scope)
        if not rows:
            counts = [count for count, _, _, _ in assignment.tally.rows]
            rows = [
                SetReport(set_id, len(tally_rows), sum(map(counts.__getitem__, tally_rows)), {}, {}, {},
                          top_share(assignment, set_id, TOP_SHARE_THRESHOLD))
                for set_id, tally_rows in sorted(assignment.tally.rows_by_set.items())
            ]
        for scheme in dict.fromkeys(schemes):
            key = pair_key(rule, scheme)
            i3_by_set = {row.set_id: i3(assignment, scheme, row.set_id) for row in rows}
            try:
                shares = percent_i3(i3_by_set)
            except ValueError as exc:  # a degenerate pool: name the column that has one
                raise ValueError(f"{key}: {exc}") from None
            # a set's competition rank: one more than the number of sets with a strictly larger share
            descending = sorted(-share for share in shares.values())
            for row in rows:
                row.i3[key], row.percent_i3[key] = i3_by_set[row.set_id], shares[row.set_id]
                row.rank[key] = bisect_left(descending, -row.percent_i3[key]) + 1
        del assignment

    primary = pair_key(rules[0], schemes[0])
    rows.sort(key=lambda row: (-row.percent_i3[primary], row.set_id))
    return RankingReport(tuple(rows), rules, schemes, scope)


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (expected one of: {', '.join(FORMATS)})")


def _aligned_line(cells: Sequence[str], widths: Sequence[int]) -> str:
    """One aligned line: the first (label) cell left-aligned, the others right-aligned, each to its column's width."""
    return "  ".join([cells[0].ljust(widths[0]), *map(str.rjust, cells[1:], widths[1:])]).rstrip() + "\n"


def _cell(text: str) -> str:
    """One delimited cell: quoted, its quotes doubled, if it holds ``,``, ``"``, ``\\r`` or ``\\n``."""
    if _QUOTED.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _first_cell(text: str) -> str:
    """A line's first cell: quoted also when it starts with ``#``, or the line would read as a comment."""
    return '"' + text.replace('"', '""') + '"' if text.startswith("#") else _cell(text)


def _csv_line(cells: Sequence[str]) -> str:
    return ",".join([_first_cell(cells[0]), *map(_cell, cells[1:])]) + "\n"


def _leader(fmt: str, title: str) -> str:
    """A delimited or aligned report's first piece: ``# citerank-i3 <version>``, or the program name and ``title``."""
    _check_format(fmt)
    return f"citerank-i3 {__version__} {title}\n\n" if fmt == "aligned" else f"# citerank-i3 {__version__}\n"


def _report(fmt: str, title: str, lines: Iterable[str]) -> str:
    """A delimited or aligned report: its leader (see :func:`_leader`), then ``lines``."""
    return "".join([_leader(fmt, title), *lines])


def emit_ranking_table(report: RankingReport, fmt: str = "delimited") -> str:
    """Render a report as delimited CSV, an aligned text table, or JSON.

    The delimited form round-trips: :func:`parse_ranking_table` on the
    emitted stream recovers every numeric cell at 6 decimal places.
    """
    if not report.rows:
        raise ValueError("empty report")
    if fmt == "json":
        import json  # here, so that a delimited or aligned report never loads it

        document = {
            "version": __version__,
            "rules": [rule.token for rule in report.rules],
            "schemes": [scheme.label for scheme in report.schemes],
            "scope": report.scope.token,
            "top_share_threshold": TOP_SHARE_THRESHOLD,
            "rows": [row._asdict() for row in report.rows],
        }
        return json.dumps(document, indent=2) + "\n"
    keys = [pair_key(rule, scheme) for rule in report.rules for scheme in report.schemes]
    columns = ["set_id", "n_papers", "total_citations"]
    columns += [f"{prefix}_{key}" for key in keys for prefix in ("pI3", "rank")] + ["top_share"]
    table = [columns] + [
        [row.set_id, str(row.n_papers), str(row.total_citations)]
        + [cell for key in keys for cell in (f"{row.percent_i3[key]:.6f}", str(row.rank[key]))]
        + [f"{row.top_share:.6f}"]
        for row in report.rows
    ]
    lines = (map(_aligned_line, table, repeat([max(map(len, column)) for column in zip(*table)]))
             if fmt == "aligned" else map(_csv_line, table))
    return _report(fmt, f"ranking report (scope: {report.scope.token})", lines)


def parse_ranking_table(text: str) -> list[dict[str, object]]:
    """Parse a delimited report back into typed row dicts.

    Blank lines and lines that start with ``#`` (the version leader) are
    skipped, and the first other row is the header. Raises ``ValueError``
    naming the line of a row whose cell count differs from the header's,
    or the line and the column of a numeric cell that does not parse.
    """
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(lines)
    header: list[str] | None = None
    rows: list[dict[str, object]] = []
    end = 0
    for cells in reader:
        line, end = end + 1, reader.line_num  # the row's first line, and its last
        if not cells or lines[line - 1].startswith("#"):
            continue
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise ValueError(f"row at line {line} has {len(cells)} cells, the header {len(header)}")
        row: dict[str, object] = {}
        for column, cell in zip(header, cells):
            if column in ("n_papers", "total_citations") or column.startswith("rank_"):
                kind, number = "an integer", int
            elif column.startswith("pI3_") or column == "top_share":
                kind, number = "a number", float
            else:
                row[column] = cell
                continue
            try:
                row[column] = number(cell)
            except ValueError:
                raise ValueError(f"row at line {line}: column {column!r} holds {cell!r}, not {kind}") from None
        rows.append(row)
    return rows


def _paper_order(records: CitationTable) -> array:
    """The record indexes in (set_id, paper_id) order, as an ``array`` of 4-byte indexes."""
    # Two stable sorts give the order without building tuple keys. ``tuple`` returns a tuple column
    # itself, and reads a generated table's numbered paper_ids once, so each key is a tuple lookup.
    order = sorted(range(len(records)), key=tuple(records.paper_ids).__getitem__)
    order.sort(key=records.set_ids.__getitem__)
    return array("I", order)  # its int objects are freed before anything else is built


def _paper_pieces(records: CitationTable, order: array, lead: list[str], set_pieces: dict[str, str], *kinds) -> list:
    """``lead``, then per record in ``order`` (see :func:`_paper_order`) its set's piece and its piece of each kind.

    ``set_pieces`` holds a piece for each set_id of ``records``. A kind maps a run of record indexes
    to their pieces. A set's records are one run of the order, found by bisection, so its piece
    fills its slots without a gather; each kind gathers :data:`CHUNK_ROWS` records at a time, so no
    list of one piece per record is made beside the piece list.
    """
    stride = 1 + len(kinds)
    pieces = [*lead, *repeat(None, stride * len(order))]
    at, start = len(lead), 0
    for set_id in sorted(set_pieces):
        end = bisect_right(order, set_id, start, key=records.set_ids.__getitem__)
        pieces[at + stride * start:at + stride * end:stride] = [set_pieces[set_id]] * (end - start)
        start = end
    for start in range(0, len(order), CHUNK_ROWS):
        run = order[start:start + CHUNK_ROWS]
        first = at + stride * start
        for slot, kind in enumerate(kinds, start=first + 1):
            pieces[slot:first + stride * len(run):stride] = kind(run)
    return pieces


def emit_paper_percentiles(
    records: CitationTable,
    rules: Sequence[PercentileRule],
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
    fmt: str = "delimited",
) -> str:
    """Per-paper percentile table, one ``pct_<rule>`` column per rule; ``rules`` must not be empty.

    Rows are sorted by (set_id, paper_id) so equal inputs emit equal bytes.
    Every paper in one row of the shared tally (one reference group and
    citation count) holds the same count and percentiles, so the table is
    rendered from the tally: each distinct rule gives its ``row_values``
    once, and the numeric cells are formatted once per tally row. Every
    format is one ``"".join`` of one list of pieces (see
    :func:`_paper_pieces`): the leader, then per paper in sorted order its
    set's piece, its paper cell and its tally row's piece, where set and row
    pieces are shared strings, so no per-line string and no copy of the text
    is built. The paper cell is the id itself unless some id needs quoting,
    when delimited, or escaping, when json; a bare json id has its quotes in
    the set and row pieces. Aligned puts a run of spaces, shared by all ids
    of a length, before each id; json ends each paper's row piece with the
    separator, and the last one with the document's tail.
    """
    _check_format(fmt)
    if not rules:
        raise ValueError("at least one rule required")
    # sorted before the tally, which reuses the memory that the sort frees
    order = _paper_order(records)
    assignments = {rule: compute_percentiles(records, rule, scope) for rule in dict.fromkeys(rules)}
    tally = assignments[rules[0]].tally  # every rule's assignment over the records and scope shares it
    row_values = [assignments[rule].row_values for rule in rules]
    paper_ids, row_of, sets = tuple(records.paper_ids), tally.row_of, set(records.set_ids)  # see _paper_order
    counts = [count for count, _, _, _ in tally.rows]
    tokens = [rule.token for rule in rules]
    if fmt == "json":
        import json

        # a rule named twice keeps its first key and its last value, as a dict does
        document = {"version": __version__, "rules": tokens, "scope": scope.token, "papers": []}
        head, tail = json.dumps(document, indent=2).rsplit("[]", 1)
        keys = list(map(json.dumps, tokens))
        # json.dumps escapes exactly what ESCAPE_ASCII matches; an id it leaves alone is written bare between quotes
        quote = '"' if json.encoder.ESCAPE_ASCII.search("".join(paper_ids)) is None else ""
        id_cells = paper_ids if quote else list(map(json.dumps, paper_ids))
        blocks = [
            f'{quote},\n      "citations": {count},\n      "percentiles": {{\n'
            + ",\n".join(f"        {key}: {value!r}" for key, value in dict(zip(keys, values)).items())
            + "\n      }\n    },\n"
            for count, *values in zip(counts, *row_values)
        ]
        heads = {set_id: f'    {{\n      "set_id": {json.dumps(set_id)},\n      "paper_id": {quote}'
                 for set_id in sets}
        pieces = _paper_pieces(records, order, [f"{head}[\n"], heads, lambda run: [id_cells[index] for index in run],
                               lambda run: [blocks[row_of[index]] for index in run])
        # papers are separated by a comma; the last one is followed by the document's tail
        pieces[-1] = pieces[-1].removesuffix(",\n") + f"\n  ]{tail}\n"
    else:
        header = ["set_id", "paper_id", "citations"] + [f"pct_{token}" for token in tokens]
        # the numeric cells of the tally rows, one list per column
        columns = [list(map(str, counts))] + [[format(value, ".6f") for value in values] for values in row_values]
        lead = [_leader(fmt, f"paper percentiles (scope: {scope.token})")]
        if fmt == "aligned":
            widths = [max(map(len, chain([name], cells))) for name, cells in zip(header, [sets, paper_ids, *columns])]
            lead.append(_aligned_line(header, widths))
            set_cells = {set_id: set_id.ljust(widths[0]) + "  " for set_id in sets}
            pads = {length: " " * (widths[1] - length) for length in set(map(len, paper_ids))}
            # a row's tail is its aligned cells after an empty first cell: two spaces before each
            tails = [_aligned_line(["", *cells], [0, *widths[2:]]) for cells in zip(*columns)]
            kinds = [lambda run: [pads[len(paper_ids[index])] for index in run],
                     lambda run: [paper_ids[index] for index in run]]
        else:
            lead.append(_csv_line(header))
            set_cells = {set_id: _first_cell(set_id) + "," for set_id in sets}
            # paper_ids are distinct, and never a line's first cell: quote them only when one needs it
            id_cells = paper_ids if _QUOTED.search("".join(paper_ids)) is None else list(map(_cell, paper_ids))
            tails = ["," + ",".join(cells) + "\n" for cells in zip(*columns)]
            kinds = [lambda run: [id_cells[index] for index in run]]
        kinds.append(lambda run: [tails[row_of[index]] for index in run])
        pieces = _paper_pieces(records, order, lead, set_cells, *kinds)
    del order  # freed before the text is built
    return "".join(pieces)
