"""The columnar record store: its columns, the per-scope tally memo, and the
paths that read columns without building records."""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citerank import (
    NSF6,
    P100,
    CitationTable,
    PercentileAssignment,
    PercentileRule,
    RankClassScheme,
    ReferenceScope,
    SetSpec,
    compute_percentiles,
    data_pipeline,
    emit_paper_percentiles,
    generate_set,
    indicator_core,
    parse_records,
    run_analysis,
    top_count,
)
from citerank.cli import main
from conftest import citation_tables, oracle_entries, spy, table_rows

QUANTILE = PercentileRule.QUANTILE

ROWS = (
    ("A", "a1", 3, "article"),
    ("A", "a2", 0, None),
    ("B", "b1", 7, "review"),
    ("B", "b2", 7, "review"),
)


def _table(rows=ROWS) -> CitationTable:
    """A new table of ``rows``, so that no test reads a tally another test memoized."""
    return CitationTable(*zip(*rows))


DOC_CSV = """set_id,paper_id,citations,doc_type
A,a1,3,article
A,a2,0,review
A,a3,5,article
B,b1,7,review
B,b2,1,article
B,b3,7,article
"""


def _csv_text(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["set_id", "paper_id", "citations", "doc_type"])
    writer.writerows(table_rows(table))
    return buffer.getvalue()


# --- columns --------------------------------------------------------------------

def test_table_columns_are_checked():
    table = _table()
    assert len(table) == 4
    assert table.doc_types == ("article", None, "review", "review")
    assert CitationTable(["A"], ["p"], [0]).doc_types == (None,)
    with pytest.raises(ValueError, match="columns differ in length"):
        CitationTable(["A", "A"], ["p1", "p2"], [1])
    with pytest.raises(ValueError, match=r"^negative citations for paper 'p2'$"):
        CitationTable(["A", "A"], ["p1", "p2"], [1, -1])


def test_concat_keeps_record_order():
    parts = (_table(ROWS[:1]), _table(ROWS[1:3]), _table(ROWS[3:]))
    assert table_rows(CitationTable.concat(iter(parts))) == list(ROWS)
    assert len(CitationTable.concat([])) == 0


def test_table_rejects_a_repeated_paper_id_when_built():
    # equal neighbours, and a repeat in the last position that is the only break in increasing order
    cases = [(("p1", "p1"), "p1"), (("p1", "p2", "p2", "p3"), "p2"), (("p1", "p2", "p3", "p1"), "p1")]
    for paper_ids, repeated in cases:
        with pytest.raises(ValueError, match=rf"^duplicate paper_id '{repeated}'$"):
            CitationTable(("A",) * len(paper_ids), paper_ids, range(len(paper_ids)))
    parts = (CitationTable(["A", "A"], ["p0", "p1"], [0, 1]), CitationTable(["B"], ["p1"], [2]))
    with pytest.raises(ValueError, match=r"^duplicate paper_id 'p1'$"):
        CitationTable.concat(parts)


@given(st.lists(st.text(max_size=3), unique=True, max_size=30), st.data())
def test_table_accepts_its_paper_ids_exactly_when_they_are_distinct(distinct, data):
    # sorted distinct ids skip the constructor's dict; a repeat, or any other order, goes through it
    paper_ids = distinct + ([data.draw(st.sampled_from(distinct))] if distinct and data.draw(st.booleans()) else [])
    order = data.draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order == "shuffled":
        paper_ids = data.draw(st.permutations(paper_ids))
    else:
        paper_ids.sort(reverse=order == "reversed")
    seen, repeated = set(), None
    for paper_id in paper_ids:
        if paper_id in seen:
            repeated = paper_id
            break
        seen.add(paper_id)
    columns = (["A"] * len(paper_ids), paper_ids, [0] * len(paper_ids))
    if repeated is None:
        assert CitationTable(*columns).paper_ids == tuple(paper_ids)
    else:
        with pytest.raises(ValueError) as raised:
            CitationTable(*columns)
        assert str(raised.value) == f"duplicate paper_id {repeated!r}"


def test_table_from_increasing_paper_ids_builds_no_dict_of_them():
    # the columns' own tuples are 32 bytes per record; a dict of the ids would add about 55 more
    n = 100_000
    columns = (["S"] * n, [f"P{i:06d}" for i in range(n)], [i % 7 for i in range(n)])
    tracemalloc.start()
    try:
        CitationTable(*columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n


def test_concat_frees_each_table_once_it_is_copied():
    def parts():
        for number in range(10):
            yield CitationTable([f"S{number}"] * 10_000, [f"S{number}-{i:05d}" for i in range(10_000)], range(10_000))

    tracemalloc.start()
    try:
        table = CitationTable.concat(parts())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 100_000
    assert peak - kept < 3_000_000


def test_generate_set_is_deterministic_and_matches_its_records():
    spec = SetSpec("S", n=300, uncited_share=0.25, mu=1.5, sigma=1.0, seed=9)
    table = generate_set(spec)
    assert isinstance(table, CitationTable)
    assert table_rows(table) == table_rows(generate_set(spec))
    assert table_rows(table) == [("S", f"S-{index:05d}", count, None) for index, count in enumerate(table.citations)]
    assert table.citations[:75] == (0,) * 75 and min(table.citations[75:]) >= 1


def test_generated_ids_past_five_digits():
    # numbers are padded to the width of n - 1, so a set of more than 100,000 papers keeps its ids increasing
    table = generate_set(SetSpec("W", n=100_001, uncited_share=1.0))
    assert table.paper_ids[:2] == ("W-000000", "W-000001")
    assert table.paper_ids[99_999:] == ("W-099999", "W-100000")
    assert all(map(operator.lt, table.paper_ids, table.paper_ids[1:]))


def test_generated_ids_of_sets_up_to_100000_papers_keep_five_digits():
    assert generate_set(SetSpec("S", n=10, uncited_share=0.5)).paper_ids == tuple(f"S-0000{i}" for i in range(10))
    assert generate_set(SetSpec("W", n=100_000, uncited_share=1.0)).paper_ids[-1] == "W-99999"


# --- numbered paper_ids: generated sets read as the tuple of their ids ---------------

# set ids that mix "-" and digits, so that an id of one set_id and width could pass for one of another
_NUMBERED_SET_IDS = ("A", "A-1", "A-", "A-00001", "A-0")


def _with_tuple_ids(table: CitationTable) -> CitationTable:
    return CitationTable(table.set_ids, tuple(table.paper_ids), table.citations, table.doc_types)


def _concat_outcome(tables):
    """The rows of ``CitationTable.concat(tables)``, or the message of the ``ValueError`` it raises."""
    try:
        return table_rows(CitationTable.concat(tables))
    except ValueError as exc:
        return str(exc)


@given(st.lists(st.tuples(st.sampled_from(_NUMBERED_SET_IDS), st.integers(1, 3), st.integers(0, 2)),
                min_size=1, max_size=5), st.data())
def test_numbered_ids_read_as_the_tuple_they_stand_for(specs, data):
    blocks = [(set_id, width, min(10**width, 1 + size * 5 * width)) for set_id, width, size in specs]
    expected = tuple(f"{set_id}-" + str(i).zfill(width) for set_id, width, n in blocks for i in range(n))
    ids = indicator_core._NumberedIds(blocks)
    assert len(ids) == len(expected) and ids._ids is None  # the length formats no id
    n = len(expected)
    for index in range(-n - 2, n + 2):
        if -n <= index < n:
            assert ids[index] == expected[index]
        else:
            with pytest.raises(IndexError, match="^tuple index out of range$"):
                ids[index]
    formatted = ids._ids
    bounds = st.none() | st.integers(-n - 2, n + 2)
    for start, stop, step in data.draw(st.lists(st.tuples(bounds, bounds, bounds.filter(lambda step: step != 0)))):
        piece = ids[start:stop:step]
        assert type(piece) is tuple and piece == expected[start:stop:step]
    assert list(ids) == list(expected) and list(reversed(ids)) == list(reversed(expected))
    assert ids == expected and expected == ids and not ids != expected
    assert ids == indicator_core._NumberedIds(blocks) and ids != expected + ("x",) and ids != list(expected)
    assert hash(ids) == hash(expected)
    assert "".join(ids) == "".join(expected)  # a C function that reads a sequence's items
    probes = [*expected[:3], "A-00000", "A-1-0", "A--00", "A-0-0", "A-000001", "x"]
    for probe in probes:
        assert (probe in ids) == (probe in expected)
        assert ids.count(probe) == expected.count(probe)
        if probe in expected:
            assert ids.index(probe) == expected.index(probe)
        else:
            with pytest.raises(ValueError):
                ids.index(probe)
    assert ids._ids is formatted  # formatted on the first read, then kept
    # the constructor finds the repeat that the tuple of the ids holds, by blocks
    columns = (["S"] * n, ids, [0] * n)
    try:
        table = CitationTable(*columns)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            CitationTable(columns[0], expected, columns[2])
        assert str(raised.value) == str(exc)
    else:
        assert table.paper_ids is ids and table_rows(table) == table_rows(CitationTable(columns[0], expected, [0] * n))


@given(st.lists(st.tuples(st.sampled_from(_NUMBERED_SET_IDS), st.sampled_from([1, 3, 12])), min_size=1, max_size=5),
       st.none() | st.tuples(st.integers(0, 5), st.sampled_from(["A-00000", "A-1-00002", "A-000000", "p"])))
def test_concat_of_generated_tables_matches_their_tuple_ids(specs, parsed):
    tables = [generate_set(SetSpec(set_id, n=n, uncited_share=0.5, seed=seed))
              for seed, (set_id, n) in enumerate(specs)]
    if parsed is not None:  # a table with tuple ids, as parse_records builds, among the generated ones
        position, paper_id = parsed
        tables.insert(position, CitationTable(["P"], [paper_id], [3]))
    outcome = _concat_outcome(tables)
    assert outcome == _concat_outcome(map(_with_tuple_ids, tables))
    if isinstance(outcome, list):
        joined = CitationTable.concat(tables)
        assert isinstance(joined.paper_ids, indicator_core._NumberedIds) == (parsed is None)


def test_concat_of_generated_sets_of_widths_5_and_6():
    specs = [("W", 100_001), ("A-1", 3), ("W", 7), ("A", 2), ("W-", 4)]
    tables = [generate_set(SetSpec(set_id, n=n, uncited_share=1.0)) for set_id, n in specs]
    joined = CitationTable.concat(tables)
    assert len(joined.paper_ids.blocks) == 5 and joined.paper_ids._ids is None
    assert table_rows(joined) == table_rows(CitationTable.concat(map(_with_tuple_ids, tables)))
    for fmt in ("delimited", "aligned", "json"):
        assert emit_paper_percentiles(joined, (QUANTILE,), fmt=fmt) == emit_paper_percentiles(
            _with_tuple_ids(joined), (QUANTILE,), fmt=fmt)
    # a set_id and width repeated in two non-adjacent places: the later block's first id is the first repeat
    for repeated in ([*tables, tables[2]], [*tables, tables[0]], [tables[3], tables[1], tables[4], tables[3]]):
        with pytest.raises(ValueError) as raised:
            CitationTable.concat(repeated)
        assert str(raised.value) == _concat_outcome(map(_with_tuple_ids, repeated))
    assert str(raised.value) == "duplicate paper_id 'A-00000'"


def test_concat_of_generated_sets_holds_no_paper_id_strings():
    # the three tuple columns keep 24 bytes per record and concat's lists add about 11; id strings would add 66
    specs = [SetSpec(f"S{number}", n=10_000, uncited_share=0.25, seed=number) for number in range(10)]
    generate_set(specs[0])  # numpy is loaded before tracing starts
    tracemalloc.start()
    try:
        table = CitationTable.concat(generate_set(spec) for spec in specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 100_000
    assert peak <= 48 * len(table)


# --- the tally: one per (table, scope), equal to a shuffled copy and the exact oracle ---

@given(drawn=citation_tables(), seed=st.integers(min_value=0, max_value=2**16))
def test_table_tally_matches_a_shuffled_list_and_the_oracle(drawn, seed):
    table = parse_records(io.StringIO(_csv_text(drawn)))
    rows = table_rows(table)
    shuffler = random.Random(seed)
    shuffler.shuffle(rows)
    shuffled = CitationTable(*zip(*rows))
    runs = [(rule, scope) for rule in PercentileRule for scope in ReferenceScope]
    shuffler.shuffle(runs)  # scopes interleave, so each rule reads a memo another scope left
    for rule, scope in runs:
        from_table = compute_percentiles(table, rule, scope)
        from_shuffled = compute_percentiles(shuffled, rule, scope)
        assert list(from_table.entries) == list(table.paper_ids)
        assert from_table.entries == from_shuffled.entries
        assert from_table.group_keys == from_shuffled.group_keys
        for set_id in set(table.set_ids):
            assert sorted(from_table.percentiles_for_set(set_id)) == sorted(from_shuffled.percentiles_for_set(set_id))
        assert from_table.entries == oracle_entries(shuffled, rule, scope)


def _count_tallies(monkeypatch):
    return spy(monkeypatch, indicator_core, "_tally", note=lambda table, scope: (id(table), scope))


def test_tally_runs_once_per_table_and_scope(monkeypatch):
    calls = _count_tallies(monkeypatch)
    table = _table()
    scopes = [ReferenceScope.GLOBAL_POOL, ReferenceScope.PER_SET, ReferenceScope.GLOBAL_POOL]
    for scope in scopes:
        for rule in PercentileRule:
            compute_percentiles(table, rule, scope)
    assert calls == [(id(table), ReferenceScope.GLOBAL_POOL), (id(table), ReferenceScope.PER_SET)]


def test_pipelines_tally_once_per_scope(monkeypatch):
    calls = _count_tallies(monkeypatch)
    table = parse_records(io.StringIO(DOC_CSV))
    scope = ReferenceScope.PER_SET_AND_DOC_TYPE
    emit_paper_percentiles(table, tuple(PercentileRule), scope)
    run_analysis(table, rules=tuple(PercentileRule), schemes=(P100, NSF6), scope=scope)
    assert calls == [(id(table), scope)]


def test_the_tally_holds_the_table_columns_and_no_paper_id_dict():
    table = _table()
    for scope in (ReferenceScope.GLOBAL_POOL, ReferenceScope.PER_SET):
        tally = compute_percentiles(table, QUANTILE, scope).tally
        assert tally.paper_ids is table.paper_ids and tally.set_ids is table.set_ids
        assert not any(isinstance(field, dict) for field in tally)


def test_an_assignment_is_row_values_over_the_tally():
    assert PercentileAssignment._fields == ("row_values", "tally")


def test_a_failed_tally_is_not_memoized(monkeypatch):
    calls = _count_tallies(monkeypatch)
    table = _table()  # a2 has no doc_type
    for _ in range(2):
        with pytest.raises(ValueError, match="'a2' has no doc_type"):
            compute_percentiles(table, QUANTILE, ReferenceScope.PER_DOC_TYPE_POOL)
    assert len(calls) == 2


def _count_paper_id_views(monkeypatch, names=("entries", "group_keys")):
    built = []
    for name in names:
        spy(monkeypatch, getattr(PercentileAssignment, name), "func", note=lambda _, name=name: name, calls=built)
    return built


def test_cli_paths_build_no_paper_id_keyed_dict(monkeypatch, capsys, tmp_path):
    built = _count_paper_id_views(monkeypatch)
    path = tmp_path / "doc.csv"
    path.write_text(DOC_CSV)
    rules = [flag for rule in PercentileRule for flag in ("--rule", rule.token)]
    for scope in ReferenceScope:
        for extra in (["--per-paper"], ["--scheme", "nsf6"]):
            assert main(["rank", "--input", str(path), *rules, "--scope", scope.token, *extra]) == 0
    assert main(["compare-rules", "--input", str(path), *rules]) == 0
    assert main(["ztest", "--input", str(path), "--set-a", "A", "--set-b", "B", "--rule", "rousseau-raw"]) == 0
    sets = [{"set_id": set_id, "n": 40, "uncited_share": 0.25, "seed": seed}
            for seed, set_id in enumerate("XYZ")]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"sets": sets, "scope": "per-set"}))
    assert main(["simulate", "--config", str(config)]) == 0
    capsys.readouterr()
    assert built == []
    assignment = compute_percentiles(parse_records(io.StringIO(DOC_CSV)), QUANTILE)
    assert assignment.group_keys is assignment.group_keys  # built on first read, then kept
    assert len(assignment.entries) == 6
    assert built == ["group_keys", "entries"]


def test_paper_table_builds_no_per_record_values(monkeypatch, capsys, tmp_path):
    built = _count_paper_id_views(monkeypatch, ("entries", "group_keys", "_values_by_set"))
    path = tmp_path / "doc.csv"
    path.write_text(DOC_CSV)
    rules = [flag for rule in PercentileRule for flag in ("--rule", rule.token)]
    for scope in ReferenceScope:
        for fmt in ("delimited", "aligned", "json"):
            argv = ["rank", "--input", str(path), *rules, "--scope", scope.token, "--per-paper", "--format", fmt]
            assert main(argv) == 0
    capsys.readouterr()
    assert built == []
    assignment = compute_percentiles(parse_records(io.StringIO(DOC_CSV)), QUANTILE)
    assert top_count(assignment, "A", 50.0) == (1, 3)  # the set index is built on first read
    assert assignment.percentiles_for_set("B") == [100.0 * lower / 6 for lower in (4, 1, 4)]
    assert built == ["_values_by_set"]


def test_set_index_is_built_once_per_table_and_scope(monkeypatch):
    built = spy(monkeypatch, indicator_core._Tally.rows_by_set, "func", note=id)
    table = parse_records(io.StringIO(DOC_CSV))
    schemes = (P100, NSF6, RankClassScheme.from_token("top25"))
    for scope in [*ReferenceScope, *ReferenceScope]:
        run_analysis(table, rules=tuple(PercentileRule), schemes=schemes, scope=scope)
        assignment = compute_percentiles(table, QUANTILE, scope)
        assert top_count(assignment, "B", 50.0)[1] == 3
    # every rule and scheme under one scope reads the index of that scope's one tally
    assert built == [id(table._tallies[scope]) for scope in ReferenceScope]


def test_paper_table_json_formats_no_text_cells(monkeypatch):
    formatted = spy(monkeypatch, data_pipeline, "format", note=lambda value, spec="": value)
    table = parse_records(io.StringIO(DOC_CSV))
    emit_paper_percentiles(table, tuple(PercentileRule), ReferenceScope.PER_SET, "json")
    assert formatted == []
    emit_paper_percentiles(table, tuple(PercentileRule), ReferenceScope.PER_SET, "delimited")
    assert formatted


# --- analysis configuration -----------------------------------------------------

def test_analysis_config_gives_unequal_schemes_their_own_columns():
    first, second = (RankClassScheme.from_token(token) for token in ("top12.34561", "top12.34562"))
    table = parse_records(io.StringIO(DOC_CSV))
    report = run_analysis(table, rules=(QUANTILE,), schemes=(P100, first, second))
    assert list(report.rows[0].i3) == ["quantile_p100", "quantile_top12.34561", "quantile_top12.34562"]
    # one scheme repeated fills equal columns, which is harmless
    run_analysis(table, rules=(QUANTILE, QUANTILE), schemes=(first, first))


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 150.0, -5.0, 100.000001])
def test_top_share_threshold_outside_percentiles_rejected(threshold):
    message = rf"^top-share threshold {threshold} outside \[0, 100\]$"
    assignment = compute_percentiles(_table(), QUANTILE)
    with pytest.raises(ValueError, match=message):
        top_count(assignment, "A", threshold)


def test_top_share_threshold_bounds_accepted():
    assignment = compute_percentiles(_table(), QUANTILE)
    assert top_count(assignment, "B", 0.0) == (2, 2)
    assert top_count(assignment, "B", 100.0) == (0, 2)


@pytest.mark.parametrize("threshold", ["nan", "150", "-5", "inf"])
def test_ztest_bad_threshold_is_a_one_line_error(capsys, tmp_path, threshold):
    path = tmp_path / "doc.csv"
    path.write_text(DOC_CSV)
    code = main(["ztest", "--input", str(path), "--set-a", "A", "--set-b", "B", "--threshold", threshold])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: top-share threshold ") and "outside [0, 100]" in captured.err
