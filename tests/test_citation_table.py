"""The columnar record store: sequence behaviour, the per-scope tally memo, and the
paths that read columns without building records."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citerank import (
    NSF6,
    P100,
    AnalysisConfig,
    CitationRecord,
    CitationTable,
    InputDataset,
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
from conftest import GROUP_OF_SCOPE
from exact_oracle import exact_percentile

QUANTILE = PercentileRule.QUANTILE

RECORDS = (
    CitationRecord("A", "a1", 3, "article"),
    CitationRecord("A", "a2", 0),
    CitationRecord("B", "b1", 7, "review"),
    CitationRecord("B", "b2", 7, "review"),
)

DOC_CSV = """set_id,paper_id,citations,doc_type
A,a1,3,article
A,a2,0,review
A,a3,5,article
B,b1,7,review
B,b2,1,article
B,b3,7,article
"""


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["set_id", "paper_id", "citations", "doc_type"])
    writer.writerows(rows)
    return buffer.getvalue()


# --- sequence behaviour ---------------------------------------------------------

def test_table_is_a_sequence_of_records():
    table = CitationTable.of(RECORDS)
    assert len(table) == 4
    assert table[0] == RECORDS[0] and table[-1] == RECORDS[-1] and table[-4] == RECORDS[0]
    with pytest.raises(IndexError):
        table[4]
    assert isinstance(table[1:3], CitationTable)
    assert table[1:3] == RECORDS[1:3] and table[::-2] == list(RECORDS[::-2])
    assert list(table) == list(RECORDS)
    assert table == RECORDS and RECORDS == table and table == list(RECORDS)
    assert table != RECORDS[:3] and table != list(reversed(RECORDS)) and table != "abcd"
    assert hash(table) == hash(RECORDS)
    assert RECORDS[2] in table and table.index(RECORDS[2]) == 2
    assert table.doc_types == ("article", None, "review", "review")
    assert CitationTable.of(table) is table


def test_table_columns_are_checked():
    assert CitationTable(["A"], ["p"], [0]).doc_types == (None,)
    with pytest.raises(ValueError, match="columns differ in length"):
        CitationTable(["A", "A"], ["p1", "p2"], [1])
    with pytest.raises(ValueError, match=r"^negative citations for paper 'p2'$"):
        CitationTable(["A", "A"], ["p1", "p2"], [1, -1])


def test_concat_keeps_record_order():
    table = CitationTable.of(RECORDS)
    assert CitationTable.concat([table[:1], table[1:3], table[3:]]) == table
    assert len(CitationTable.concat([])) == 0


def test_dataset_holds_records_as_a_table():
    dataset = InputDataset(RECORDS)
    assert isinstance(dataset.records, CitationTable)
    assert dataset.records == RECORDS and dataset.row_count == 4
    assert InputDataset(dataset.records).records is dataset.records


def test_generate_set_is_deterministic_and_matches_its_records():
    spec = SetSpec("S", n=300, uncited_share=0.25, mu=1.5, sigma=1.0, seed=9)
    table = generate_set(spec)
    assert isinstance(table, CitationTable)
    assert table == generate_set(spec)
    assert table == [
        CitationRecord("S", f"S-{index:05d}", count) for index, count in enumerate(table.citations)
    ]
    assert table.citations[:75] == (0,) * 75 and min(table.citations[75:]) >= 1


def test_generated_ids_past_five_digits():
    table = generate_set(SetSpec("W", n=100_001, uncited_share=1.0))
    assert table.paper_ids[99_999:] == ("W-99999", "W-100000")


# --- the tally: one per (table, scope), equal to a plain list and the exact oracle ---

multi_set_doc_rows = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "a/b", "a"]),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(["article", "review", "c", "b/c"]),
    ),
    min_size=1,
    max_size=40,
)


@given(rows=multi_set_doc_rows, seed=st.integers(min_value=0, max_value=2**16))
def test_table_tally_matches_a_shuffled_list_and_the_exact_oracle(rows, seed):
    text = _csv_text((set_id, f"p{i}", count, doc_type) for i, (set_id, count, doc_type) in enumerate(rows))
    table = parse_records(io.StringIO(text)).records
    shuffled = list(table)
    shuffler = random.Random(seed)
    shuffler.shuffle(shuffled)
    runs = [(rule, scope) for rule in PercentileRule for scope in ReferenceScope]
    shuffler.shuffle(runs)  # scopes interleave, so each rule reads a memo another scope left
    for rule, scope in runs:
        from_table = compute_percentiles(table, rule, scope)
        from_list = compute_percentiles(shuffled, rule, scope)
        assert from_table.entries == from_list.entries
        assert from_table.group_keys == from_list.group_keys
        assert from_table.set_ids == from_list.set_ids
        group_of = GROUP_OF_SCOPE[scope]
        groups = defaultdict(list)
        for record in shuffled:
            groups[group_of(record)].append(record.citations)
        for record in shuffled:
            exact = exact_percentile(record.citations, groups[group_of(record)], rule.token)
            assert from_table.entries[record.paper_id] == float(exact)


def _count_tallies(monkeypatch):
    calls = []
    tally = indicator_core._tally

    def counting(table, scope):
        calls.append((id(table), scope))
        return tally(table, scope)

    monkeypatch.setattr(indicator_core, "_tally", counting)
    return calls


def test_tally_runs_once_per_table_and_scope(monkeypatch):
    calls = _count_tallies(monkeypatch)
    table = CitationTable.of(RECORDS)
    scopes = [ReferenceScope.GLOBAL_POOL, ReferenceScope.PER_SET, ReferenceScope.GLOBAL_POOL]
    for scope in scopes:
        for rule in PercentileRule:
            compute_percentiles(table, rule, scope)
    assert calls == [(id(table), ReferenceScope.GLOBAL_POOL), (id(table), ReferenceScope.PER_SET)]

    # a plain list becomes a new table on every call, so nothing is shared between calls
    for rule in PercentileRule:
        compute_percentiles(list(RECORDS), rule)
    assert len(calls) == 2 + len(PercentileRule)


def test_pipelines_tally_once_per_scope(monkeypatch):
    calls = _count_tallies(monkeypatch)
    dataset = parse_records(io.StringIO(DOC_CSV))
    scope = ReferenceScope.PER_SET_AND_DOC_TYPE
    emit_paper_percentiles(dataset, tuple(PercentileRule), scope)
    run_analysis(dataset, AnalysisConfig(tuple(PercentileRule), (P100, NSF6), scope))
    assert calls == [(id(dataset.records), scope)]


def test_a_failed_tally_is_not_memoized(monkeypatch):
    calls = _count_tallies(monkeypatch)
    table = CitationTable.of(RECORDS)  # a2 has no doc_type
    for _ in range(2):
        with pytest.raises(ValueError, match="'a2' has no doc_type"):
            compute_percentiles(table, QUANTILE, ReferenceScope.PER_DOC_TYPE_POOL)
    assert len(calls) == 2


def _count_records(monkeypatch):
    built = []
    check = CitationRecord.__post_init__

    def counting(record):
        built.append(record.paper_id)
        check(record)

    monkeypatch.setattr(CitationRecord, "__post_init__", counting)
    return built


def test_rank_and_simulate_build_no_records(monkeypatch, capsys, tmp_path):
    built = _count_records(monkeypatch)
    path = tmp_path / "doc.csv"
    path.write_text(DOC_CSV)
    rules = [flag for rule in PercentileRule for flag in ("--rule", rule.token)]
    for extra in (["--per-paper"], ["--scheme", "nsf6"]):
        assert main(["rank", "--input", str(path), *rules, "--scope", "per-set-and-doc-type", *extra]) == 0
    sets = [{"set_id": set_id, "n": 40, "uncited_share": 0.25, "seed": seed}
            for seed, set_id in enumerate("XYZ")]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"sets": sets, "scope": "per-set"}))
    assert main(["simulate", "--config", str(config)]) == 0
    capsys.readouterr()
    assert built == []
    parse_records(io.StringIO(DOC_CSV)).records[0]  # the counter does see a record built on demand
    assert built == ["a1"]


def test_paper_table_json_formats_no_text_cells(monkeypatch):
    formatted = []

    def counting(value, spec=""):
        formatted.append(value)
        return format(value, spec)

    monkeypatch.setattr(data_pipeline, "format", counting, raising=False)
    dataset = parse_records(io.StringIO(DOC_CSV))
    emit_paper_percentiles(dataset, tuple(PercentileRule), ReferenceScope.PER_SET, "json")
    assert formatted == []
    emit_paper_percentiles(dataset, tuple(PercentileRule), ReferenceScope.PER_SET, "delimited")
    assert formatted


# --- analysis configuration -----------------------------------------------------

def test_analysis_config_rejects_two_schemes_with_one_label():
    first, second = (RankClassScheme.from_token(token) for token in ("top12.34561", "top12.34562"))
    assert first.label == second.label == "top12.3456" and first != second
    with pytest.raises(ValueError, match=r"^duplicate scheme: top12\.3456$"):
        AnalysisConfig((QUANTILE,), (P100, first, second))
    # one scheme repeated fills equal columns, which is harmless
    AnalysisConfig((QUANTILE, QUANTILE), (first, first))


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 150.0, -5.0, 100.000001])
def test_top_share_threshold_outside_percentiles_rejected(threshold):
    message = rf"^top-share threshold {threshold} outside \[0, 100\]$"
    with pytest.raises(ValueError, match=message):
        AnalysisConfig(top_share_threshold=threshold)
    assignment = compute_percentiles(RECORDS, QUANTILE)
    with pytest.raises(ValueError, match=message):
        top_count(assignment, "A", threshold)


def test_top_share_threshold_bounds_accepted():
    assignment = compute_percentiles(RECORDS, QUANTILE)
    assert top_count(assignment, "B", 0.0) == (2, 2)
    assert top_count(assignment, "B", 100.0) == (0, 2)
    AnalysisConfig(top_share_threshold=0.0)
    AnalysisConfig(top_share_threshold=100.0)


@pytest.mark.parametrize("threshold", ["nan", "150", "-5", "inf"])
def test_ztest_bad_threshold_is_a_one_line_error(capsys, tmp_path, threshold):
    path = tmp_path / "doc.csv"
    path.write_text(DOC_CSV)
    code = main(["ztest", "--input", str(path), "--set-a", "A", "--set-b", "B", "--threshold", threshold])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: top-share threshold ") and "outside [0, 100]" in captured.err
