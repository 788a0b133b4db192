from __future__ import annotations

import csv
import gc
import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citerank import (
    NSF6,
    P100,
    TOP10,
    CitationTable,
    PercentileRule,
    RankingReport,
    ReferenceScope,
    class_histogram,
    compute_percentiles,
    divergence_from_report,
    emit_divergence,
    emit_paper_percentiles,
    emit_ranking_table,
    fixture_path,
    i3,
    load_records,
    pair_key,
    parse_ranking_table,
    parse_records,
    percent_i3,
    run_analysis,
    top_share,
)
from citerank import __version__, data_pipeline
from conftest import exact_percentiles, oracle_entries, spy, table_rows

QUANTILE = PercentileRule.QUANTILE

TWO_SET_CSV = """set_id,paper_id,citations
A,a1,0
A,a2,1
A,a3,1
A,a4,2
A,a5,5
B,b1,0
B,b2,0
B,b3,0
B,b4,0
B,b5,3
"""


def _table(text: str) -> CitationTable:
    return parse_records(io.StringIO(text), "inline")


# --- parsing ------------------------------------------------------------------

def test_parse_two_records():
    table = _table("set_id,paper_id,citations\nJ1,p1,5\nJ1,p2,0\n")
    assert len(table) == 2
    assert table_rows(table) == [("J1", "p1", 5, None), ("J1", "p2", 0, None)]


def test_parse_trims_and_handles_doc_type():
    table = _table(
        "set_id, paper_id ,citations,doc_type\n J1 , p1 , 5 , article \nJ1,p2,0,\n"
    )
    assert table_rows(table) == [("J1", "p1", 5, "article"), ("J1", "p2", 0, None)]


def test_parse_tolerates_extra_columns_and_blank_lines():
    table = _table("set_id,paper_id,citations,notes\nJ1,p1,5,hello\n\nJ1,p2,0,\n")
    assert len(table) == 2


def test_parse_missing_column():
    with pytest.raises(ValueError, match="missing required column 'citations'"):
        _table("set_id,paper_id\nJ1,p1\n")


@pytest.mark.parametrize("name", ["set_id", "paper_id", "citations", "doc_type"])
def test_parse_rejects_a_repeated_column(name):
    header = ["set_id", "paper_id", "citations", "doc_type", name]
    with pytest.raises(ValueError, match=rf"^column '{name}' appears more than once in the header$"):
        _table(",".join(header) + "\nJ1,p1,5,article,5\n")


def test_parse_negative_citations_row_number():
    with pytest.raises(ValueError, match="negative citations at row 3"):
        _table("set_id,paper_id,citations\nJ1,p1,5\nJ1,p3,-2\n")


def test_parse_non_integer_citations_row_number():
    with pytest.raises(ValueError, match="non-integer citations 'many' at row 2"):
        _table("set_id,paper_id,citations\nJ1,p1,many\n")


@pytest.mark.parametrize("cell", ["1_000", "\uff15", "5.0", "--5"])
def test_parse_rejects_citations_other_than_ascii_digits(cell):
    with pytest.raises(ValueError, match=f"non-integer citations '{cell}' at row 3"):
        _table(f"set_id,paper_id,citations\nJ1,p1,5\nJ1,p2,{cell}\n")


def test_parse_names_the_row_of_a_citation_count_with_too_many_digits():
    # int() used to raise its own error, which names no row
    with pytest.raises(ValueError, match=r"^citation count at row 3 has too many digits$"):
        _table(f"set_id,paper_id,citations\nA,p1,1\nA,p2,{'9' * 5000}\n")


def test_parse_accepts_signed_ascii_digits():
    table = _table("set_id,paper_id,citations\nJ1,p1,+5\nJ1,p2,007\n")
    assert table.citations == (5, 7)


def test_parse_ignores_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("set_id,paper_id,citations\nJ1,p1,5\n".encode("utf-8-sig"))
    assert table_rows(load_records(path)) == [("J1", "p1", 5, None)]


def test_load_records_names_an_input_that_is_not_utf8(tmp_path):
    # far enough in that the decoder's offset, counted from its read buffer, is not the file's
    path = tmp_path / "bytes.csv"
    rows = b"".join(b"J1,p%05d,1\n" % index for index in range(2000))
    path.write_bytes(b"set_id,paper_id,citations\n" + rows + b"J1,\xff,1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not UTF-8 text: invalid start byte$"):
        load_records(path)


def test_parse_duplicate_paper_id_both_rows():
    with pytest.raises(ValueError, match="duplicate paper_id 'p1' at rows 2 and 4"):
        _table("set_id,paper_id,citations\nJ1,p1,5\nJ1,p2,0\nJ2,p1,1\n")


def test_parse_empty_stream():
    with pytest.raises(ValueError, match="empty input"):
        _table("")


def test_parse_reviews_fixture():
    table = load_records(fixture_path("reviews10.csv"))
    assert len(table) == 10
    assert sorted(table.citations) == list(range(10))
    assert set(table.set_ids) == {"reviews"}


# --- run_analysis -------------------------------------------------------------

def test_single_set_gets_full_share():
    table = _table("set_id,paper_id,citations\nA,p1,0\nA,p2,3\nA,p3,9\n")
    report = run_analysis(table, rules=(QUANTILE, PercentileRule.ROUSSEAU_RAW), schemes=(P100, NSF6))
    assert len(report.rows) == 1
    row = report.rows[0]
    for key, value in row.percent_i3.items():
        assert value == 100.0, key
        assert row.rank[key] == 1


def test_two_identical_sets_split_evenly():
    table = _table(
        "set_id,paper_id,citations\nA,a1,0\nA,a2,7\nB,b1,0\nB,b2,7\n"
    )
    report = run_analysis(table, rules=tuple(PercentileRule), schemes=(P100, NSF6))
    for row in report.rows:
        for key, value in row.percent_i3.items():
            assert value == 50.0, key
        assert all(rank == 1 for rank in row.rank.values())


def test_pooled_fixture_matches_oracle():
    table = _table(TWO_SET_CSV)
    report = run_analysis(table, rules=(QUANTILE,), schemes=(P100,))
    # the 10 counts in one global reference group, scored by the exact oracle
    oracle = oracle_entries(table, QUANTILE, ReferenceScope.GLOBAL_POOL)
    by_set: dict[str, list[float]] = {"A": [], "B": []}
    for set_id, paper_id, _, _ in table_rows(table):
        by_set[set_id].append(oracle[paper_id])
    import math

    totals = {set_id: math.fsum(values) for set_id, values in by_set.items()}
    expected_shares = percent_i3(totals)
    key = pair_key(QUANTILE, P100)
    for row in report.rows:
        assert row.i3[key] == totals[row.set_id]
        assert row.percent_i3[key] == expected_shares[row.set_id]


def test_report_cells_equal_direct_library_calls():
    table = _table(TWO_SET_CSV)
    rules, schemes, scope = (QUANTILE, PercentileRule.ROUSSEAU_REVISED), (P100, NSF6), ReferenceScope.GLOBAL_POOL
    report = run_analysis(table, rules=rules, schemes=schemes, scope=scope)
    for rule in rules:
        assignment = compute_percentiles(table, rule, scope)
        for scheme in schemes:
            key = pair_key(rule, scheme)
            i3_by_set = {s: i3(assignment, scheme, s) for s in ("A", "B")}
            shares = percent_i3(i3_by_set)
            for row in report.rows:
                assert row.i3[key] == i3_by_set[row.set_id]
                assert row.percent_i3[key] == shares[row.set_id]
    primary = compute_percentiles(table, rules[0], scope)
    for row in report.rows:
        assert row.top_share == top_share(primary, row.set_id, 90.0)
        assert row.n_papers == 5
    hist = class_histogram(primary, NSF6, "A")
    assert sum(hist) == 5


def test_rows_sorted_and_competition_ranks():
    table = _table(
        "set_id,paper_id,citations\n"
        "A,a1,9\nA,a2,9\n"
        "B,b1,9\nB,b2,9\n"
        "C,c1,0\nC,c2,1\n"
    )
    report = run_analysis(table, rules=(QUANTILE,), schemes=(P100,))
    key = pair_key(QUANTILE, P100)
    assert [row.set_id for row in report.rows] == ["A", "B", "C"]  # tie broken by set_id
    ranks = {row.set_id: row.rank[key] for row in report.rows}
    assert ranks == {"A": 1, "B": 1, "C": 3}  # competition ranking skips 2


def test_run_analysis_propagates_degenerate_pool():
    table = _table("set_id,paper_id,citations\nA,a1,4\nB,b1,4\n")
    with pytest.raises(ValueError, match="degenerate pool"):
        run_analysis(table, rules=(QUANTILE,), schemes=(P100,))


def test_run_analysis_needs_a_rule_and_a_scheme(monkeypatch):
    tallied = spy(monkeypatch, data_pipeline, "compute_percentiles")
    table = _table(TWO_SET_CSV)
    with pytest.raises(ValueError, match="^at least one rule required$"):
        run_analysis(table, rules=(), schemes=(P100,))
    with pytest.raises(ValueError, match="^at least one scheme required$"):
        run_analysis(table, rules=(QUANTILE,), schemes=())
    assert tallied == []  # both checks come before any tally


# --- emission -----------------------------------------------------------------

@pytest.fixture
def report():
    return run_analysis(
        _table(TWO_SET_CSV),
        rules=(QUANTILE, PercentileRule.LB09),
        schemes=(P100, NSF6),
    )


def test_delimited_leader_and_header(report):
    text = emit_ranking_table(report)
    lines = text.splitlines()
    assert lines[0] == "# citerank-i3 0.1.0"
    assert lines[1] == (
        "set_id,n_papers,total_citations,"
        "pI3_quantile_p100,rank_quantile_p100,pI3_quantile_nsf6,rank_quantile_nsf6,"
        "pI3_lb09_p100,rank_lb09_p100,pI3_lb09_nsf6,rank_lb09_nsf6,top_share"
    )
    assert len(lines) == 4


def test_delimited_round_trip(report):
    text = emit_ranking_table(report)
    rows = parse_ranking_table(text)
    assert len(rows) == len(report.rows)
    for parsed, original in zip(rows, report.rows):
        assert parsed["set_id"] == original.set_id
        assert parsed["n_papers"] == original.n_papers
        assert parsed["total_citations"] == original.total_citations
        for key, share in original.percent_i3.items():
            assert parsed[f"pI3_{key}"] == float(f"{share:.6f}")
            assert parsed[f"rank_{key}"] == original.rank[key]
        assert parsed["top_share"] == float(f"{original.top_share:.6f}")


def test_delimited_shares_sum_to_100(report):
    rows = parse_ranking_table(emit_ranking_table(report))
    for key in report.rows[0].percent_i3:
        total = sum(row[f"pI3_{key}"] for row in rows)
        assert total == pytest.approx(100.0, abs=1e-3)  # 6-decimal cells


def test_tied_rows_share_rank():
    table = _table("set_id,paper_id,citations\nA,a1,0\nA,a2,5\nB,b1,0\nB,b2,5\n")
    report = run_analysis(table, rules=(QUANTILE,), schemes=(P100,))
    rows = parse_ranking_table(emit_ranking_table(report))
    key = pair_key(QUANTILE, P100)
    assert rows[0][f"rank_{key}"] == rows[1][f"rank_{key}"] == 1


RANKING_HEADER = "set_id,n_papers,total_citations,pI3_quantile_p100,rank_quantile_p100,top_share"


@pytest.mark.parametrize("row, cells", [("B,2,5,50.000000", 4), ("B,2,5,50.000000,1,0.000000,9", 7)])
def test_parse_ranking_table_names_the_line_of_a_row_of_the_wrong_width(row, cells):
    text = f"# citerank-i3 0.1.0\n{RANKING_HEADER}\nA,2,5,50.000000,1,0.000000\n\n{row}\n"
    with pytest.raises(ValueError, match=rf"^row at line 5 has {cells} cells, the header 6$"):
        parse_ranking_table(text)


@pytest.mark.parametrize(
    "column, cell, kind",
    [
        ("n_papers", "x", "an integer"),
        ("total_citations", "5.0", "an integer"),
        ("rank_quantile_p100", "", "an integer"),
        ("pI3_quantile_p100", "fifty", "a number"),
        ("top_share", "0.5%", "a number"),
    ],
)
def test_parse_ranking_table_names_the_line_and_column_of_a_bad_number(column, cell, kind):
    cells = ["B", "2", "5", "50.000000", "1", "0.000000"]
    cells[RANKING_HEADER.split(",").index(column)] = cell
    text = f"# citerank-i3 0.1.0\n{RANKING_HEADER}\nA,2,5,50.000000,1,0.000000\n\n{','.join(cells)}\n"
    message = f"row at line 5: column {column!r} holds {cell!r}, not {kind}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_ranking_table(text)


def test_carriage_return_in_an_id_is_quoted_in_every_delimited_report():
    table = _table('set_id,paper_id,citations\nA,"p\rq",3\n"B\rx",b1,5\n')

    def rows(text):
        return list(csv.reader(io.StringIO(text, newline="")))

    per_paper = rows(emit_paper_percentiles(table, (QUANTILE,)))
    assert per_paper[2:] == [["A", "p\rq", "3", "0.000000"], ["B\rx", "b1", "5", "50.000000"]]
    report = run_analysis(table, rules=(QUANTILE, PercentileRule.LB09), schemes=(P100,))
    assert [row["set_id"] for row in parse_ranking_table(emit_ranking_table(report))] == ["B\rx", "A"]
    divergence = rows(emit_divergence(divergence_from_report(report, P100)))
    assert [row[0] for row in divergence[3:5]] == ["A", "B\rx"]


def test_set_id_starting_with_hash_is_quoted_in_every_delimited_report():
    table = _table("set_id,paper_id,citations\n#x,#p,3\n#x,q,1\nB,b1,5\n")

    def rows(text, captions=()):
        comments = [line for line in text.splitlines() if line.startswith("#")]
        assert comments == ["# citerank-i3 0.1.0", *(f"# {caption}" for caption in captions)]
        return list(csv.reader(io.StringIO(text, newline="")))

    per_paper = rows(emit_paper_percentiles(table, (QUANTILE,)))
    assert {len(row) for row in per_paper[1:]} == {4}
    assert [row[:2] for row in per_paper[2:]] == [["#x", "#p"], ["#x", "q"], ["B", "b1"]]
    report = run_analysis(table, rules=(QUANTILE, PercentileRule.LB09), schemes=(P100,))
    ranking = emit_ranking_table(report)
    rows(ranking)
    assert [row["set_id"] for row in parse_ranking_table(ranking)] == ["B", "#x"]
    divergence = emit_divergence(divergence_from_report(report, P100))
    assert [row[0] for row in rows(divergence, ("percent_i3", "correlations", "top_ranked"))[3:5]] == ["#x", "B"]


def test_divergence_top_set_is_the_smallest_set_id_of_rank_1():
    table = _table("set_id,paper_id,citations\nC,c1,5\nC,c2,1\nA,a1,0\nA,a2,0\nB,b1,5\nB,b2,1\n")
    report = run_analysis(table, rules=(QUANTILE, PercentileRule.LB09), schemes=(P100,))
    assert [row.rank[pair_key(QUANTILE, P100)] for row in report.rows] == [1, 1, 3]
    result = divergence_from_report(report, P100)
    assert result.set_order == ("A", "B", "C")
    assert result.top_set == {"quantile": "B", "lb09": "B"}


def test_shuffled_input_emits_identical_bytes():
    lines = TWO_SET_CSV.strip().splitlines()
    header, body = lines[0], lines[1:]
    rnd = random.Random(3)
    outputs = set()
    for _ in range(5):
        rnd.shuffle(body)
        text = "\n".join([header] + body) + "\n"
        report = run_analysis(_table(text), rules=tuple(PercentileRule), schemes=(P100, NSF6))
        outputs.add(emit_ranking_table(report))
        outputs.add(emit_ranking_table(report, "json"))
    assert len(outputs) == 2  # one delimited + one json variant across all orders


def test_json_output_has_no_timestamp(report):
    payload = json.loads(emit_ranking_table(report, "json"))
    assert "generated_at" not in json.dumps(payload)
    assert payload["rules"] == ["quantile", "lb09"]
    assert payload["schemes"] == ["p100", "nsf6"]
    assert payload["rows"][0]["set_id"] == report.rows[0].set_id
    assert payload["rows"][0]["percent_i3"] == dict(report.rows[0].percent_i3)


def test_aligned_output_is_deterministic(report):
    first = emit_ranking_table(report, "aligned")
    second = emit_ranking_table(report, "aligned")
    assert first == second
    assert first.splitlines()[0].startswith("citerank-i3")


def test_emit_empty_report_rejected(report):
    empty = RankingReport((), report.rules, report.schemes, report.scope)
    with pytest.raises(ValueError, match="empty report"):
        emit_ranking_table(empty)


def test_emit_unknown_format(report):
    with pytest.raises(ValueError, match="unknown format"):
        emit_ranking_table(report, "yaml")


def test_an_empty_report_is_named_before_an_unknown_format(report):
    empty = RankingReport((), report.rules, report.schemes, report.scope)
    with pytest.raises(ValueError, match=r"^empty report$"):
        emit_ranking_table(empty, "yaml")


def test_every_emitter_names_an_unknown_format_and_the_known_ones(report):
    message = "^" + re.escape("unknown format 'yaml' (expected one of: delimited, aligned, json)") + "$"
    with pytest.raises(ValueError, match=message):
        emit_ranking_table(report, "yaml")
    with pytest.raises(ValueError, match=message):
        emit_paper_percentiles(_table(TWO_SET_CSV), (QUANTILE,), ReferenceScope.PER_SET, "yaml")
    with pytest.raises(ValueError, match=message):
        emit_paper_percentiles(_table(TWO_SET_CSV), (), ReferenceScope.PER_SET, "yaml")
    with pytest.raises(ValueError, match=message):
        emit_divergence(divergence_from_report(report, P100), "yaml")


def test_paper_percentile_table():
    table = _table(TWO_SET_CSV)
    text = emit_paper_percentiles(table, (QUANTILE, PercentileRule.LB09))
    lines = text.splitlines()
    assert lines[1] == "set_id,paper_id,citations,pct_quantile,pct_lb09"
    assert len(lines) == 12
    payload = json.loads(emit_paper_percentiles(table, (QUANTILE,), fmt="json"))
    assert payload["papers"][0]["paper_id"] == "a1"
    assert payload["papers"][0]["percentiles"]["quantile"] == 0.0


# --- per-paper table by column ------------------------------------------------

# Ids carry commas, quotes, line breaks and padding, and are numbered so that paper_id order
# differs from set order; some are wider than their column's header.
paper_rows = st.lists(
    st.tuples(
        st.sampled_from(["B", "A", 'C,"q"', "D\rx", " E ", "a-set-wider-than-its-header"]),
        st.sampled_from(["", ",", '"', 'x"y,z', "\n", "\r", " s ", "-a-paper-wider-than-its-header"]),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(["article", "review"]),
    ),
    min_size=1,
    max_size=30,
)

@settings(deadline=None)
@given(rows=paper_rows)
def test_paper_table_matches_the_oracle_in_every_scope_and_format(rows):
    table = CitationTable(*zip(*[
        (set_id, f"{len(rows) - i:02d}{suffix}", count, doc_type)
        for i, (set_id, suffix, count, doc_type) in enumerate(rows)
    ]))
    rules = tuple(PercentileRule)
    tokens = [rule.token for rule in rules]
    header = ["set_id", "paper_id", "citations"] + [f"pct_{token}" for token in tokens]
    for scope in ReferenceScope:
        # (set_id, paper_id, citations, {rule: exact percentile rounded once}) in (set_id, paper_id) order
        exact = exact_percentiles(table, scope)
        expected = [
            (set_id, paper_id, citations, {rule: float(exact[paper_id][rule.token]) for rule in rules})
            for set_id, paper_id, citations, _ in sorted(table_rows(table))
        ]
        cells = [
            [set_id, paper_id, str(count)] + [f"{values[rule]:.6f}" for rule in rules]
            for set_id, paper_id, count, values in expected
        ]

        delimited = emit_paper_percentiles(table, rules, scope, "delimited")
        leader, body = delimited.split("\n", 1)
        assert leader == "# citerank-i3 0.1.0"
        assert list(csv.reader(io.StringIO(body, newline=""))) == [header] + cells

        payload = json.loads(emit_paper_percentiles(table, rules, scope, "json"))
        assert payload["rules"] == tokens and payload["scope"] == scope.token
        assert payload["papers"] == [
            {
                "set_id": set_id,
                "paper_id": paper_id,
                "citations": count,
                "percentiles": {rule.token: value for rule, value in values.items()},
            }
            for set_id, paper_id, count, values in expected
        ]

        # ids with line breaks break aligned lines, so the whole text is compared
        widths = [max(len(row[i]) for row in [header] + cells) for i in range(len(header))]
        lines = [f"citerank-i3 0.1.0 paper percentiles (scope: {scope.token})", ""]
        for row in [header] + cells:
            padded = [row[0].ljust(widths[0])] + [cell.rjust(widths[i]) for i, cell in enumerate(row) if i]
            lines.append("  ".join(padded).rstrip())
        assert emit_paper_percentiles(table, rules, scope, "aligned") == "\n".join(lines) + "\n"


def _paper_json_reference(table, rules, scope):
    """The per-paper json document as one dict: papers in (set_id, paper_id) order, percentiles by rule token."""
    tokens = [rule.token for rule in rules]
    entries = [compute_percentiles(table, rule, scope).entries for rule in rules]
    papers = [
        {"set_id": set_id, "paper_id": paper_id, "citations": count,
         "percentiles": dict(zip(tokens, [values[paper_id] for values in entries]))}
        for set_id, paper_id, count, _ in sorted(table_rows(table))
    ]
    return {"version": __version__, "rules": tokens, "scope": scope.token, "papers": papers}


# Ids that json escapes: quotes, backslashes, control characters and non-ASCII text.
_escaped_ids = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\té\u2028☃\U0001f600'), min_size=1, max_size=4)


@settings(deadline=None)
@given(
    rows=st.lists(
        st.tuples(_escaped_ids | st.text(min_size=1, max_size=4), _escaped_ids | st.text(min_size=1, max_size=4),
                  st.integers(min_value=0, max_value=2**70), st.sampled_from(["article", 'ré"view'])),
        min_size=1, max_size=20, unique_by=lambda row: row[1],
    ),
    rules=st.lists(st.sampled_from(list(PercentileRule)), min_size=1, max_size=6),
    scope=st.sampled_from(list(ReferenceScope)),
)
def test_paper_json_equals_the_dict_payload_reference(rows, rules, scope):
    table = CitationTable(*zip(*rows))
    expected = json.dumps(_paper_json_reference(table, rules, scope), indent=2) + "\n"
    assert emit_paper_percentiles(table, rules, scope, "json") == expected


def test_paper_table_duplicate_id_error_unchanged():
    # the duplicate is reported when the table is built, before any scope can miss the doc_type of p2
    with pytest.raises(ValueError, match=r"^duplicate paper_id 'p1'$"):
        CitationTable(["A", "A", "B"], ["p1", "p2", "p1"], [1, 2, 3], ["article", None, "article"])


def test_paper_table_needs_a_rule():
    table = _table(TWO_SET_CSV)
    for fmt in ("delimited", "aligned", "json"):
        with pytest.raises(ValueError, match=r"^at least one rule required$"):
            emit_paper_percentiles(table, (), ReferenceScope.PER_SET, fmt)
    with pytest.raises(ValueError, match="unknown format"):  # the format is checked first
        emit_paper_percentiles(table, (), ReferenceScope.PER_SET, "yaml")


@pytest.mark.parametrize("scope", [ReferenceScope.PER_DOC_TYPE_POOL, ReferenceScope.PER_SET_AND_DOC_TYPE])
def test_paper_table_missing_doc_type_error_unchanged(scope):
    table = CitationTable(["A", "A", "B"], ["p1", "p2", "p3"], [1, 2, 3], ["article", None, None])
    message = rf"^record 'p2' has no doc_type, required by scope '{scope.token}'$"
    with pytest.raises(ValueError, match=message):
        emit_paper_percentiles(table, (QUANTILE,), scope)
    with pytest.raises(ValueError, match=message):
        run_analysis(table, scope=scope)


def _count_tallies(monkeypatch):
    return spy(monkeypatch, data_pipeline, "compute_percentiles", note=lambda records, rule, scope: rule)


def test_run_analysis_tallies_once_per_rule(monkeypatch):
    calls = _count_tallies(monkeypatch)
    rules = tuple(PercentileRule)
    report = run_analysis(_table(TWO_SET_CSV), rules=rules, schemes=(P100, NSF6, TOP10))
    assert calls == list(rules)
    assert len(report.rows) == 2


def test_run_analysis_computes_a_repeated_rule_once(monkeypatch):
    table = load_records(fixture_path("reviews10.csv"))
    single = emit_ranking_table(run_analysis(table, rules=(QUANTILE,), schemes=(P100, NSF6)))
    calls = _count_tallies(monkeypatch)
    report = run_analysis(table, rules=(QUANTILE, QUANTILE, QUANTILE), schemes=(P100, NSF6))
    assert calls == [QUANTILE]
    assert report.rules == (QUANTILE, QUANTILE, QUANTILE)
    # each line holds the single-rule line's four pI3/rank cells three times over
    expected = []
    for line in single.splitlines():
        cells = line.split(",")
        expected.append(",".join(cells[:3] + cells[3:7] * 3 + cells[7:]) if len(cells) > 1 else line)
    assert emit_ranking_table(report).splitlines() == expected


def test_run_analysis_computes_a_repeated_scheme_once(monkeypatch):
    table = load_records(fixture_path("reviews10.csv"))
    single = run_analysis(table, rules=(QUANTILE,), schemes=(P100,))
    calls = spy(monkeypatch, data_pipeline, "i3", note=lambda assignment, scheme, set_id: (scheme, set_id))
    report = run_analysis(table, rules=(QUANTILE,), schemes=(P100, P100))
    assert calls == [(P100, "reviews")]
    assert report.rows == single.rows and report.schemes == (P100, P100)


@pytest.mark.parametrize("fmt", ["delimited", "aligned", "json"])
def test_paper_table_tallies_once_per_rule(monkeypatch, fmt):
    calls = _count_tallies(monkeypatch)
    rules = (PercentileRule.LB09, QUANTILE, PercentileRule.ROUSSEAU_REVISED)
    emit_paper_percentiles(_table(TWO_SET_CSV), rules, ReferenceScope.PER_SET, fmt)
    assert calls == list(rules)


def test_paper_table_computes_a_repeated_rule_once(monkeypatch):
    table = load_records(fixture_path("reviews10.csv"))
    single = emit_paper_percentiles(table, (QUANTILE,))
    calls = _count_tallies(monkeypatch)
    for fmt in ("delimited", "aligned", "json"):
        emit_paper_percentiles(table, (QUANTILE,) * 3, fmt=fmt)
    assert calls == [QUANTILE] * 3
    # each line holds the single-rule line's percentile cell three times over
    lines = [line + line[line.rindex(","):] * 2 if "," in line else line for line in single.splitlines()]
    assert emit_paper_percentiles(table, (QUANTILE,) * 3).splitlines() == lines


@pytest.mark.parametrize("scope", [ReferenceScope.GLOBAL_POOL, ReferenceScope.PER_SET_AND_DOC_TYPE])
@pytest.mark.parametrize("fmt", ["delimited", "aligned", "json"])
def test_paper_table_peaks_below_twice_its_text(scope, fmt):
    # The text is joined once from pieces, most of them shared between papers: no string per line,
    # and no copy of the whole text. The text is ASCII, so its length is its size in bytes.
    rng = random.Random(24)
    n = 20_000
    table = CitationTable(
        [f"S{rng.randrange(20):02d}" for _ in range(n)], [f"P{i:06d}" for i in range(n)],
        [rng.randrange(10) for _ in range(n)], [rng.choice(("article", "review", "letter")) for _ in range(n)],
    )
    compute_percentiles(table, QUANTILE, scope)  # the tally is memoized on the table before tracing starts
    tracemalloc.start()
    try:
        text = emit_paper_percentiles(table, tuple(PercentileRule), scope, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text)


# --- malformed input never escapes as anything but ValueError ---------------------

def test_parse_reports_csv_module_errors_as_value_errors():
    huge = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(ValueError, match="malformed CSV at line 2 of inline: field larger"):
        _table(f"set_id,paper_id,citations\nA,{huge},1\n")


def test_parse_names_the_line_of_a_header_that_csv_cannot_read():
    with pytest.raises(ValueError, match="^malformed CSV at line 1 of inline: field larger"):
        _table(f"set_id,paper_id,citations,{'x' * (csv.field_size_limit() + 1)}\nA,p1,1\n")


def test_parse_pauses_gc_and_leaves_it_as_the_caller_had_it(monkeypatch):
    during = spy(monkeypatch, data_pipeline, "_parse_rows", note=lambda reader, source: gc.isenabled())
    malformed = f"set_id,paper_id,citations\nA,{'x' * (csv.field_size_limit() + 1)},1\n"
    assert gc.isenabled()
    _table(TWO_SET_CSV)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="malformed CSV"):
        _table(malformed)
    assert gc.isenabled()
    gc.disable()
    try:
        _table(TWO_SET_CSV)
        assert not gc.isenabled()
        with pytest.raises(ValueError, match="malformed CSV"):
            _table(malformed)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert during == [False] * 4


csv_text = st.one_of(
    st.text(),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["set_id,paper_id,citations\n", "\ufeffset_id,paper_id,citations,doc_type\r\n",
                             "citations, set_id ,paper_id\n", "set_id,set_id,paper_id,citations\n"]),
            st.text(alphabet=st.sampled_from('AB,"\r\n 0123456789-+_\x00\ufeff\uff15.x'), max_size=80),
        ),
    ),
)


@given(text=csv_text, newline=st.sampled_from([None, ""]))
def test_parse_records_fuzz_loads_or_raises_value_error(text, newline):
    # a stream opened without newline="" leaves a lone "\r" inside a line, which csv rejects
    try:
        table = parse_records(io.StringIO(text, newline=newline))
    except ValueError:
        return
    assert all(count >= 0 and paper_id for _, paper_id, count, _ in table_rows(table))


# --- chunked parse: errors name the same row whatever the chunk size ---------------

def _outcome(text: str, newline, chunk_rows: int):
    """The parsed table's rows, or the error message, with ``CHUNK_ROWS`` set to ``chunk_rows``."""
    saved = data_pipeline.CHUNK_ROWS
    data_pipeline.CHUNK_ROWS = chunk_rows
    try:
        return table_rows(parse_records(io.StringIO(text, newline=newline)))
    except ValueError as exc:
        return str(exc)
    finally:
        data_pipeline.CHUNK_ROWS = saved


@given(text=csv_text, newline=st.sampled_from([None, ""]), chunk_rows=st.integers(min_value=1, max_value=3))
def test_parse_in_small_chunks_matches_one_chunk(text, newline, chunk_rows):
    assert _outcome(text, newline, chunk_rows) == _outcome(text, newline, 10**6)


_HUGE = "x" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "body,message",
    [
        # blank rows count as rows; the duplicate's first row is two chunks back
        ("\nA,p1,1\nA,p2,2\n\nB,p1,4\n", "duplicate paper_id 'p1' at rows 3 and 6"),
        # the first bad row wins over a worse one in a later chunk
        ("A,p1,1\nA,p2,-2\nA,p3,1\nA,p1,x\n", "negative citations at row 3"),
        ("A,p1,1\nA,p2,2\nA,p3\n", "too few columns at row 4"),
        # a bad row before a line the csv module cannot read is reported first
        (f"A,p1,1\nA,p2,1\nA,p3,-1\nA,{_HUGE},1\n", "negative citations at row 4"),
        (f"A,p1,1\nA,p2,1\nA,p3,1\nA,{_HUGE},1\n", "malformed CSV at line 5 of inline: field larger .*"),
        # a paper_id repeated across chunks before a line the csv module cannot read is reported first
        (f"A,p1,1\nA,p2,1\nA,p1,1\nA,{_HUGE},1\n", "duplicate paper_id 'p1' at rows 2 and 4"),
        # row order decides: a negative count comes before a later repeat in its chunk, of a row there or earlier
        ("A,p1,1\nA,p2,1\nA,p3,-1\nA,p3,1\n", "negative citations at row 4"),
        ("A,p1,1\nA,p2,1\nA,p3,-1\nA,p1,1\n", "negative citations at row 4"),
    ],
)
def test_parse_errors_name_rows_across_chunks(monkeypatch, body, message):
    monkeypatch.setattr(data_pipeline, "CHUNK_ROWS", 2)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        _table("set_id,paper_id,citations\n" + body)


def test_parse_chunks_join_in_row_order(monkeypatch):
    monkeypatch.setattr(data_pipeline, "CHUNK_ROWS", 2)
    table = _table("set_id,paper_id,citations,doc_type\nA,p1,1,x\n\nB,p2,2\nA,p3,3, y \nC,p4,0,\n")
    assert table_rows(table) == [
        ("A", "p1", 1, "x"),
        ("B", "p2", 2, None),
        ("A", "p3", 3, "y"),
        ("C", "p4", 0, None),
    ]


def test_parse_builds_one_table_whatever_the_chunk_count(monkeypatch):
    built = spy(monkeypatch, CitationTable, "__init__", note=lambda table, *args, **kwargs: table)
    monkeypatch.setattr(data_pipeline, "CHUNK_ROWS", 2)
    table = _table("set_id,paper_id,citations\n\nA,p1,1\nA,p2,2\n\n\nB,p3,3\nB,p4,4\n\nB,p5,5\nC,p6,6\nC,p7,0\n")
    assert built == [table]
    assert table.paper_ids == tuple(f"p{i}" for i in range(1, 8))


# --- chunked parse against a reference parse that reads one row at a time ----------

_REFERENCE_COLUMNS = ("set_id", "paper_id", "citations")


def _reference_parse(text: str, newline) -> list[tuple] | str:
    """The (set_id, paper_id, citations, doc_type) rows of ``text``, or the text of its first error.

    Written from the documented format, one row at a time, and sharing no code with the package.
    """
    reader = csv.reader(io.StringIO(text, newline=newline))
    try:
        header = next(reader, None)
        if header is None:
            return "empty input: <stream>"
        if header and header[0].startswith("\ufeff"):
            header[0] = header[0][1:]
        names = [cell.strip() for cell in header]
        for name in _REFERENCE_COLUMNS:
            if name not in names:
                return f"missing required column {name!r}"
        for name in (*_REFERENCE_COLUMNS, "doc_type"):
            if names.count(name) > 1:
                return f"column {name!r} appears more than once in the header"
        at = {name: names.index(name) for name in (*_REFERENCE_COLUMNS, "doc_type") if name in names}
        width = 1 + max(at[name] for name in _REFERENCE_COLUMNS)
        rows = []
        first_row: dict[str, int] = {}
        for number, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) < width:
                return f"too few columns at row {number}"
            set_id, paper_id, raw = (cells[at[name]].strip() for name in _REFERENCE_COLUMNS)
            if not set_id:
                return f"empty set_id at row {number}"
            if not paper_id:
                return f"empty paper_id at row {number}"
            if re.fullmatch(r"[+-]?[0-9]+", raw) is None:
                return f"non-integer citations {raw!r} at row {number}"
            try:
                citations = int(raw)
            except ValueError:
                return f"citation count at row {number} has too many digits"
            if citations < 0:
                return f"negative citations at row {number}"
            if paper_id in first_row:
                return f"duplicate paper_id {paper_id!r} at rows {first_row[paper_id]} and {number}"
            first_row[paper_id] = number
            doc_type = ""
            if "doc_type" in at and len(cells) > at["doc_type"]:
                doc_type = cells[at["doc_type"]].strip()
            rows.append((set_id, paper_id, citations, doc_type or None))
        return rows or "empty input: <stream>"
    except csv.Error as exc:
        return f"malformed CSV at line {reader.line_num} of <stream>: {exc}"


@st.composite
def chunked_csv(draw) -> str:
    """A header, then runs of blank lines, rows that may repeat an earlier paper_id, and malformed rows.

    At one to three rows per chunk, a run of blank lines fills whole chunks, a repeated paper_id
    is often first seen chunks earlier, and a negative count can sit chunks before a malformed row.
    """
    lines = [draw(st.sampled_from(["set_id,paper_id,citations", "set_id,paper_id,citations,doc_type"]))]
    paper_ids: list[str] = []
    for kind in draw(st.lists(st.sampled_from(["blanks", "new", "new", "repeat", "malformed"]), max_size=14)):
        if kind == "blanks":
            lines += [""] * draw(st.integers(min_value=1, max_value=4))
        elif kind == "malformed":
            lines.append(draw(st.sampled_from(["A", "A,q", ",q,1", "A, ,1", "A,q,x", "A,q,1_0", "A,q,", "A,q,--1"])))
        else:
            paper_id = draw(st.sampled_from(paper_ids)) if kind == "repeat" and paper_ids else f"p{len(paper_ids)}"
            paper_ids.append(paper_id)
            count = draw(st.sampled_from(["0", "7", " 12 ", "+3", "-1", "-0"]))
            doc_type = draw(st.sampled_from(["", ",art", ", rev ", ","]))
            lines.append(f"{draw(st.sampled_from('AB'))},{paper_id},{count}{doc_type}")
    return "\n".join(lines) + "\n"


@given(
    text=st.one_of(csv_text, chunked_csv()),
    newline=st.sampled_from([None, ""]),
    chunk_rows=st.sampled_from([1, 2, 3, data_pipeline.CHUNK_ROWS]),
)
# a negative count in the first chunk wins over a malformed row in a later one
@example(text="set_id,paper_id,citations\nA,p0,-1\nA,p1,1\nA,p2,x\n", newline=None, chunk_rows=2)
# two chunks of blank lines between a paper_id and its repeat
@example(text="set_id,paper_id,citations\nA,p0,1\n\n\n\n\nB,p0,2\n", newline=None, chunk_rows=2)
def test_parse_in_chunks_matches_the_reference_parse(text, newline, chunk_rows):
    assert _outcome(text, newline, chunk_rows) == _reference_parse(text, newline)


# --- the split path: quote-free blocks split once, against the csv.reader-only reference ---

# every character str.strip removes that a line may hold: the ASCII ones and some non-ASCII spaces
_STRIPPED = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000"


@st.composite
def split_path_csv(draw) -> str:
    """CSV text, its columns in any order, whose lines mostly have the header's width and no quote; some break one rule.

    Cells carry strip characters around their values, line ends are LF or CRLF (mixed when drawn),
    and a line may be blank, one cell wider or shorter than the header, hold a ``"``, a NUL or a
    lone ``\\r``, or quote a cell. The last line may end without a line end.
    """
    names = ["set_id", "paper_id", "citations", *draw(st.sampled_from([[], ["doc_type"], ["doc_type", "note"]]))]
    header = draw(st.permutations(names))
    values = {
        "set_id": st.sampled_from(["A", "B", "", "a b"]),
        "paper_id": st.integers(0, 15).map(lambda number: f"p{number}") | st.just(""),
        "citations": st.sampled_from(["0", "7", "12", "+3", "-1", "-0", "x", "1_0", ""]),
        "doc_type": st.sampled_from(["art", "rev", ""]),
        "note": st.sampled_from(["", "n"]),
    }
    padding = st.text(alphabet=st.sampled_from(_STRIPPED), max_size=2)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = st.sampled_from([end, end, end, "\r\n" if end == "\n" else "\n"]) if draw(st.booleans()) else st.just(end)
    lines = [",".join(header) + draw(ends)]
    kinds = st.sampled_from(["row"] * 8 + ["blank", "wider", "shorter", "fault", "quoted"])
    for kind in draw(st.lists(kinds, max_size=12)):
        cells = [draw(padding) + draw(values[name]) + draw(padding) for name in header]
        column = draw(st.integers(0, len(cells) - 1))
        if kind == "blank":
            cells = []
        elif kind == "wider":
            cells.append(draw(values["note"]))
        elif kind == "shorter":
            cells.pop()
        elif kind == "fault":
            at = draw(st.integers(0, len(cells[column])))
            cells[column] = cells[column][:at] + draw(st.sampled_from(['"', "\0", "\r"])) + cells[column][at:]
        elif kind == "quoted":
            cells[column] = f'"{cells[column]}"'
        lines.append(",".join(cells) + draw(ends))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


# a stream opened with newline="\n" leaves a lone "\r" inside its line, where csv rejects it; one opened
# with newline="\r" ends a CRLF line at its "\r", and starts the next line with its "\n"
@settings(deadline=None)
@given(text=split_path_csv(), newline=st.sampled_from([None, "", "\n", "\r", "\r\n"]), chunk_rows=st.integers(1, 4))
@example(text="set_id,paper_id,citations\r\nA,p1,1\r\nA,p2,2\r\n", newline="", chunk_rows=1)
# a paper_id or set_id in the last column ends in its line's "\n", stripped though the block has no space
@example(text="citations,set_id,paper_id\n1,A,p1\n2,B,p2\n", newline=None, chunk_rows=2)
@example(text="paper_id,citations,set_id\r\np1,1,A\r\np2,2,B\r\n", newline="", chunk_rows=2)
@example(text="set_id,paper_id,citations\rA,p1,1\r\nB,p2,2", newline="\r", chunk_rows=2)
@example(text="set_id,paper_id,citations\nA,p1,1\nA,p2\rB,p3,2\n", newline="", chunk_rows=2)
@example(text="set_id,paper_id,citations\nA,p1\r2,1\nA,p3,3\n", newline="\n", chunk_rows=2)
@example(text="set_id,paper_id,citations,doc_type\nA,p1,1,art\nA,p2,2,rev,n\nA,p3,3\n", newline=None, chunk_rows=4)
# as many cells as two lines of the header's width, but one line is wider and the other shorter
@example(text="set_id,paper_id,citations,doc_type\nS1,7,3,article,9\n8,4,2\n", newline=None, chunk_rows=2)
@example(text="set_id,paper_id,citations\nA,p1,1,B,p2,2\n", newline=None, chunk_rows=1)  # twice the width
@example(text='set_id,paper_id,citations\nA,"p1",1\n', newline=None, chunk_rows=1)
@example(text="set_id,paper_id,citations\nA, p1\u3000,\x1c1\x85\nB,p2,2\n", newline=None, chunk_rows=1)
@example(text="set_id,paper_id,citations\nA,p1\xa0,1\n", newline=None, chunk_rows=1)
def test_split_path_matches_the_csv_reader_reference(text, newline, chunk_rows):
    assert _outcome(text, newline, chunk_rows) == _reference_parse(text, newline)


@pytest.mark.parametrize("space", " \t\x0b\x0c\x1c\x1d\x1e\x1f")
def test_an_ascii_block_with_a_character_that_str_strip_removes_is_stripped(space):
    text = f"set_id,paper_id,citations,doc_type\n{space}A{space},{space}p1{space},1,art\n"
    assert _outcome(text, None, 1) == _reference_parse(text, None) == [("A", "p1", 1, "art")]


def _csv_readers(monkeypatch):
    """One ``None`` per ``csv.reader`` made from here on."""
    return spy(monkeypatch, data_pipeline.csv, "reader", note=lambda lines: None)


def test_a_quote_free_input_is_read_by_csv_only_for_its_header(monkeypatch):
    monkeypatch.setattr(data_pipeline, "CHUNK_ROWS", 2)
    readers = _csv_readers(monkeypatch)
    table = _table("set_id,paper_id,citations,doc_type\r\n" + "".join(f"S,p{i},{i}, art\r\n" for i in range(7)))
    assert len(readers) == 1
    assert table.citations == tuple(range(7)) and set(table.doc_types) == {"art"}


@pytest.mark.parametrize("row", ['A,"p,4",4', "A,p4", "", "A,p4,4,extra", "A,p4\r,4", "A,p4,x"])
def test_from_a_block_that_the_split_cannot_read_csv_reads_the_rest(monkeypatch, row):
    text = "set_id,paper_id,citations\n" + "".join(f"A,p{i},{i}\n" for i in range(4)) + row + "\nA,p5,5\nA,p6,6\n"
    expected = _reference_parse(text, "")
    readers = _csv_readers(monkeypatch)
    splits = spy(monkeypatch, data_pipeline, "_extend_split", note=lambda columns, lines, *rest: len(lines))
    assert _outcome(text, "", 2) == expected
    # one reader for the header, one from the block that holds the row to the end
    assert len(readers) == 2
    # the two blocks before the row, and the row's own; the block after it is not tried
    assert splits == [2, 2, 2]


def test_a_line_that_holds_a_newline_goes_through_csv():
    # a stream that ends its lines only at "\r" leaves each "\n" inside a line, where csv rejects it
    with pytest.raises(ValueError, match="^malformed CSV at line 2 of <stream>: new-line character seen"):
        parse_records(io.TextIOWrapper(io.BytesIO(b"set_id,paper_id,citations\rA\np1\n1\n"), newline="\r"))
    # its "\n" counts one per line, and its "\r" one per "\r\n", yet the last line starts with the "\n"
    with pytest.raises(ValueError, match="^malformed CSV at line 3 of <stream>: new-line character seen"):
        parse_records(io.TextIOWrapper(io.BytesIO(b"set_id,paper_id,citations\rA,p1,1\r\nB,p2,2"), newline="\r"))


def test_a_quoted_cell_across_blocks_is_read_whole(monkeypatch):
    monkeypatch.setattr(data_pipeline, "CHUNK_ROWS", 2)
    text = 'set_id,paper_id,citations\nA,p1,1\nA,"p\n2\n",2\nA,p3,3\nA,p4,4\n'
    assert table_rows(_table(text))[1:] == [("A", "p\n2", 2, None), ("A", "p3", 3, None), ("A", "p4", 4, None)]


@given(cell=st.text(alphabet=st.sampled_from("0123456789+-_ .ex\t\x1c\xa0٣５"), max_size=8))
def test_bulk_citation_check_accepts_exactly_signed_ascii_digits(cell):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([["set_id", "paper_id", "citations"], ["A", "p1", "1"],
                                                        ["A", "p2", cell]])
    stripped = cell.strip()
    valid = re.fullmatch(r"[+-]?[0-9]+", stripped) is not None and int(stripped) >= 0
    try:
        records = _table(buffer.getvalue())
    except ValueError as exc:
        assert not valid and "at row 3" in str(exc)
    else:
        assert valid and records.citations == (1, int(stripped))
