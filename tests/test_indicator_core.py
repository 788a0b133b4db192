from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from scipy.stats import percentileofscore
from hypothesis import strategies as st

from citerank import (
    NSF6,
    P100,
    TOP10,
    CitationTable,
    PercentileRule,
    RankClassScheme,
    ReferenceScope,
    class_histogram,
    classify,
    compute_percentiles,
    i3,
    percent_i3,
    percentile_of,
    run_analysis,
    top_count,
    top_share,
)
from citerank.indicator_core import _row_values
from conftest import citation_tables, group_percentiles, make_table, oracle_entries, table_rows

RULES = list(PercentileRule)

TEN = list(range(10))
NINE_ZEROS_ONE_CITED = [0] * 9 + [1]


# --- percentile_of -----------------------------------------------------------

@pytest.mark.parametrize(
    "count,group,rule,expected",
    [
        (9, TEN, PercentileRule.QUANTILE, 90.0),
        (9, TEN, PercentileRule.LB09, 99.0),
        (9, TEN, PercentileRule.ROUSSEAU_RAW, 100.0),
        (0, NINE_ZEROS_ONE_CITED, PercentileRule.ROUSSEAU_RAW, 90.0),
        (0, NINE_ZEROS_ONE_CITED, PercentileRule.ROUSSEAU_REVISED, 0.0),
        (1, NINE_ZEROS_ONE_CITED, PercentileRule.ROUSSEAU_RAW, 100.0),
        (1, NINE_ZEROS_ONE_CITED, PercentileRule.ROUSSEAU_REVISED, 100.0),
        (3, [3, 3, 3, 3, 3], PercentileRule.QUANTILE, 0.0),
        (2, [0, 1, 1, 2, 5], PercentileRule.QUANTILE, 60.0),
        (2, [0, 1, 1, 2, 5], PercentileRule.LB09, 78.0),
        (2, [0, 1, 1, 2, 5], PercentileRule.ROUSSEAU_REVISED, 80.0),
    ],
)
def test_percentile_of_examples(count, group, rule, expected):
    assert percentile_of(count, group, rule) == expected


@pytest.mark.parametrize(
    "rule,count,expected",
    [
        (PercentileRule.QUANTILE, 7, 0.0),
        (PercentileRule.LB09, 7, 90.0),
        (PercentileRule.ROUSSEAU_RAW, 7, 100.0),
        (PercentileRule.ROUSSEAU_REVISED, 7, 100.0),
        (PercentileRule.ROUSSEAU_REVISED, 0, 0.0),
    ],
)
def test_percentile_of_singleton_group(rule, count, expected):
    assert percentile_of(count, [count], rule) == expected


@pytest.mark.parametrize(
    "count,group,message",
    [
        (1, [], "empty reference group"),
        (-1, [-1, 0, 1], "negative citation count"),
        (4, [0, 1, 2], "item not in reference group"),
    ],
    ids=["empty_group", "negative_count", "count_not_in_group"],
)
def test_percentile_of_rejects(count, group, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        percentile_of(count, group, PercentileRule.QUANTILE)


# --- compute_percentiles -----------------------------------------------------

def test_compute_percentiles_worked_set_quantile(worked_set):
    assignment = compute_percentiles(
        worked_set, PercentileRule.QUANTILE, ReferenceScope.PER_SET
    )
    assert assignment.entries == {"a0": 0.0, "a1": 20.0, "a2": 20.0, "a3": 60.0, "a4": 80.0}


def test_compute_percentiles_worked_set_lb09(worked_set):
    assignment = compute_percentiles(worked_set, PercentileRule.LB09, ReferenceScope.PER_SET)
    expected = {"a0": 18.0, "a1": 38.0, "a2": 38.0, "a3": 78.0, "a4": 98.0}
    assert assignment.entries.keys() == expected.keys()
    for paper_id, value in expected.items():
        assert assignment.entries[paper_id] == pytest.approx(value, abs=1e-12)


def test_compute_percentiles_single_record():
    assignment = compute_percentiles(
        make_table([4]), PercentileRule.QUANTILE, ReferenceScope.PER_SET
    )
    assert assignment.entries == {"a0": 0.0}


def test_compute_percentiles_empty_input():
    with pytest.raises(ValueError, match="empty input"):
        compute_percentiles(CitationTable([], [], []), PercentileRule.QUANTILE)


def test_compute_percentiles_duplicate_paper_id():
    with pytest.raises(ValueError, match="duplicate paper_id 'p1'"):
        compute_percentiles(CitationTable(["A", "B"], ["p1", "p1"], [3, 0]), PercentileRule.QUANTILE)


def test_compute_percentiles_missing_doc_type_names_offender():
    records = CitationTable(["A", "A"], ["p1", "p2"], [3, 0], ["article", None])
    with pytest.raises(ValueError, match="'p2'"):
        compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_DOC_TYPE_POOL)


def test_scope_partitions():
    records = CitationTable(*zip(
        ("A", "a1", 0, "article"),
        ("A", "a2", 9, "article"),
        ("A", "a3", 5, "review"),
        ("B", "b1", 9, "article"),
        ("B", "b2", 2, "review"),
    ))
    per_set = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    assert per_set.group_keys == {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B"}
    # a2 is top of 3 in A; b1 is top of 2 in B
    assert per_set.entries["a2"] == pytest.approx(100 * 2 / 3)
    assert per_set.entries["b1"] == 50.0

    pooled = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.GLOBAL_POOL)
    assert set(pooled.group_keys.values()) == {"all"}
    assert pooled.entries["a2"] == pooled.entries["b1"] == 60.0  # tied at 9 of 5

    by_type = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_DOC_TYPE_POOL)
    assert by_type.group_keys["a3"] == "review"
    assert by_type.entries["a3"] == 50.0  # above b2 within the two reviews

    crossed = compute_percentiles(
        records, PercentileRule.QUANTILE, ReferenceScope.PER_SET_AND_DOC_TYPE
    )
    assert crossed.group_keys["a3"] == "A/review"
    assert crossed.entries["a3"] == 0.0  # alone in its group


def test_per_set_and_doc_type_groups_by_the_pair_not_its_joined_label():
    # both pairs join to "a/b/c"; each paper is alone in its group, so scores 0 under quantile
    records = CitationTable(["a/b", "a"], ["p1", "p2"], [0, 5], ["c", "b/c"])
    crossed = compute_percentiles(
        records, PercentileRule.QUANTILE, ReferenceScope.PER_SET_AND_DOC_TYPE
    )
    assert crossed.entries == {"p1": 0.0, "p2": 0.0}
    assert crossed.group_keys == {"p1": "a/b/c", "p2": "a/b/c"}


def test_compute_percentiles_order_independent(worked_set):
    rows = table_rows(worked_set)
    random.Random(7).shuffle(rows)
    shuffled = CitationTable(*zip(*rows))
    for rule in RULES:
        a = compute_percentiles(worked_set, rule, ReferenceScope.PER_SET)
        b = compute_percentiles(shuffled, rule, ReferenceScope.PER_SET)
        assert a.entries == b.entries
        assert a.group_keys == b.group_keys


# --- classify ---------------------------------------------------------------

@pytest.mark.parametrize(
    "percentile,expected",
    [
        (0.0, 1), (49.9, 1), (50.0, 2), (74.9, 2), (75.0, 3), (89.9, 3),
        (90.0, 4), (94.9, 4), (95.0, 5), (98.9, 5), (99.0, 6), (100.0, 6),
    ],
)
def test_classify_nsf6_boundaries(percentile, expected):
    assert classify(percentile, NSF6) == expected


@pytest.mark.parametrize("percentile,expected", [(0.0, 1), (89.99, 1), (90.0, 2), (100.0, 2)])
def test_classify_two_class(percentile, expected):
    assert classify(percentile, TOP10) == expected


def test_classify_two_class_custom_threshold():
    scheme = RankClassScheme.from_token("top25")
    assert classify(74.9, scheme) == 1
    assert classify(75.0, scheme) == 2
    assert scheme.label == "top25"


def test_classify_continuous_passes_value_through():
    assert classify(37.5, P100) == 37.5


@pytest.mark.parametrize("percentile", [-0.1, 100.1, 1e9])
def test_classify_range_error(percentile):
    with pytest.raises(ValueError, match="outside"):
        classify(percentile, NSF6)


def test_scheme_validation():
    for token in ("top0", "top100"):
        with pytest.raises(ValueError, match=r"outside \(0, 100\)"):
            RankClassScheme.from_token(token)
    with pytest.raises(ValueError, match="unknown scheme"):
        RankClassScheme.from_token("p99")
    assert RankClassScheme.from_token("top10") == TOP10
    assert RankClassScheme.from_token("nsf6") is not None


def test_top_token_threshold_is_the_exact_decimal_bound():
    # 100.0 - 64.1 is 35.900000000000006, which put a quantile of exactly 35.9 in class 1
    scheme = RankClassScheme.from_token("top64.1")
    assert scheme.lower_bounds == (0.0, 35.9) and scheme.label == "top64.1"
    assert classify(_row_values(PercentileRule.QUANTILE, [(359, 359, 1, 1000)])[0], scheme) == 2


def _top_token(millionths: int, leading_zeros: int, trailing_zeros: int) -> str:
    whole, decimals = divmod(millionths, 10**6)
    return f"top{'0' * leading_zeros}{whole}.{decimals:06d}{'0' * trailing_zeros}"


@example(millionths=10, other=12_345_610, leading_zeros=0, trailing_zeros=0)  # top0.00001, top12.34561
@example(millionths=12_345_610, other=12_345_620, leading_zeros=1, trailing_zeros=2)
@given(
    millionths=st.integers(1, 10**8 - 1),
    other=st.integers(1, 10**8 - 1),
    leading_zeros=st.integers(0, 2),
    trailing_zeros=st.integers(0, 2),
)
def test_top_label_is_the_exact_share_and_round_trips(millionths, other, leading_zeros, trailing_zeros):
    # P = millionths / 10**6, written with padding zeros that the label drops
    scheme = RankClassScheme.from_token(_top_token(millionths, leading_zeros, trailing_zeros))
    whole, decimals = divmod(millionths, 10**6)
    fraction_digits = f"{decimals:06d}".rstrip("0")
    assert scheme.label == f"top{whole}" + (f".{fraction_digits}" if fraction_digits else "")
    assert RankClassScheme.from_token(scheme.label) == scheme
    share = Fraction(millionths, 10**6)
    assert scheme.lower_bounds == (0.0, float(100 - share))
    other_label = RankClassScheme.from_token(_top_token(other, 0, 0)).label
    assert (other_label == scheme.label) == (other == millionths)


def test_nsf6_bounds_partition_axis():
    bounds = NSF6.lower_bounds
    assert len(bounds) == 6
    assert bounds[0] == 0.0
    assert list(bounds) == sorted(bounds)
    # every value lands in exactly one class, and class indices cover 1..6
    seen = {classify(p / 10, NSF6) for p in range(0, 1001)}
    assert seen == {1, 2, 3, 4, 5, 6}


# --- histogram / i3 / percent_i3 / top_share ---------------------------------

@pytest.fixture
def worked_assignment(worked_set):
    return compute_percentiles(worked_set, PercentileRule.QUANTILE, ReferenceScope.PER_SET)


def test_class_histogram_worked_set(worked_assignment):
    assert class_histogram(worked_assignment, NSF6, "A") == [3, 1, 1, 0, 0, 0]


def test_class_histogram_all_bottom():
    records = make_table([5, 5, 5, 5])
    assignment = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    assert class_histogram(assignment, NSF6, "A") == [4, 0, 0, 0, 0, 0]


def test_class_histogram_single_top_item():
    records = make_table([0] * 999 + [50])
    assignment = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    hist = class_histogram(assignment, NSF6, "A")
    assert hist[5] == 1 and sum(hist) == 1000


def test_class_histogram_unknown_set(worked_assignment):
    with pytest.raises(ValueError, match="unknown set_id"):
        class_histogram(worked_assignment, NSF6, "nope")


def test_class_histogram_rejects_continuous(worked_assignment):
    with pytest.raises(ValueError, match="continuous"):
        class_histogram(worked_assignment, P100, "A")


def test_i3_examples(worked_assignment):
    assert i3(worked_assignment, P100, "A") == 180.0
    assert i3(worked_assignment, NSF6, "A") == 8.0


def test_i3_two_class():
    records = make_table([0, 1, 8, 9])
    assignment = compute_percentiles(records, PercentileRule.ROUSSEAU_RAW, ReferenceScope.PER_SET)
    # percentiles 25, 50, 75, 100 -> classes 1, 1, 1, 2
    assert i3(assignment, TOP10, "A") == 5.0


def test_i3_all_zero_percentiles():
    records = make_table([2, 2, 2])
    assignment = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    assert i3(assignment, P100, "A") == 0.0


def test_percent_i3_examples():
    assert percent_i3({"A": 180.0, "B": 20.0}) == {"A": 90.0, "B": 10.0}
    assert percent_i3({"A": 5.0}) == {"A": 100.0}
    assert percent_i3({"A": 1.0, "B": 1.0, "C": 2.0}) == {"A": 25.0, "B": 25.0, "C": 50.0}


def test_percent_i3_degenerate_total():
    with pytest.raises(ValueError, match="degenerate pool"):
        percent_i3({"A": 0.0, "B": 0.0})


def test_percent_i3_rejects_negative():
    with pytest.raises(ValueError, match="negative I3"):
        percent_i3({"A": -1.0, "B": 2.0})


def test_percent_i3_empty():
    with pytest.raises(ValueError, match="no sets"):
        percent_i3({})


def _assignment_with(values):
    """Fake a per-set assignment carrying exactly these percentile values."""
    # distinct counts give every record a tally row of its own, in record order
    records = make_table(range(len(values)))
    assignment = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    assert assignment.tally.row_of == list(range(len(values)))
    return type(assignment)(tuple(values), assignment.tally)


def test_top_share_examples():
    assert top_share(_assignment_with([95.0, 80.0, 92.0, 10.0]), "A") == 0.5
    assert top_share(_assignment_with([10.0, 20.0, 30.0]), "A") == 0.0


def test_top_share_worked_set(worked_assignment):
    assert top_share(worked_assignment, "A", 90.0) == 0.0


def test_top_share_unknown_set(worked_assignment):
    with pytest.raises(ValueError, match="unknown set_id"):
        top_share(worked_assignment, "missing")


# --- oracle -------------------------------------------------------------------

def test_oracle_examples(worked_set):
    oracle = oracle_entries(worked_set, PercentileRule.QUANTILE)
    assert oracle == {"a0": 0.0, "a1": 20.0, "a2": 20.0, "a3": 60.0, "a4": 80.0}
    raw = oracle_entries(make_table([3, 3, 3]), PercentileRule.ROUSSEAU_RAW)
    assert raw == {"a0": 100.0, "a1": 100.0, "a2": 100.0}
    revised = oracle_entries(make_table([0]), PercentileRule.ROUSSEAU_REVISED)
    assert revised == {"a0": 0.0}
    assert group_percentiles([0, 1, 2])[1]["lb09"] == Fraction(190, 3)


@given(group=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=50), data=st.data())
def test_oracle_agrees_with_scipy_percentileofscore_and_percentile_of(group, data):
    # scipy multiplies by a rounded 100/n, so it agrees to within rounding, not bit for bit;
    # percentile_of divides once, so it equals the exact value rounded once
    score = data.draw(st.sampled_from(group))
    exact = group_percentiles(group)[score]
    strict = percentileofscore(group, score, kind="strict")
    weak = percentileofscore(group, score, kind="weak")
    assert float(exact["quantile"]) == pytest.approx(strict, rel=1e-12, abs=1e-12)
    assert float(exact["rousseau-raw"]) == pytest.approx(weak, rel=1e-12, abs=1e-12)
    for rule in RULES:
        assert percentile_of(score, group, rule) == float(exact[rule.token])


@pytest.mark.parametrize("rule", RULES)
def test_oracle_matches_compute_on_random_sets(rule):
    rnd = random.Random(rule.token)
    for _ in range(100):
        counts = [rnd.randint(0, 50) for _ in range(rnd.randint(1, 80))]
        records = make_table(counts)
        fast = compute_percentiles(records, rule, ReferenceScope.PER_SET)
        assert fast.entries == oracle_entries(records, rule)


# --- invariants (property-based) ----------------------------------------------

count_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60)


@given(counts=count_lists, rule=st.sampled_from(RULES))
def test_percentiles_in_range(counts, rule):
    assignment = compute_percentiles(make_table(counts), rule, ReferenceScope.PER_SET)
    assert all(0.0 <= value <= 100.0 for value in assignment.entries.values())


@given(counts=count_lists, rule=st.sampled_from(RULES))
def test_equal_counts_equal_percentiles(counts, rule):
    assignment = compute_percentiles(make_table(counts), rule, ReferenceScope.PER_SET)
    by_count = {}
    for i, count in enumerate(counts):
        by_count.setdefault(count, set()).add(assignment.entries[f"a{i}"])
    assert all(len(values) == 1 for values in by_count.values())


@given(counts=count_lists, rule=st.sampled_from(RULES))
def test_monotone_in_citations(counts, rule):
    assignment = compute_percentiles(make_table(counts), rule, ReferenceScope.PER_SET)
    pairs = sorted((count, assignment.entries[f"a{i}"]) for i, count in enumerate(counts))
    for (c_low, p_low), (c_high, p_high) in zip(pairs, pairs[1:]):
        if c_low < c_high:
            if rule is PercentileRule.ROUSSEAU_REVISED:
                assert p_low <= p_high
            else:
                assert p_low < p_high


@given(counts=count_lists)
def test_affine_shift_identity(counts):
    records = make_table(counts)
    quantile = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    lb09 = compute_percentiles(records, PercentileRule.LB09, ReferenceScope.PER_SET)
    shift = 90.0 / len(counts)
    for paper_id in quantile.entries:
        assert lb09.entries[paper_id] - quantile.entries[paper_id] == pytest.approx(
            shift, abs=1e-12
        )


@given(counts=count_lists)
def test_rousseau_raw_top_is_100_and_quantile_bounded(counts):
    records = make_table(counts)
    raw = compute_percentiles(records, PercentileRule.ROUSSEAU_RAW, ReferenceScope.PER_SET)
    top_id = f"a{counts.index(max(counts))}"
    assert raw.entries[top_id] == 100.0
    n = len(counts)
    quantile = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    assert max(quantile.entries.values()) <= 100.0 * (n - 1) / n


@given(counts=count_lists)
def test_rousseau_revised_zero_floor(counts):
    records = make_table(counts)
    raw = compute_percentiles(records, PercentileRule.ROUSSEAU_RAW, ReferenceScope.PER_SET)
    revised = compute_percentiles(records, PercentileRule.ROUSSEAU_REVISED, ReferenceScope.PER_SET)
    for i, count in enumerate(counts):
        paper_id = f"a{i}"
        if count == 0:
            assert revised.entries[paper_id] == 0.0
        else:
            assert revised.entries[paper_id] == raw.entries[paper_id]


@given(counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=60),
       split=st.integers(min_value=1, max_value=59))
def test_i3_additive_over_partitions(counts, split):
    split = min(split, len(counts) - 1)
    records = make_table(counts)
    assignment = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
    whole = i3(assignment, P100, "A")
    values = [assignment.entries[f"a{i}"] for i in range(len(counts))]
    parts = math.fsum(values[:split]) + math.fsum(values[split:])
    assert whole == pytest.approx(parts, abs=1e-9)


@given(
    count_sets=st.lists(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
        min_size=1,
        max_size=6,
    ),
    rule=st.sampled_from(RULES),
)
def test_percent_i3_sums_to_100(count_sets, rule):
    table = CitationTable.concat(
        make_table(counts, set_id=f"S{s}", prefix=f"s{s}_") for s, counts in enumerate(count_sets)
    )
    assignment = compute_percentiles(table, rule, ReferenceScope.GLOBAL_POOL)
    set_ids = sorted(set(table.set_ids))
    totals = {set_id: i3(assignment, P100, set_id) for set_id in set_ids}
    if math.fsum(totals.values()) == 0.0:
        return  # degenerate pool is a documented error case
    shares = percent_i3(totals)
    assert math.fsum(shares.values()) == pytest.approx(100.0, abs=1e-9)


# --- set index and distinct-count tally -----------------------------------------

@given(table=citation_tables())
def test_compute_percentiles_and_set_index_match_brute_force(table):
    for scope in ReferenceScope:
        for rule in RULES:
            assignment = compute_percentiles(table, rule, scope)
            assert assignment.entries == oracle_entries(table, rule, scope)
            for set_id in set(table.set_ids):
                brute = [assignment.entries[paper_id] for s, paper_id in zip(table.set_ids, table.paper_ids)
                         if s == set_id]
                assert sorted(assignment.percentiles_for_set(set_id)) == sorted(brute)
            with pytest.raises(ValueError, match="unknown set_id"):
                assignment.percentiles_for_set("missing")


def test_per_set_and_doc_type_tally_keeps_two_pairs_of_one_label_apart():
    records = CitationTable(["a/b", "a", "a/b"], ["p1", "p2", "p3"], [3, 3, 3], ["c", "b/c", "c"])
    tally = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET_AND_DOC_TYPE).tally
    assert tally.names == ["a/b/c", "a/b/c"]
    # a/b + c holds p1 and p3, tied; a + b/c holds p2 alone
    assert [tally.rows[row] for row in tally.row_of] == [(3, 0, 2, 2), (3, 0, 1, 1), (3, 0, 2, 2)]
    assert sorted(tally.groups) == [0, 1]


# each scope's reference group of a record, from its set_id and doc_type
_GROUP_OF = {
    ReferenceScope.GLOBAL_POOL: lambda set_id, doc_type: (),
    ReferenceScope.PER_SET: lambda set_id, doc_type: (set_id,),
    ReferenceScope.PER_DOC_TYPE_POOL: lambda set_id, doc_type: (doc_type,),
    ReferenceScope.PER_SET_AND_DOC_TYPE: lambda set_id, doc_type: (set_id, doc_type),
}


@given(table=citation_tables(), scope=st.sampled_from(ReferenceScope))
def test_tally_equals_a_counter_reference(table, scope):
    groups = list(map(_GROUP_OF[scope], table.set_ids, table.doc_types))
    sizes = Counter(groups)
    tied = Counter(zip(groups, table.citations))
    assignment = compute_percentiles(table, PercentileRule.QUANTILE, scope)
    tally = assignment.tally
    # each record's row: (count, lower, tied, n) within its reference group
    assert [tally.rows[row] for row in tally.row_of] == [
        (count, sum(k for (other, c), k in tied.items() if other == group and c < count), tied[group, count],
         sizes[group])
        for group, count in zip(groups, table.citations)
    ]
    # one row per distinct (group, count), and one group number per group
    assert len(set(zip(groups, table.citations, tally.row_of))) == len(set(tally.row_of)) == len(tally.rows) == len(tied)
    numbers = [tally.groups[row] for row in tally.row_of]
    assert len(set(zip(groups, numbers))) == len(set(numbers)) == len(tally.names) == len(sizes)
    labels = ["/".join(group) if group else "all" for group in groups]
    assert [tally.names[number] for number in numbers] == labels
    assert assignment.group_keys == dict(zip(table.paper_ids, labels))


# top<P> shares: whole percents, whose bounds meet many k*100/n, and shares with decimals
top_schemes = st.one_of(st.integers(1, 99).map(str), st.integers(1, 10**6 - 1).map(lambda m: f"{m / 10**4}")).map(
    lambda share: RankClassScheme.from_token(f"top{share}")
)


@given(table=citation_tables(), top=top_schemes, data=st.data())
def test_set_aggregates_equal_a_per_paper_reference(table, top, data):
    for scope in ReferenceScope:
        for rule in RULES:
            assignment = compute_percentiles(table, rule, scope)
            # the reference: each paper's exact percentile, rounded once, in table order
            oracle = oracle_entries(table, rule, scope)
            for set_id in sorted(set(table.set_ids)):
                values = [oracle[paper_id] for s, paper_id in zip(table.set_ids, table.paper_ids) if s == set_id]
                assert assignment.percentiles_for_set(set_id) == values
                for scheme in (P100, NSF6, top):
                    weights = [classify(value, scheme) for value in values]
                    assert i3(assignment, scheme, set_id) == math.fsum(weights)
                    if scheme is not P100:
                        bins = len(scheme.lower_bounds)
                        assert class_histogram(assignment, scheme, set_id) == [
                            weights.count(k) for k in range(1, bins + 1)
                        ]
                threshold = data.draw(st.sampled_from([0.0, 90.0, 100.0, *values]))
                assert top_count(assignment, set_id, threshold) == (sum(v >= threshold for v in values), len(values))


@given(table=citation_tables(), rules=st.lists(st.sampled_from(RULES), min_size=1, max_size=6))
def test_report_rows_equal_a_per_record_reference(table, rules):
    # rules in any order, repeats included; the discrete schemes keep every total I3 above zero
    schemes = (NSF6, TOP10)
    keys = list(dict.fromkeys(f"{rule.token}_{scheme.label}" for rule in rules for scheme in schemes))
    for scope in ReferenceScope:
        oracle = oracle_entries(table, rules[0], scope)
        by_set = {}
        for set_id, paper_id, citations, _ in table_rows(table):
            by_set.setdefault(set_id, []).append((citations, oracle[paper_id]))
        weight = {set_id: sum(classify(value, NSF6) for _, value in papers) for set_id, papers in by_set.items()}
        report = run_analysis(table, rules=rules, schemes=schemes, scope=scope)
        assert [row.set_id for row in report.rows] == sorted(by_set, key=lambda set_id: (-weight[set_id], set_id))
        for row in report.rows:
            papers = by_set[row.set_id]
            assert row.n_papers == len(papers)
            assert row.total_citations == sum(count for count, _ in papers)
            assert row.top_share == sum(value >= 90.0 for _, value in papers) / len(papers)
            assert list(row.i3) == list(row.percent_i3) == list(row.rank) == keys


def test_percentiles_for_set_returns_a_fresh_list(worked_assignment):
    values = worked_assignment.percentiles_for_set("A")
    values.append(100.0)
    assert len(worked_assignment.percentiles_for_set("A")) == 5


# --- exact lb09 class bounds ----------------------------------------------------

def test_lb09_on_a_class_bound_is_exactly_on_it():
    # n=21, lower=18: (100 * 18 + 90) / 21 is exactly 90, the nsf6 class-4 and top-10% bound
    records = make_table(range(21))
    fast = compute_percentiles(records, PercentileRule.LB09, ReferenceScope.PER_SET)
    slow = oracle_entries(records, PercentileRule.LB09)
    for entries in (fast.entries, slow):
        assert entries["a18"] == 90.0
        assert classify(entries["a18"], NSF6) == 4
        assert classify(entries["a18"], TOP10) == 2


def test_lb09_classes_exact_for_every_group_up_to_2000():
    # Exhaustive over (n, lower). The exact percentile Fraction(100 * lower + 90, n) reaches
    # a lower bound b from lower = ceil((b * n - 90) / 100) on, so the exact class of
    # `lower` is the number of those first indices at or below it.
    schemes = [(scheme, [Fraction(bound) for bound in scheme.lower_bounds]) for scheme in (NSF6, TOP10)]
    for n in range(1, 2001):
        firsts = [
            (scheme, [max(0, math.ceil((bound * n - 90) / 100)) for bound in bounds])
            for scheme, bounds in schemes
        ]
        values = _row_values(PercentileRule.LB09, [(lower + 1, lower, 1, n) for lower in range(n)])
        for lower, value in enumerate(values):
            for scheme, first in firsts:
                assert classify(value, scheme) == bisect_right(first, lower), (n, lower)


# Exact value of each rule for a paper with `lower` papers below it and `tied` at its count,
# itself included, as a (numerator, denominator) pair; rousseau's paper is uncited when lower is 0.
_EXACT = {
    PercentileRule.QUANTILE: lambda lower, tied, n: (100 * lower, n),
    PercentileRule.LB09: lambda lower, tied, n: (100 * lower + 90, n),
    PercentileRule.ROUSSEAU_RAW: lambda lower, tied, n: (100 * (lower + tied), n),
    PercentileRule.ROUSSEAU_REVISED: lambda lower, tied, n: (100 * (lower + tied) if lower else 0, n),
}


@pytest.mark.parametrize("rule", RULES)
def test_classes_exact_on_every_bound_for_groups_up_to_300(rule):
    # For every (n, lower) and a tie of 1 or of every paper from `lower` up, the exact value
    # v = num / den is checked against the nsf6 and top-10% bounds and against the two top<P>
    # bounds with two decimals next to it: the threshold 100 - P = b / 100 with b = floor(100 v)
    # (equal to v when 100 v is whole) and b + 1. The expected class is decided in integers:
    # v >= b / 100 iff 100 num >= b den.
    tops: dict[int, RankClassScheme] = {}
    fixed = [(scheme, [int(100 * bound) for bound in scheme.lower_bounds]) for scheme in (NSF6, TOP10)]
    for n in range(1, 301):
        for lower in range(n):
            for tied in {1, n - lower}:
                value = _row_values(rule, [(lower, lower, tied, n)])[0]
                num, den = _EXACT[rule](lower, tied, n)
                assert value == num / den, (n, lower, tied)  # int / int is correctly rounded
                for scheme, bounds in fixed:
                    assert classify(value, scheme) == sum(100 * num >= b * den for b in bounds), (n, lower, tied)
                floor_b = 100 * num // den
                for b in (floor_b, floor_b + 1):
                    if 0 < b < 10000:
                        if b not in tops:
                            top = 10000 - b
                            tops[b] = RankClassScheme.from_token(f"top{top // 100}.{top % 100:02d}")
                        expected = 2 if 100 * num >= b * den else 1
                        assert classify(value, tops[b]) == expected, (n, lower, tied, tops[b].label)
