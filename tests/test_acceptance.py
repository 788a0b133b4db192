"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import random
import time

from citerank import (
    NSF6,
    P100,
    TOP10,
    CitationTable,
    PercentileRule,
    ReferenceScope,
    class_histogram,
    compute_percentiles,
    emit_ranking_table,
    fixture_path,
    i3,
    load_experiment_config,
    parse_ranking_table,
    percent_i3,
    percentile_of,
    run_analysis,
    run_divergence_experiment,
    ztest_proportions,
)
from conftest import make_table, oracle_entries

QUANTILE = PercentileRule.QUANTILE
LB09 = PercentileRule.LB09
RAW = PercentileRule.ROUSSEAU_RAW
REVISED = PercentileRule.ROUSSEAU_REVISED


def check(num: int, description: str, condition: bool) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {num}] {status}: {description}")
    assert condition, f"criterion {num} failed: {description}"


def _records(counts, set_id="A", prefix="p"):
    return make_table(counts, set_id, prefix=f"{set_id}_{prefix}")


def test_criterion_1_ten_item_micro_example():
    group = list(range(10))
    start = time.perf_counter()
    quantile = percentile_of(9, group, QUANTILE)
    lb09 = percentile_of(9, group, LB09)
    raw = percentile_of(9, group, RAW)
    elapsed = time.perf_counter() - start
    ok = quantile == 90.0 and lb09 == 99.0 and raw == 100.0 and elapsed < 1e-3
    check(1, "10-item set: top percentile exactly 90 / 99 / 100; < 1 ms", ok)


def test_criterion_2_zero_citation_inconsistency():
    records = _records([0] * 9 + [4])
    raw = compute_percentiles(records, RAW, ReferenceScope.PER_SET)
    revised = compute_percentiles(records, REVISED, ReferenceScope.PER_SET)
    uncited = [pid for pid, c in zip(records.paper_ids, records.citations) if c == 0]
    cited = records.paper_ids[-1]
    ok = (
        all(raw.entries[pid] == 90.0 for pid in uncited)
        and all(revised.entries[pid] == 0.0 for pid in uncited)
        and raw.entries[cited] == 100.0
        and revised.entries[cited] == 100.0
    )
    check(2, "nine uncited + one cited: 90.0 raw / 0.0 revised, cited 100.0 under both", ok)


def test_criterion_3_affine_shift_identity():
    rnd = random.Random(33)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = rnd.randint(1, 500)
        counts = [rnd.randint(0, 10_000) for _ in range(n)]
        records = _records(counts)
        quantile = compute_percentiles(records, QUANTILE, ReferenceScope.PER_SET)
        lb09 = compute_percentiles(records, LB09, ReferenceScope.PER_SET)
        shift = 90.0 / n
        for pid, value in quantile.entries.items():
            worst = max(worst, abs(lb09.entries[pid] - value - shift))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    check(3, f"LB09 - QUANTILE = 90/n over 1000 groups (max dev {worst:.2e}); < 5 s", ok)


def test_criterion_4_oracle_equivalence():
    rnd = random.Random(44)
    start = time.perf_counter()
    ok = True
    for trial in range(1000):
        n = rnd.randint(1, 200)
        spread = rnd.choice([3, 40, 10_000])  # mix heavy ties and near-distinct counts
        counts = [rnd.randint(0, spread) for _ in range(n)]
        records = _records(counts)
        for rule in PercentileRule:
            fast = compute_percentiles(records, rule, ReferenceScope.PER_SET)
            slow = oracle_entries(records, rule)
            if fast.entries != slow:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    check(4, f"compute equals the exact Fraction oracle rounded once, 4 rules x 1000 sets ({elapsed:.1f} s); < 10 s", ok)


def test_criterion_5_normalization_and_conservation():
    rnd = random.Random(55)
    schemes = (P100, NSF6, TOP10)
    start = time.perf_counter()
    ok = True
    for _ in range(40):
        parts = []
        n_sets = rnd.randint(2, 6)
        for s in range(n_sets):
            counts = [rnd.randint(0, 50) for _ in range(rnd.randint(1, 60))]
            parts.append(_records(counts, set_id=f"S{s}"))
        # keep the pool non-degenerate: at least one cited paper, two distinct counts
        parts.append(_records([0, 7], set_id="S0", prefix="guard"))
        records = CitationTable.concat(parts)
        set_ids = sorted(set(records.set_ids))
        sizes = {s: records.set_ids.count(s) for s in set_ids}
        for rule in PercentileRule:
            assignment = compute_percentiles(records, rule, ReferenceScope.GLOBAL_POOL)
            for scheme in schemes:
                shares = percent_i3({s: i3(assignment, scheme, s) for s in set_ids})
                if abs(math.fsum(shares.values()) - 100.0) > 1e-9:
                    ok = False
            for s in set_ids:
                if sum(class_histogram(assignment, NSF6, s)) != sizes[s]:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    check(5, "%I3 sums to 100 +/- 1e-9 per scheme; NSF6 histograms conserve set sizes; < 5 s", ok)


def test_criterion_6_correlation_reproduction():
    start = time.perf_counter()
    config = load_experiment_config(fixture_path("divergence_65sets.json"))
    result = run_divergence_experiment(config.sets, config.rules, config.scheme, config.scope)
    tokens = [rule.token for rule in result.rules]
    iq, il, ir = tokens.index("quantile"), tokens.index("lb09"), tokens.index("rousseau-raw")
    ok_65 = result.pearson[iq][il] >= 0.999

    high = load_experiment_config(fixture_path("divergence_high_uncited.json"))
    high_result = run_divergence_experiment(high.sets, high.rules, high.scheme, high.scope)
    q_lb09 = high_result.pearson[iq][il]
    q_raw = high_result.pearson[iq][ir]
    ok_flip = (
        q_raw < q_lb09
        and high_result.top_set["quantile"] != high_result.top_set["rousseau-raw"]
    )
    elapsed = time.perf_counter() - start
    ok = ok_65 and ok_flip and elapsed < 10.0
    check(
        6,
        f"65-set Pearson(Q,LB09)={result.pearson[iq][il]:.6f} >= 0.999; "
        f"high-uncited Pearson(Q,RAW)={q_raw:.3f} < Pearson(Q,LB09)={q_lb09:.6f} "
        "and top sets differ; < 10 s",
        ok,
    )


def test_criterion_7_ztest():
    result = ztest_proportions(20, 100, 10, 100)
    ok = abs(result.z - 1.9803) <= 1e-3 and abs(result.p_two_sided - 0.0477) <= 1e-3

    rnd = random.Random(77)
    trials = 0
    while trials < 1000:
        n1, n2 = rnd.randint(1, 1000), rnd.randint(1, 1000)
        k1, k2 = rnd.randint(0, n1), rnd.randint(0, n2)
        if k1 + k2 == 0 or k1 + k2 == n1 + n2:
            continue
        trials += 1
        if ztest_proportions(k1, n1, k2, n2).z != -ztest_proportions(k2, n2, k1, n1).z:
            ok = False
            break
    check(7, "z(20/100 vs 10/100) = 1.9803, p = 0.0477 (+/- 1e-3); antisymmetry exact x1000", ok)


def test_criterion_8_determinism_and_round_trip():
    rnd = random.Random(88)
    rows = ["set_id,paper_id,citations"]
    for s in range(5):
        for i in range(rnd.randint(5, 40)):
            rows.append(f"S{s},S{s}_p{i},{rnd.randint(0, 30)}")
    header, body = rows[0], rows[1:]
    rules, schemes = tuple(PercentileRule), (P100, NSF6, TOP10)

    import io

    from citerank import parse_records

    outputs = set()
    baseline_rows = None
    for _ in range(10):
        rnd.shuffle(body)
        text = "\n".join([header] + body) + "\n"
        report = run_analysis(parse_records(io.StringIO(text)), rules=rules, schemes=schemes)
        emitted = emit_ranking_table(report)
        outputs.add(emitted)
        parsed = parse_ranking_table(emitted)
        if baseline_rows is None:
            baseline_rows = parsed
            round_trip_ok = all(
                parsed_row[f"pI3_{key}"] == float(f"{row.percent_i3[key]:.6f}")
                and parsed_row["top_share"] == float(f"{row.top_share:.6f}")
                for parsed_row, row in zip(parsed, report.rows)
                for key in row.percent_i3
            )
    ok = len(outputs) == 1 and baseline_rows is not None and round_trip_ok
    check(8, "shuffled rows emit byte-identical reports; emit->parse exact at 6 decimals", ok)


def test_criterion_9_desk_scale_limits_documented():
    # Real-journal tables, per-journal class distributions, and any named
    # journal's %I3 are intentionally absent: no shipped fixture carries
    # observed citation data, only micro-sets and seeded synthetic configs.
    fixtures = ["reviews10.csv", "divergence_65sets.json", "divergence_high_uncited.json"]
    ok = all(fixture_path(name).exists() for name in fixtures)
    ok = ok and len(_records(range(10), set_id="reviews")) == 10
    check(
        9,
        "no observed-journal data shipped; criteria 1-8 substitute exact micro-fixtures "
        "plus property suites",
        ok,
    )
