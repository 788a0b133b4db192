"""Independent checks of citerank output, in exact rational arithmetic.

Nothing here imports ``citerank``. Percentiles, rank classes, I3, %I3,
competition ranks and top-share are recomputed with ``fractions.Fraction``
from the citation counts the benchmark generated, spot-checked against
``scipy.stats.percentileofscore``, and compared with the program's printed
cells. Printed cells have 6 decimals, so a cell matches when it lies within
half a unit in the 6th decimal (plus float slack) of the exact value.

Each ``check_*`` function raises :class:`Mismatch` naming the first cell or
property that disagrees.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
from scipy import stats

NSF6_BOUNDS = (50, 75, 90, 95, 99)  # lower-inclusive; class 1 is [0, 50), class 6 is [99, 100]
TOP_SHARE_THRESHOLD = 90
# half a unit in the 6th printed decimal, plus slack for float parsing and float(Fraction)
CELL_TOLERANCE = 0.5e-6 + 1e-9


class Mismatch(AssertionError):
    """The program's output disagrees with the exact computation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def group_percentiles(counts: list[int]) -> dict[int, dict[str, Fraction]]:
    """Exact percentile of every distinct count in one reference group, per rule."""
    n = len(counts)
    tally = Counter(counts)
    result: dict[int, dict[str, Fraction]] = {}
    below = 0
    for value in sorted(tally):
        at_or_below = below + tally[value]
        raw = Fraction(100 * at_or_below, n)
        result[value] = {
            "quantile": Fraction(100 * below, n),
            "lb09": Fraction(100 * (10 * below + 9), 10 * n),
            "rousseau-raw": raw,
            "rousseau": Fraction(0) if value == 0 else raw,
        }
        below = at_or_below
    return result


def spot_check_scipy(counts: list[int], exact: dict[int, dict[str, Fraction]], samples: int = 12) -> None:
    """``kind="strict"`` must match quantile and ``kind="weak"`` rousseau-raw."""
    array = np.asarray(counts)
    distinct = sorted(exact)
    step = max(1, len(distinct) // samples)
    for value in distinct[::step]:
        strict = stats.percentileofscore(array, value, kind="strict")
        weak = stats.percentileofscore(array, value, kind="weak")
        _expect(abs(strict - float(exact[value]["quantile"])) < 1e-9,
                f"oracle quantile {exact[value]['quantile']} != scipy strict {strict} at count {value}")
        _expect(abs(weak - float(exact[value]["rousseau-raw"])) < 1e-9,
                f"oracle rousseau-raw {exact[value]['rousseau-raw']} != scipy weak {weak} at count {value}")


def nsf6_class(percentile: Fraction) -> int:
    return 1 + sum(1 for bound in NSF6_BOUNDS if percentile >= bound)


def group_key(set_id: str, doc_type: str | None, scope: str) -> str:
    """Reference group of a paper under the scopes the workloads use."""
    if scope == "global":
        return ""
    if scope == "per-set":
        return set_id
    if scope == "per-set-and-doc-type":
        return f"{set_id}\x00{doc_type}"
    raise ValueError(f"scope {scope!r} is not checked by this oracle")


def exact_assignment(sets: dict, scope: str) -> dict[str, dict[int, dict[str, Fraction]]]:
    """Exact percentiles of each reference group: group key -> count -> rule -> value.

    The largest group is spot-checked against scipy."""
    groups: dict[str, list[int]] = defaultdict(list)
    for set_id, papers in sets.items():
        for _, count, doc_type in papers:
            groups[group_key(set_id, doc_type, scope)].append(count)
    exact = {key: group_percentiles(counts) for key, counts in groups.items()}
    largest = max(groups, key=lambda key: len(groups[key]))
    spot_check_scipy(groups[largest], exact[largest])
    return exact


def competition_ranks(values: dict[str, Fraction]) -> dict[str, tuple[int, int]]:
    """Exact competition rank of each set as the range a float tie-split may widen it to.

    A set's rank is 1 + the number of sets with a strictly larger exact value.
    The program ranks float %I3 values; two sets whose exact values are equal
    could in principle round apart, so the accepted range runs to the end of
    the set's exact tie block.
    """
    ordered = sorted(values.values(), reverse=True)
    blocks = Counter(values.values())
    ranks = {}
    for set_id, value in values.items():
        first = 1 + sum(1 for other in ordered if other > value)
        ranks[set_id] = (first, first + blocks[value] - 1)
    return ranks


def set_aggregates(sets: dict, scope: str, rules, schemes, exact) -> dict:
    """Exact I3 and %I3 per (rule, scheme) column, and top-share under the first rule."""
    tallies = {
        set_id: Counter((group_key(set_id, d, scope), c) for _, c, d in papers)
        for set_id, papers in sets.items()
    }
    i3: dict[str, dict[str, Fraction]] = {}
    for rule in rules:
        for scheme in schemes:
            column = {}
            for set_id, tally in tallies.items():
                total = Fraction(0)
                for (group, count), multiplicity in tally.items():
                    value = exact[group][count][rule]
                    total += multiplicity * (value if scheme == "p100" else nsf6_class(value))
                column[set_id] = total
            i3[f"{rule}_{scheme}"] = column
    shares = {}
    for key, column in i3.items():
        pool = sum(column.values())
        shares[key] = {set_id: 100 * value / pool for set_id, value in column.items()}
    top = {}
    for set_id, papers in sets.items():
        hits = sum(
            1 for _, c, d in papers if exact[group_key(set_id, d, scope)][c][rules[0]] >= TOP_SHARE_THRESHOLD
        )
        top[set_id] = Fraction(hits, len(papers))
    return {"i3": i3, "shares": shares, "top_share": top}


def _close(printed: str, exact: Fraction, what: str) -> None:
    _expect(abs(float(printed) - float(exact)) <= CELL_TOLERANCE,
            f"{what}: printed {printed}, exact {float(exact):.9f}")


def _columns_sum_to_100(rows: list[list[str]], index: int, what: str) -> None:
    total = sum(Fraction(row[index]) for row in rows)
    slack = Fraction(len(rows)) * Fraction(1, 2 * 10**6) + Fraction(1, 10**9)
    _expect(abs(total - 100) <= slack, f"{what} sums to {float(total):.9f}, not 100")


def _leader(lines: list[str]) -> None:
    _expect(bool(lines) and lines[0].startswith("# citerank-i3 "), "missing '# citerank-i3' leader line")


def check_ranking(text: str, sets: dict, rules, schemes, scope: str) -> None:
    """Check a delimited ``rank`` report against the exact set aggregates."""
    exact = exact_assignment(sets, scope)
    agg = set_aggregates(sets, scope, rules, schemes, exact)
    lines = text.splitlines()
    _leader(lines)
    table = list(csv.reader(lines[1:]))
    keys = [f"{rule}_{scheme}" for rule in rules for scheme in schemes]
    header = ["set_id", "n_papers", "total_citations"]
    for key in keys:
        header += [f"pI3_{key}", f"rank_{key}"]
    header.append("top_share")
    _expect(table[0] == header, f"header {table[0]} != {header}")
    rows = table[1:]
    _expect(len(rows) == len(sets), f"{len(rows)} rows for {len(sets)} sets")

    primary = agg["shares"][keys[0]]
    expected_order = sorted(sets, key=lambda s: (-primary[s], s))
    _expect([row[0] for row in rows] == expected_order,
            "rows are not sorted by descending primary %I3, ties by set_id")
    ranks = {key: competition_ranks(agg["shares"][key]) for key in keys}
    for row in rows:
        set_id = row[0]
        papers = sets[set_id]
        _expect(row[1] == str(len(papers)), f"{set_id}: n_papers {row[1]} != {len(papers)}")
        cites = sum(c for _, c, _ in papers)
        _expect(row[2] == str(cites), f"{set_id}: total_citations {row[2]} != {cites}")
        for position, key in enumerate(keys):
            _close(row[3 + 2 * position], agg["shares"][key][set_id], f"{set_id} pI3_{key}")
            low, high = ranks[key][set_id]
            rank = int(row[4 + 2 * position])
            _expect(low <= rank <= high, f"{set_id} rank_{key}: printed {rank}, exact {low}..{high}")
        _close(row[-1], agg["top_share"][set_id], f"{set_id} top_share")
    for position, key in enumerate(keys):
        _columns_sum_to_100(rows, 3 + 2 * position, f"pI3_{key}")


def check_per_paper(text: str, sets: dict, rules, scope: str) -> None:
    """Check a delimited ``rank --per-paper`` table cell by cell, plus the rule identities."""
    exact = exact_assignment(sets, scope)
    expected_float = {
        key: {count: {rule: float(v) for rule, v in per_rule.items()} for count, per_rule in group.items()}
        for key, group in exact.items()
    }
    sizes = Counter(group_key(s, d, scope) for s, papers in sets.items() for _, _, d in papers)
    lines = text.splitlines()
    _leader(lines)
    table = csv.reader(lines[1:])
    header = ["set_id", "paper_id", "citations"] + [f"pct_{rule}" for rule in rules]
    _expect(next(table) == header, f"per-paper header is not {header}")
    expected_rows = sorted(
        ((set_id, paper_id, count, doc_type) for set_id, papers in sets.items() for paper_id, count, doc_type in papers),
        key=lambda row: (row[0], row[1]),
    )
    column = {rule: 3 + position for position, rule in enumerate(rules)}
    seen = 0
    for row, (set_id, paper_id, count, doc_type) in zip(table, expected_rows):
        seen += 1
        _expect(row[0] == set_id and row[1] == paper_id,
                f"row {seen}: {row[0]},{row[1]} where {set_id},{paper_id} belongs (order by set_id, paper_id)")
        _expect(row[2] == str(count), f"{paper_id}: citations {row[2]} != {count}")
        key = group_key(set_id, doc_type, scope)
        expected = expected_float[key][count]
        for rule in rules:
            cell = row[column[rule]]
            _expect(abs(float(cell) - expected[rule]) <= CELL_TOLERANCE,
                    f"{paper_id} pct_{rule}: printed {cell}, exact {expected[rule]:.9f}")
        if "lb09" in column and "quantile" in column:
            gap = float(row[column["lb09"]]) - float(row[column["quantile"]])
            _expect(abs(gap - 90 / sizes[key]) <= 2 * CELL_TOLERANCE,
                    f"{paper_id}: lb09 - quantile = {gap:.6f}, not 90/n = {90 / sizes[key]:.6f}")
        if "rousseau" in column and "rousseau-raw" in column:
            revised, raw = row[column["rousseau"]], row[column["rousseau-raw"]]
            if count == 0:
                _expect(revised == "0.000000", f"{paper_id}: uncited paper has rousseau {revised}")
            else:
                _expect(revised == raw, f"{paper_id}: rousseau {revised} != rousseau-raw {raw}")
    _expect(seen == len(expected_rows) and next(table, None) is None,
            f"per-paper table has a different row count than the {len(expected_rows)} records")


def simulated_counts(spec: dict) -> list[int]:
    """The ``synth_bench`` recipe: floor(uncited_share*n) zeros, then
    floor(lognormal(mu, sigma)) clamped to >= 1 from ``default_rng(seed)``."""
    n_zero = math.floor(Fraction(repr(spec["uncited_share"])) * spec["n"])
    n_cited = spec["n"] - n_zero
    counts = [0] * n_zero
    if n_cited:
        draws = np.random.default_rng(spec["seed"]).lognormal(spec["mu"], spec["sigma"], n_cited)
        counts += [max(1, math.floor(x)) for x in draws.tolist()]
    return counts


def simulated_sets(specs: dict) -> dict:
    return {
        set_id: [(f"{set_id}-{i}", count, None) for i, count in enumerate(simulated_counts(spec))]
        for set_id, spec in specs.items()
    }


def check_divergence(text: str, sets: dict, rules, scope: str) -> None:
    """Check a delimited ``simulate`` report: %I3 per rule, correlations, top-ranked sets."""
    exact = exact_assignment(sets, scope)
    agg = set_aggregates(sets, scope, rules, ("p100",), exact)
    shares = {rule: agg["shares"][f"{rule}_p100"] for rule in rules}
    order = sorted(sets)
    lines = text.splitlines()
    _leader(lines)
    expected_head = ["# percent_i3", ",".join(["set_id", *rules])]
    _expect(lines[1:3] == expected_head, f"percent_i3 section header is not {expected_head}")
    rows = [line.split(",") for line in lines[3:3 + len(order)]]
    _expect([row[0] for row in rows] == order, "percent_i3 rows are not the sets in set_id order")
    for row in rows:
        for position, rule in enumerate(rules):
            _close(row[1 + position], shares[rule][row[0]], f"{row[0]} percent_i3 {rule}")
    for position, rule in enumerate(rules):
        _columns_sum_to_100(rows, 1 + position, f"percent_i3 {rule}")

    rest = lines[3 + len(order):]
    pairs = [(a, b) for i, a in enumerate(rules) for b in rules[i + 1:]]
    _expect(rest[:2] == ["# correlations", "metric,rule_a,rule_b,coefficient,n"], "correlations section header")
    vectors = {rule: [float(shares[rule][s]) for s in order] for rule in rules}
    correlations = rest[2:2 + 2 * len(pairs)]
    expected_keys = [(m, a, b) for m in ("pearson", "spearman") for a, b in pairs]
    _expect(len(correlations) == len(expected_keys), "wrong number of correlation lines")
    for line, (metric, a, b) in zip(correlations, expected_keys):
        cells = line.split(",")
        _expect(cells[:3] == [metric, a, b] and cells[4] == str(len(order)), f"correlation line {line!r}")
        statistic = stats.pearsonr if metric == "pearson" else stats.spearmanr
        value = statistic(vectors[a], vectors[b])[0]
        _expect(abs(float(cells[3]) - value) <= CELL_TOLERANCE,
                f"{metric} {a}/{b}: printed {cells[3]}, scipy {value:.9f}")

    tail = rest[2 + 2 * len(pairs):]
    _expect(tail[:2] == ["# top_ranked", "rule,set_id"], "top_ranked section header")
    _expect(len(tail) == 2 + len(rules), "wrong number of top_ranked lines")
    for line, rule in zip(tail[2:], rules):
        printed_rule, set_id = line.split(",")
        best = max(shares[rule].values())
        leaders = sorted(s for s, v in shares[rule].items() if v == best)
        _expect(printed_rule == rule and set_id in leaders,
                f"top_ranked {rule}: printed {set_id}, exact leaders {leaders}")
