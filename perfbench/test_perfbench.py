"""Tests of the benchmark's own checks and tracer, on tiny inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
Each oracle check must accept the program's real output and reject a
perturbed copy of it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from citerank import cli  # noqa: E402
from oracle import (  # noqa: E402
    Mismatch,
    check_divergence,
    check_per_paper,
    check_ranking,
    group_percentiles,
    simulated_sets,
)
from tracing import SELF_TIME_METRICS, Tracer, traced_main  # noqa: E402

RULES = ("quantile", "lb09", "rousseau-raw", "rousseau")
SCHEMES = ("nsf6", "p100")

TINY_SETS = {
    "A": [0, 0, 1, 3, 3, 8],
    "B": [0, 2, 2, 5, 13, 21, 1],
    "C": [0, 0, 0, 0, 1],
    "D": [4, 4, 4, 9],
    "E": [1, 0, 6, 7, 2, 2, 30, 0],
}
DOC_TYPES = ("article", "review")


def _sets(with_doc_type: bool = False) -> dict:
    return {
        set_id: [
            (f"{set_id}{i:02d}", count, DOC_TYPES[i % 2] if with_doc_type else None)
            for i, count in enumerate(counts)
        ]
        for set_id, counts in TINY_SETS.items()
    }


def _write_csv(path: Path, sets: dict, with_doc_type: bool) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["set_id", "paper_id", "citations"] + (["doc_type"] if with_doc_type else []))
        for set_id, papers in sets.items():
            for paper_id, count, doc_type in papers:
                writer.writerow([set_id, paper_id, count] + ([doc_type] if with_doc_type else []))


def _run(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def _rule_flags() -> list[str]:
    return [flag for rule in RULES for flag in ("--rule", rule)]


@pytest.fixture
def ranking(tmp_path):
    sets = _sets()
    path = tmp_path / "tiny.csv"
    _write_csv(path, sets, with_doc_type=False)
    argv = ["rank", "--input", str(path), *_rule_flags(), "--scheme", "nsf6", "--scheme", "p100"]
    return _run(argv), sets, argv


@pytest.fixture
def per_paper(tmp_path):
    sets = _sets(with_doc_type=True)
    path = tmp_path / "tiny_doc.csv"
    _write_csv(path, sets, with_doc_type=True)
    argv = ["rank", "--input", str(path), "--per-paper", *_rule_flags(), "--scope", "per-set-and-doc-type"]
    return _run(argv), sets


@pytest.fixture
def divergence(tmp_path):
    specs = {
        f"J{i}": {"set_id": f"J{i}", "n": 60 + 7 * i, "uncited_share": share, "mu": 0.4 + 0.3 * i,
                  "sigma": 1.0, "seed": 100 + i}
        for i, share in enumerate((0.125, 0.25, 0.921875, 0.5))
    }
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"sets": list(specs.values()), "rules": list(RULES),
                                  "scheme": "p100", "scope": "per-set"}), encoding="utf-8")
    return _run(["simulate", "--config", str(config)]), simulated_sets(specs)


def _edit_cell(text: str, row: int, column: int, change) -> str:
    """Apply ``change`` to one cell of a delimited report; row 0 is the header."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = change(cells[column])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _nudge(cell: str) -> str:
    return f"{float(cell) + 1e-5:.6f}"


def test_ranking_check_accepts_real_output(ranking):
    text, sets, _ = ranking
    check_ranking(text, sets, RULES, SCHEMES, "global")


def test_ranking_check_rejects_percent_i3_off_by_1e_5(ranking):
    text, sets, _ = ranking
    header = text.splitlines()[1].split(",")
    column = header.index("pI3_lb09_p100")
    with pytest.raises(Mismatch, match="pI3_lb09_p100"):
        check_ranking(_edit_cell(text, 2, column, _nudge), sets, RULES, SCHEMES, "global")


def test_ranking_check_rejects_two_swapped_ranks(ranking):
    text, sets, _ = ranking
    header = text.splitlines()[1].split(",")
    column = header.index("rank_quantile_p100")
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:]]
    first = min(rows, key=lambda row: int(row[column]))
    last = max(rows, key=lambda row: int(row[column]))
    assert first[column] != last[column]
    first[column], last[column] = last[column], first[column]
    swapped = "\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n"
    with pytest.raises(Mismatch, match="rank_quantile_p100"):
        check_ranking(swapped, sets, RULES, SCHEMES, "global")


def test_ranking_check_rejects_reordered_rows(ranking):
    text, sets, _ = ranking
    lines = text.splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    with pytest.raises(Mismatch, match="sorted"):
        check_ranking("\n".join(lines) + "\n", sets, RULES, SCHEMES, "global")


def test_per_paper_check_accepts_real_output(per_paper):
    text, sets = per_paper
    check_per_paper(text, sets, RULES, "per-set-and-doc-type")


@pytest.mark.parametrize("rule", RULES)
def test_per_paper_check_rejects_one_changed_percentile(per_paper, rule):
    text, sets = per_paper
    column = text.splitlines()[1].split(",").index(f"pct_{rule}")
    with pytest.raises(Mismatch, match=f"pct_{rule}"):
        check_per_paper(_edit_cell(text, 5, column, _nudge), sets, RULES, "per-set-and-doc-type")


def test_per_paper_check_rejects_a_missing_row(per_paper):
    text, sets = per_paper
    lines = text.splitlines()
    with pytest.raises(Mismatch, match="row count"):
        check_per_paper("\n".join(lines[:-1]) + "\n", sets, RULES, "per-set-and-doc-type")


def test_divergence_check_accepts_real_output(divergence):
    text, sets = divergence
    check_divergence(text, sets, RULES, "per-set")


def test_divergence_check_rejects_wrong_top_ranked_set(divergence):
    text, sets = divergence
    lines = text.splitlines()
    rule, leader = lines[-1].split(",")
    other = next(set_id for set_id in sorted(sets) if set_id != leader)
    lines[-1] = f"{rule},{other}"
    with pytest.raises(Mismatch, match="top_ranked"):
        check_divergence("\n".join(lines) + "\n", sets, RULES, "per-set")


def test_divergence_check_rejects_percent_i3_off_by_1e_5(divergence):
    text, sets = divergence
    with pytest.raises(Mismatch, match="percent_i3"):
        check_divergence(_edit_cell(text, 2, 2, _nudge), sets, RULES, "per-set")


def test_exact_percentiles_of_a_worked_group():
    exact = group_percentiles([0, 1, 1, 2, 5])
    assert exact[1]["quantile"] == 20 and exact[1]["rousseau-raw"] == 60
    assert exact[0]["rousseau"] == 0 and exact[5]["lb09"] == 98
    # the lb09 value of the 21-member case stays exactly on the 90 bound
    assert group_percentiles(list(range(21)))[18]["lb09"] == 90


def test_oracle_imports_no_citerank():
    code = "import sys, oracle; assert not [m for m in sys.modules if m.startswith('citerank')]"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def test_layer_self_times_account_for_cli_main(ranking):
    _, _, argv = ranking
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert traced_main(tracer, cli.main, argv) == 0
    metrics = tracer.layer_metrics()
    assert sum(metrics[name] for name in SELF_TIME_METRICS) == pytest.approx(metrics["cli.main_s"], abs=1e-9)
    n_sets, n_papers = len(TINY_SETS), sum(map(len, TINY_SETS.values()))
    assert metrics["tally.calls"] == len(RULES)
    assert metrics["tally.groups"] == len(RULES)  # one global group per rule
    # per rule: one scan per scheme per set, plus top-share scans for the first rule
    scans = len(RULES) * len(SCHEMES) * n_sets + n_sets
    assert metrics["aggregate.set_scans"] == scans
    assert metrics["aggregate.papers_visited"] == scans * n_papers
    assert metrics["parse.records_per_s"] > 0 and metrics["generate.records"] == 0
