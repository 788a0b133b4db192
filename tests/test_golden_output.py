"""Byte-for-byte stdout of every report command and format, against checked-in files.

Each case runs ``citerank.cli.main`` in process and compares its stdout with
``tests/golden/<case>.txt``. The inputs are the packaged ``reviews10.csv``
(one set), ``tests/golden/multi.csv`` (four sets whose ids hold commas
and quotes) and ``tests/golden/multi_doc.csv`` (the same kind of ids, with
a doc_type column for the doc-type scopes). To rewrite the files after a
deliberate output change, run
``PYTHONPATH=src python tests/test_golden_output.py`` and record every
changed file, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from citerank import fixture_path
from citerank.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = {"reviews": str(fixture_path("reviews10.csv")), "multi": str(GOLDEN / "multi.csv")}
# four sets of mixed doc types whose ids hold commas and quotes, for the doc-type scopes
MULTI_DOC = str(GOLDEN / "multi_doc.csv")
FORMATS = ("delimited", "aligned", "json")
ALL_RULES = ["--rule", "quantile", "--rule", "lb09", "--rule", "rousseau-raw", "--rule", "rousseau"]
ALL_SCHEMES = ["--scheme", "p100", "--scheme", "nsf6", "--scheme", "top10"]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for fmt in FORMATS:
        for name, path in INPUTS.items():
            cases[f"rank-{name}-default.{fmt}"] = ["rank", "--input", path, "--format", fmt]
            for scope in ("global", "per-set"):
                grid = ["rank", "--input", path, "--scope", scope, *ALL_RULES, *ALL_SCHEMES]
                cases[f"rank-{name}-{scope}.{fmt}"] = [*grid, "--format", fmt]
                cases[f"rank-{name}-{scope}-per-paper.{fmt}"] = [*grid, "--per-paper", "--format", fmt]
        for scope in ("per-doc-type", "per-set-and-doc-type"):
            cases[f"rank-multi_doc-{scope}.{fmt}"] = [
                "rank", "--input", MULTI_DOC, "--scope", scope, *ALL_RULES, *ALL_SCHEMES, "--format", fmt,
            ]
            cases[f"rank-multi_doc-{scope}-per-paper.{fmt}"] = [
                "rank", "--input", MULTI_DOC, "--scope", scope, *ALL_RULES, "--per-paper", "--format", fmt,
            ]
        # compare-rules needs at least two sets, so it runs on the multi-set input only
        multi = INPUTS["multi"]
        cases[f"compare-rules-multi.{fmt}"] = ["compare-rules", "--input", multi, *ALL_RULES, "--format", fmt]
        cases[f"compare-rules-multi-nsf6-per-set.{fmt}"] = [
            "compare-rules", "--input", multi, "--rule", "quantile", "--rule", "rousseau",
            "--scheme", "nsf6", "--scope", "per-set", "--format", fmt,
        ]
        for config in ("divergence_65sets", "divergence_high_uncited"):
            cases[f"simulate-{config}.{fmt}"] = ["simulate", "--config", config, "--format", fmt]
    # ztest prints key=value lines and has no --format
    cases["ztest-reviews"] = [
        "ztest", "--input", INPUTS["reviews"], "--set-a", "reviews", "--set-b", "reviews",
        "--threshold", "50",
    ]
    cases["ztest-multi"] = [
        "ztest", "--input", INPUTS["multi"], "--set-a", "A,x", "--set-b", "D", "--threshold", "50",
        "--one-sided",
    ]
    cases["ztest-multi-rousseau-per-set"] = [
        "ztest", "--input", INPUTS["multi"], "--set-a", 'B "q"', "--set-b", "C",
        "--threshold", "75", "--rule", "rousseau", "--scope", "per-set",
    ]
    return cases


CASES = _cases()


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(_stdout(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
