from __future__ import annotations

import ast
import csv
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import citerank
from citerank import (
    P100,
    PercentileRule,
    ReferenceScope,
    emit_divergence,
    emit_paper_percentiles,
    fixture_path,
    load_experiment_config,
    load_records,
    run_divergence_experiment,
)
from citerank.cli import WRITE_SLICE, build_parser, main
from conftest import spy

REVIEWS = str(fixture_path("reviews10.csv"))

MULTI_SET_CSV = """set_id,paper_id,citations
A,a1,0
A,a2,2
A,a3,9
B,b1,0
B,b2,1
B,b3,4
C,c1,3
C,c2,7
C,c3,12
D,d1,0
D,d2,0
D,d3,5
"""


@pytest.fixture
def multi_csv(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text(MULTI_SET_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv, **kwargs):
    """``citerank *argv`` in a child interpreter that imports this checkout's package; ``kwargs`` go to Popen."""
    env = {**os.environ, "PYTHONPATH": str(Path(citerank.__file__).parent.parent), "PYTHONIOENCODING": "utf-8"}
    return subprocess.Popen([sys.executable, "-m", "citerank.cli", *argv], env=env, **kwargs)


@pytest.fixture
def wide_csv(tmp_path):
    """10k papers whose ids are 205 three-byte characters: a per-paper report of over 2 slices of 1 MiB."""
    digits = str.maketrans("0123456789", "〇一二三四五六七八九")
    rows = (f"集合{str(i % 3).translate(digits)},{'論文' * 100}{f'{i:05d}'.translate(digits)},{i % 7}"
            for i in range(10_000))
    path = tmp_path / "wide.csv"
    path.write_text("set_id,paper_id,citations\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


# --- rank -----------------------------------------------------------------------

def test_rank_per_paper_micro_example(capsys):
    code, out, err = run_cli(
        capsys, "rank", "--input", REVIEWS,
        "--rule", "quantile", "--rule", "lb09", "--rule", "rousseau-raw",
        "--per-paper",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "set_id,paper_id,citations,pct_quantile,pct_lb09,pct_rousseau-raw"
    top = lines[-1].split(",")
    assert top[2:] == ["9", "90.000000", "99.000000", "100.000000"]


@pytest.mark.parametrize("path", [REVIEWS, "/does/not/exist.csv"], ids=["reviews10", "missing"])
def test_rank_per_paper_rejects_a_scheme(capsys, path):
    # a scheme weights only the set ranking; the usage error comes before the input is read
    code, out, err = run_cli(capsys, "rank", "--input", path, "--per-paper", "--scheme", "nsf6")
    assert (code, out, err) == (2, "", "error: --scheme has no effect with --per-paper\n")


def test_rank_defaults_to_quantile_delimited(capsys, multi_csv):
    code, out, err = run_cli(capsys, "rank", "--input", multi_csv)
    assert code == 0 and err == ""
    header = out.splitlines()[1]
    assert header == "set_id,n_papers,total_citations,pI3_quantile_p100,rank_quantile_p100,top_share"


def test_rank_missing_input_file(capsys):
    code, out, err = run_cli(capsys, "rank", "--input", "/does/not/exist.csv")
    assert code != 0
    assert "/does/not/exist.csv" in err
    assert out == ""


def test_rank_writes_output_file(capsys, multi_csv, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(
        capsys, "rank", "--input", multi_csv, "--scheme", "nsf6", "--output", str(out_path)
    )
    assert code == 0 and out == "" and err == ""
    text = out_path.read_text()
    assert text.splitlines()[0] == "# citerank-i3 0.1.0"
    assert "pI3_quantile_nsf6" in text


@pytest.mark.parametrize("fmt", ["delimited", "aligned", "json"])
def test_rank_output_file_and_stdout_hold_the_report_bytes(capsys, wide_csv, tmp_path, fmt):
    # aligned pads the ids to a column wider than its header, and json escapes them
    text = emit_paper_percentiles(load_records(wide_csv), (PercentileRule.QUANTILE,), fmt=fmt)
    # the report spans three write slices; json's is ASCII, and elsewhere a slice boundary splits
    # a run of multi-byte characters
    assert len(text) > 2 * WRITE_SLICE
    assert text.isascii() if fmt == "json" else not any(char.isascii() for char in text[WRITE_SLICE - 1:WRITE_SLICE + 1])
    out_path = tmp_path / "report.txt"
    args = ("rank", "--input", wide_csv, "--per-paper", "--format", fmt)
    assert run_cli(capsys, *args, "--output", str(out_path)) == (0, "", "")
    stdout, _ = cli_process(*args, stdout=subprocess.PIPE).communicate(timeout=60)
    assert out_path.read_bytes() == stdout == text.encode("utf-8")


def test_rank_into_a_pipe_that_its_reader_closes_early_exits_0_quietly(wide_csv):
    # The reader takes one line and closes the pipe while the first slice is being written, so a
    # later slice meets a closed pipe: the run ends as a single write of the whole text ended it.
    process = cli_process("rank", "--input", wide_csv, "--per-paper", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = process.stdout.readline()
    process.stdout.close()
    _, err = process.communicate(timeout=60)
    assert (first, process.returncode, err) == (f"# citerank-i3 {citerank.__version__}\n".encode(), 0, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [("ztest", "--k1", "20", "--n1", "100", "--k2", "10", "--n2", "100"), ("rank", "--input", REVIEWS)],
    ids=["ztest", "rank"],
)
def test_a_short_report_into_a_closed_pipe_exits_0_quietly(monkeypatch, argv, unbuffered):
    # The read end is closed before the child starts. A buffered stdout holds the whole short
    # report, so the closed pipe is met at the flush, not at the write.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        process = cli_process(*argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    _, err = process.communicate(timeout=60)
    assert (process.returncode, err) == (0, b"")


def test_rank_duplicate_rule_is_usage_error(capsys, multi_csv):
    code, out, err = run_cli(
        capsys, "rank", "--input", multi_csv, "--rule", "quantile", "--rule", "quantile"
    )
    assert code == 2
    assert "duplicate rule" in err


def test_rank_schemes_with_one_column_label_are_a_usage_error(capsys, multi_csv):
    # top10.0 is top10, so their pI3/rank columns would share one name
    code, out, err = run_cli(
        capsys, "rank", "--input", multi_csv, "--scheme", "top10", "--scheme", "top10.0"
    )
    assert (code, out, err) == (2, "", "error: duplicate scheme: top10\n")


@pytest.mark.parametrize(
    "tokens,labels",
    [
        (["top12.34561", "top12.34562"], ["top12.34561", "top12.34562"]),
        (["top0.00001", "top010.50"], ["top0.00001", "top10.5"]),
    ],
)
def test_rank_schemes_are_labelled_by_their_exact_share(capsys, multi_csv, tokens, labels):
    code, out, err = run_cli(capsys, "rank", "--input", multi_csv, *(f"--scheme={token}" for token in tokens))
    assert code == 0 and err == ""
    header = out.splitlines()[1].split(",")
    assert [c for c in header if c.startswith("pI3_")] == [f"pI3_quantile_{label}" for label in labels]


def test_rank_unknown_rule_token(capsys, multi_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--input", multi_csv, "--rule", "median"])
    assert excinfo.value.code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rank_json_format(capsys, multi_csv):
    code, out, err = run_cli(capsys, "rank", "--input", multi_csv, "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [row["set_id"] for row in payload["rows"]] == ["C", "A", "B", "D"]


def test_rank_per_set_scope(capsys, multi_csv):
    code, out, err = run_cli(
        capsys, "rank", "--input", multi_csv, "--scope", "per-set", "--per-paper"
    )
    assert code == 0 and err == ""
    # every 3-paper set: top paper scores 2/3 under quantile in its own set
    top_cells = [line.split(",")[3] for line in out.splitlines()[2:]]
    assert top_cells.count("66.666667") == 4


# --- compare-rules ----------------------------------------------------------------

def test_compare_rules_quantile_lb09(capsys, multi_csv):
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", multi_csv, "--rule", "quantile", "--rule", "lb09"
    )
    assert code == 0 and err == ""
    pearson_line = next(line for line in out.splitlines() if line.startswith("pearson,"))
    coefficient = float(pearson_line.split(",")[3])
    assert coefficient >= 0.999


def test_compare_rules_duplicate_rule(capsys, multi_csv):
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", multi_csv, "--rule", "quantile", "--rule", "quantile"
    )
    assert code == 2
    assert "duplicate rule" in err


def test_compare_rules_needs_two_rules(capsys, multi_csv):
    code, out, err = run_cli(capsys, "compare-rules", "--input", multi_csv, "--rule", "quantile")
    assert code == 2
    assert "at least 2" in err


def test_compare_rules_two_sets_warns_but_succeeds(capsys, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("set_id,paper_id,citations\nA,a1,5\nA,a2,9\nB,b1,0\nB,b2,1\n")
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", str(path), "--rule", "quantile", "--rule", "rousseau-raw"
    )
    assert code == 0
    assert "degenerate" in err
    assert "pearson," in out


def test_compare_rules_on_sets_with_equal_percent_i3_is_one_line_error(capsys, tmp_path):
    # pearson_r used to stop it with a bare "zero variance"
    path = tmp_path / "equal.csv"
    path.write_text("set_id,paper_id,citations\nA,a1,1\nA,a2,3\nB,b1,1\nB,b2,3\nC,c1,1\nC,c2,3\n")
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", str(path), "--rule", "quantile", "--rule", "lb09"
    )
    assert (code, out) == (1, "")
    assert err == "error: every set has the same %I3 under quantile, so no correlation is defined\n"


def test_compare_rules_on_one_set_is_one_line_error(capsys, tmp_path):
    # pearson_r used to stop it with "need at least 2 observations"
    path = tmp_path / "one.csv"
    path.write_text("set_id,paper_id,citations\nA,a1,1\nA,a2,3\n")
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", str(path), "--rule", "quantile", "--rule", "lb09"
    )
    assert (code, out, err) == (1, "", "error: need at least 2 sets\n")


def _delimited_sections(text):
    """Section caption -> rows (header first) of a sectioned delimited report."""
    sections = {}
    for line in text.splitlines()[1:]:
        if line.startswith("# "):
            rows = sections[line[2:]] = []
        else:
            rows.append(line)
    return {caption: list(csv.reader(rows)) for caption, rows in sections.items()}


def _assert_rows_as_wide_as_header(text):
    sections = _delimited_sections(text)
    assert list(sections) == ["percent_i3", "correlations", "top_ranked"]
    for rows in sections.values():
        assert {len(row) for row in rows} == {len(rows[0])}
    return sections


def test_divergence_delimited_quotes_set_ids(capsys, tmp_path):
    path = tmp_path / "comma.csv"
    path.write_text('set_id,paper_id,citations\n"A,x",a1,9\n"A,x",a2,8\nB,b1,0\nB,b2,1\nC,c1,2\nC,c2,5\n')
    code, out, err = run_cli(
        capsys, "compare-rules", "--input", str(path), "--rule", "quantile", "--rule", "rousseau"
    )
    assert code == 0 and err == ""
    sections = _assert_rows_as_wide_as_header(out)
    assert [row[0] for row in sections["percent_i3"][1:]] == ["A,x", "B", "C"]
    assert sections["top_ranked"][1:] == [["quantile", "A,x"], ["rousseau", "A,x"]]

    config = {"sets": [{"set_id": "A,x", "n": 50, "uncited_share": 0.0, "mu": 3.0, "seed": 1},
                       {"set_id": "B", "n": 50, "uncited_share": 0.5, "seed": 2},
                       {"set_id": "C", "n": 50, "uncited_share": 0.3, "seed": 3}]}
    path = tmp_path / "comma.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--format", "delimited")
    assert code == 0 and err == ""
    sections = _assert_rows_as_wide_as_header(out)
    assert sections["percent_i3"][1][0] == "A,x"
    assert ["quantile", "A,x"] in sections["top_ranked"]


def test_simulate_two_sets_warns_as_compare_rules_does(capsys, tmp_path):
    config = {"sets": [{"set_id": "A", "n": 40, "uncited_share": 0.1, "seed": 1},
                       {"set_id": "B", "n": 30, "uncited_share": 0.5, "seed": 2}]}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(config))
    loaded = load_experiment_config(path)
    report = emit_divergence(run_divergence_experiment(loaded.sets, loaded.rules, loaded.scheme, loaded.scope))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out, err) == (0, report, "warning: correlations over 2 sets are degenerate\n")


# --- ztest ------------------------------------------------------------------------

def test_ztest_count_mode(capsys):
    code, out, err = run_cli(
        capsys, "ztest", "--k1", "20", "--n1", "100", "--k2", "10", "--n2", "100"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "z=1.980295",
        "p_two_sided=0.047670",
        "pooled_proportion=0.150000",
    ]


def test_ztest_identical_proportions(capsys):
    code, out, err = run_cli(
        capsys, "ztest", "--k1", "50", "--n1", "100", "--k2", "50", "--n2", "100"
    )
    assert code == 0
    assert out.splitlines()[0] == "z=0.000000"


def test_ztest_one_sided_flag(capsys):
    code, out, err = run_cli(
        capsys, "ztest", "--k1", "20", "--n1", "100", "--k2", "10", "--n2", "100", "--one-sided"
    )
    assert code == 0
    assert out.splitlines()[-1] == "p_one_sided=0.023835"


def test_ztest_degenerate_exits_nonzero(capsys):
    code, out, err = run_cli(
        capsys, "ztest", "--k1", "0", "--n1", "10", "--k2", "0", "--n2", "10"
    )
    assert code == 1
    assert "degenerate proportions" in err


def test_ztest_incomplete_count_mode(capsys):
    code, out, err = run_cli(capsys, "ztest", "--k1", "5", "--n1", "10")
    assert code == 2
    assert "count mode requires" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--set-a", "A"), ("--set-b", "B"), ("--threshold", "50"), ("--rule", "rousseau-raw"), ("--scope", "per-set")],
)
def test_ztest_count_mode_rejects_a_dataset_flag(capsys, flag, value):
    code, out, err = run_cli(capsys, "ztest", "--k1", "1", "--n1", "10", "--k2", "2", "--n2", "10", flag, value)
    assert (code, out, err) == (2, "", f"error: {flag} needs --input (dataset mode)\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--set-a", "A", "--set-b", "B", "--k1", "1"],
         "use either --input with set ids or --k1/--n1/--k2/--n2, not both"),
        (["--set-a", "A"], "dataset mode requires --set-a and --set-b"),
    ],
    ids=["input-and-counts", "one-set-id"],
)
def test_ztest_dataset_mode_usage_errors(capsys, multi_csv, flags, message):
    code, out, err = run_cli(capsys, "ztest", "--input", multi_csv, *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ztest_dataset_mode_takes_a_zero_threshold(capsys, multi_csv):
    # at threshold 0 every paper succeeds, so both proportions are 1
    code, out, err = run_cli(capsys, "ztest", "--input", multi_csv, "--set-a", "A", "--set-b", "C", "--threshold", "0")
    assert (code, out) == (1, "") and "degenerate proportions" in err
    code, out, err = run_cli(capsys, "ztest", "--input", multi_csv, "--set-a", "A", "--set-b", "C")
    assert code == 0 and out.startswith("z=")


def test_ztest_dataset_mode_matches_count_mode(capsys, tmp_path):
    rows = ["set_id,paper_id,citations"]
    rows += [f"A,a{i},{i}" for i in range(20)]
    rows += [f"B,b{i},{i % 3}" for i in range(20)]
    path = tmp_path / "z.csv"
    path.write_text("\n".join(rows) + "\n")

    code, out_dataset, err = run_cli(
        capsys, "ztest", "--input", str(path), "--set-a", "A", "--set-b", "B", "--threshold", "80"
    )
    assert code == 0 and err == ""

    from citerank import PercentileRule, compute_percentiles, load_records, top_share

    assignment = compute_percentiles(load_records(path), PercentileRule.QUANTILE)
    k1 = round(top_share(assignment, "A", 80.0) * 20)
    k2 = round(top_share(assignment, "B", 80.0) * 20)
    code, out_counts, err = run_cli(
        capsys, "ztest", "--k1", str(k1), "--n1", "20", "--k2", str(k2), "--n2", "20"
    )
    assert code == 0
    assert out_dataset == out_counts


def test_ztest_unknown_set(capsys, multi_csv):
    code, out, err = run_cli(
        capsys, "ztest", "--input", multi_csv, "--set-a", "A", "--set-b", "ZZ"
    )
    assert code == 1
    assert "unknown set_id 'ZZ'" in err


# --- simulate -----------------------------------------------------------------------

def test_simulate_shipped_fixture_is_reproducible(capsys):
    code, first, err = run_cli(capsys, "simulate", "--config", "divergence_high_uncited")
    assert code == 0 and err == ""
    code, second, err = run_cli(capsys, "simulate", "--config", "divergence_high_uncited")
    assert code == 0
    assert first == second
    assert "# top_ranked" in first


@pytest.mark.parametrize("argv, preset, kept", [
    (["simulate", "--config", "divergence_high_uncited"], None, "1"),
    (["simulate", "--config", "divergence_high_uncited"], "3", "3"),
    (["rank", "--input", REVIEWS], None, None),
])
def test_only_simulate_defaults_openblas_to_one_thread(argv, preset, kept):
    child = ("import contextlib, io, os, sys; from citerank.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()): assert main(sys.argv[1:]) == 0\n"
             "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(citerank.__file__).parent.parent)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{kept!r}\n"


def test_simulate_top_sets_differ_between_rules(capsys):
    code, out, err = run_cli(capsys, "simulate", "--config", "divergence_high_uncited")
    assert code == 0
    top = dict(
        line.split(",")
        for line in out.split("# top_ranked\n")[1].splitlines()[1:]
    )
    assert top["quantile"] != top["rousseau-raw"]


def test_simulate_accepts_path_and_seed(capsys, tmp_path):
    config = {
        "sets": [
            {"set_id": "A", "n": 50, "uncited_share": 0.2, "seed": 1},
            {"set_id": "B", "n": 60, "uncited_share": 0.3, "seed": 2},
            {"set_id": "C", "n": 40, "uncited_share": 0.1, "seed": 3},
        ],
        "rules": ["quantile", "lb09"],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, baseline, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0 and err == ""
    code, reseeded, err = run_cli(capsys, "simulate", "--config", str(path), "--seed", "123")
    assert code == 0
    assert reseeded != baseline
    code, reseeded_again, err = run_cli(capsys, "simulate", "--config", str(path), "--seed", "123")
    assert reseeded_again == reseeded


def test_simulate_missing_config(capsys):
    code, out, err = run_cli(capsys, "simulate", "--config", "nope_nothing")
    assert code == 1
    assert "not found" in err


def test_simulate_malformed_config_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"sets": [{"set_id": "A", "n": "100", "uncited_share": 0.2}]}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and out == ""
    assert err == f"error: experiment config {path}: set #0: set 'A': n must be an integer, got '100'\n"


def test_simulate_rejects_a_misspelt_top_level_key(capsys, tmp_path):
    # a dropped "rule" key would run all four default rules
    path = tmp_path / "exp.json"
    sets = [{"set_id": "A", "n": 50, "uncited_share": 0.2}, {"set_id": "B", "n": 50, "uncited_share": 0.6}]
    path.write_text(json.dumps({"sets": sets, "rule": ["quantile", "lb09"]}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: experiment config {path}: unknown keys ['rule']\n"


@pytest.mark.parametrize(
    "entry,extra,message",
    [
        ({"mu": "Infinity"}, {}, "set 'A': mu must be finite"),
        ({"sigma": "NaN"}, {}, "set 'A': sigma must be finite and non-negative"),
        ({"uncited_share": "NaN"}, {}, "set 'A': uncited_share outside [0, 1]"),
        ({"n": 10_000_001}, {}, "set 'A': n must be at most 10,000,000"),
        ({"mu": 800}, {}, "set 'A': lognormal(mu=800, sigma=1.0) drew a count that is not finite"),
        ({}, {"scheme": 5}, "key 'scheme' must be a string, got 5"),
        ({}, {"rules": "quantile"}, "key 'rules' must be a list of distinct strings, got 'quantile'"),
        ({}, {"rules": ["quantile", "quantile"]}, "key 'rules' must be a list of distinct strings"),
        ({"n": 0}, {}, "exp.json: set #0: set 'A': n must be positive"),
        ({"set_id": "B"}, {}, "exp.json: set_id 'B' at sets #0 and #1"),
    ],
)
def test_simulate_bad_parameters_are_one_line_errors(capsys, tmp_path, entry, extra, message):
    sets = [{"set_id": "A", "n": 50, "uncited_share": 0.2, **entry},
            {"set_id": "B", "n": 50, "uncited_share": 0.2}]
    path = tmp_path / "exp.json"
    # json.dumps writes float("nan") as NaN; the strings stand in for the bare JSON tokens
    text = json.dumps({"sets": sets, **extra}).replace('"Infinity"', "Infinity").replace('"NaN"', "NaN")
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy cast warning would surface as an exception
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err


def test_simulate_identical_specs_is_one_line_error(capsys, tmp_path):
    # two sets drawn from one spec and one seed have equal %I3 under every rule
    path = tmp_path / "exp.json"
    spec = {"n": 10, "uncited_share": 0.5}
    path.write_text(json.dumps({"sets": [{"set_id": "A", **spec}, {"set_id": "B", **spec}]}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "error: every set has the same %I3 under quantile, so no correlation is defined\n"


def test_simulate_negative_seed_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--config", "divergence_high_uncited", "--seed", "-3")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: set ") and "seed must be non-negative" in err


def test_rank_input_that_is_not_utf8_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"set_id,paper_id,citations\nA,caf\xe9,1\n")
    code, out, err = run_cli(capsys, "rank", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path} is not UTF-8 text: invalid continuation byte\n"


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-rows"])
@pytest.mark.parametrize(
    "command", [("rank",), ("compare-rules", "--rule", "quantile", "--rule", "lb09"), ("ztest", "--set-a", "A", "--set-b", "B")],
    ids=["rank", "compare-rules", "ztest"],
)
def test_a_csv_that_holds_no_records_names_its_file(capsys, tmp_path, command, body):
    path = tmp_path / "header.csv"
    path.write_text("set_id,paper_id,citations\n" + body)
    code, out, err = run_cli(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out, err) == (1, "", f"error: empty input: {path}\n")


def test_a_degenerate_pool_names_its_column(capsys, tmp_path):
    # every paper is uncited: rousseau-raw scores each 100, quantile each 0
    path = tmp_path / "uncited.csv"
    path.write_text("set_id,paper_id,citations\nA,a1,0\nB,b1,0\n")
    code, out, err = run_cli(capsys, "rank", "--input", str(path), "--rule", "rousseau-raw", "--rule", "quantile")
    assert (code, out, err) == (1, "", "error: quantile_p100: degenerate pool: total I3 is zero\n")


def test_cli_import_loads_neither_numpy_nor_fractions():
    # numpy and fractions (which loads decimal) are only needed to generate sets;
    # every other command should start without them
    src = str(Path(citerank.__file__).parent.parent)
    probe = "import sys, citerank.cli; print([m for m in ('numpy', 'fractions', 'decimal') if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


COMMAND_MODULES = {f"citerank.{name}" for name in ("data_pipeline", "indicator_core", "rank_stats", "synth_bench")}


def loaded_modules(probe, *argv, kept=lambda name: name.startswith("citerank")):
    """Exit code, and the sorted modules loaded at exit that ``kept`` accepts, of ``python -c probe *argv``."""
    code = "import atexit, sys\natexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n" + probe
    env = {**os.environ, "PYTHONPATH": str(Path(citerank.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return result.returncode, [name for name in ast.literal_eval(result.stderr.splitlines()[-1]) if kept(name)]


@pytest.mark.parametrize("probe, modules", [
    ("import citerank", ["citerank", "citerank._version"]),
    # a submodule name is not resolved as an exported name: importing it loads it alone
    ("from citerank import cli", ["citerank", "citerank._version", "citerank.cli"]),
])
def test_import_loads_only_what_it_names(probe, modules):
    assert loaded_modules(probe) == (0, modules)


# `python -m citerank.cli *argv`, with the module run as __main__ the way -m runs it
RUN_CLI = "import runpy; runpy.run_module('citerank.cli', run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["rank", "--help"]])
def test_version_and_help_load_no_command_module(argv):
    code, modules = loaded_modules(RUN_CLI, *argv)
    assert code == 0 and COMMAND_MODULES.isdisjoint(modules)


def test_rank_loads_neither_synth_bench_nor_rank_stats():
    code, modules = loaded_modules(RUN_CLI, "rank", "--input", REVIEWS)
    assert code == 0 and "citerank.data_pipeline" in modules
    assert {"citerank.synth_bench", "citerank.rank_stats"}.isdisjoint(modules)


@pytest.mark.parametrize("fmt", ["delimited", "aligned", "json"])
def test_rank_loads_no_dataclasses_and_json_only_for_json(fmt):
    # dataclasses loads inspect (and through it ast, dis and tokenize) to generate its classes' code
    code, modules = loaded_modules(RUN_CLI, "rank", "--input", REVIEWS, "--format", fmt,
                                   kept=lambda name: name in ("dataclasses", "inspect", "json"))
    assert (code, modules) == (0, ["json"] if fmt == "json" else [])


def test_every_name_in_the_cli_table_is_exported_by_its_module_and_used():
    from citerank import cli

    assert [name for name, module in cli._MODULE_OF.items()
            if name not in importlib.import_module(f"citerank.{module}").__all__] == []
    tree = ast.parse(Path(cli.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a parser type names its class as a string, so that building the parser loads no command module
    used |= {node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_token"}
    assert sorted(set(cli._MODULE_OF) - used) == []


def test_a_name_rebound_before_its_command_runs_keeps_its_value(monkeypatch, capsys):
    # perfbench's tracer rebinds cli names this way, possibly before any command has bound them
    from citerank import cli

    monkeypatch.delitem(vars(cli), "load_records", raising=False)
    calls = spy(monkeypatch, cli, "load_records")
    assert run_cli(capsys, "rank", "--input", REVIEWS)[0] == 0
    assert calls == [(REVIEWS,)]


def test_an_unknown_package_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match="^module 'citerank' has no attribute 'no_such_name'$"):
        citerank.no_such_name


def test_star_import_binds_every_exported_name():
    probe = "from citerank import *\nimport citerank\nassert [n for n in citerank.__all__ if n not in globals()] == []"
    assert loaded_modules(probe)[0] == 0


def test_string_defaults_parse_to_typed_values():
    parser = build_parser()
    assert parser.parse_args(["rank", "--input", "x"]).scope is ReferenceScope.GLOBAL_POOL
    compare = parser.parse_args(["compare-rules", "--input", "x"])
    assert compare.scheme == P100 and compare.scope is ReferenceScope.GLOBAL_POOL


def test_an_unknown_format_is_a_usage_error_that_lists_the_formats(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--input", "x", "--format", "bogus"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == (
        "usage: citerank rank [-h] --input INPUT [--rule RULE] [--scheme SCHEME]\n"
        "                     [--scope SCOPE] [--format {delimited,aligned,json}]\n"
        "                     [--output OUTPUT] [--per-paper]\n"
        "citerank rank: error: argument --format: invalid choice: 'bogus' (choose from 'delimited', 'aligned', 'json')\n"
    )


def test_cli_and_data_pipeline_share_one_formats_tuple():
    from citerank import cli, data_pipeline

    assert cli.FORMATS is data_pipeline.FORMATS == ("delimited", "aligned", "json")


def test_result_types_are_tuples_whose_fields_are_the_json_layout(capsys, multi_csv):
    results = (citerank.SetReport, citerank.RankingReport, citerank.CorrelationResult, citerank.ZTestResult,
               citerank.ExperimentConfig, citerank.DivergenceResult, citerank.PercentileAssignment,
               citerank.RankClassScheme)
    assert all(issubclass(kind, tuple) for kind in results)
    # the one dataclass: a changed seed re-runs its checks through dataclasses.replace
    assert dataclasses.is_dataclass(citerank.SetSpec)
    _, out, _ = run_cli(capsys, "rank", "--input", multi_csv, "--format", "json")
    assert [tuple(row) for row in json.loads(out)["rows"]] == [citerank.SetReport._fields] * 4
    _, out, _ = run_cli(
        capsys, "compare-rules", "--input", multi_csv, "--rule", "quantile", "--rule", "lb09", "--format", "json"
    )
    assert tuple(json.loads(out)) == ("version", *citerank.DivergenceResult._fields)


@pytest.mark.parametrize(
    "module", ["citerank", *(f"citerank.{info.name}" for info in pkgutil.iter_modules(citerank.__path__))]
)
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert [name for name in getattr(imported, "__all__", ()) if not hasattr(imported, name)] == []


def test_package_exports_each_module_list_once():
    modules = [importlib.import_module(f"citerank.{info.name}") for info in pkgutil.iter_modules(citerank.__path__)]
    names = [name for module in modules for name in getattr(module, "__all__", ())]
    assert citerank.__all__[0] == "__version__"
    assert sorted(citerank.__all__[1:]) == sorted(names)
    assert len(set(citerank.__all__)) == len(citerank.__all__)


@pytest.mark.parametrize("module", [f"citerank.{info.name}" for info in pkgutil.iter_modules(citerank.__path__)])
def test_every_imported_name_is_used(module):
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_simulate_json_format(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--config", "divergence_high_uncited", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["top_set"]["quantile"] != payload["top_set"]["rousseau-raw"]
