from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citerank import (
    P100,
    CitationTable,
    DivergenceResult,
    ExperimentConfig,
    PercentileRule,
    ReferenceScope,
    SetSpec,
    fixture_path,
    generate_set,
    load_experiment_config,
    override_seeds,
    run_analysis,
    run_divergence_experiment,
    synth_bench,
)
from citerank.cli import main
from citerank.synth_bench import MAX_SET_SIZE, divergence_from_report, emit_divergence
from conftest import make_table, table_rows

QUANTILE = PercentileRule.QUANTILE
LB09 = PercentileRule.LB09
RAW = PercentileRule.ROUSSEAU_RAW


# --- generate_set -------------------------------------------------------------

def test_all_uncited():
    table = generate_set(SetSpec("Z", n=10, uncited_share=1.0, seed=1))
    assert len(table) == 10
    assert table.citations == (0,) * 10


def test_seeded_determinism():
    spec = SetSpec("S", n=200, uncited_share=0.4, mu=1.3, sigma=1.1, seed=99)
    assert table_rows(generate_set(spec)) == table_rows(generate_set(spec))


def test_different_seeds_differ():
    a = generate_set(SetSpec("S", n=200, uncited_share=0.0, seed=1))
    b = generate_set(SetSpec("S", n=200, uncited_share=0.0, seed=2))
    assert a.citations != b.citations


def test_zero_block_and_cited_floor():
    table = generate_set(SetSpec("S", n=1000, uncited_share=0.3, mu=1.0, sigma=1.0, seed=42))
    assert table.citations.count(0) == 300
    assert sum(1 for count in table.citations if count >= 1) == 700


def test_sigma_zero_is_constant():
    table = generate_set(SetSpec("S", n=50, uncited_share=0.0, mu=2.0, sigma=0.0, seed=5))
    expected = math.floor(math.exp(2.0))
    assert set(table.citations) == {expected}


def test_unique_paper_ids():
    table = generate_set(SetSpec("S", n=500, uncited_share=0.5, seed=3))
    assert len(set(table.paper_ids)) == 500


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(n=0, uncited_share=0.5), "n must be positive"),
        (dict(n=5, uncited_share=1.5), "uncited_share"),
        (dict(n=5, uncited_share=0.5, sigma=-1.0), "sigma"),
        (dict(set_id="", n=5, uncited_share=0.5), r"^set '': set_id must not be blank$"),
        (dict(set_id=" \t", n=5, uncited_share=0.5), r"^set ' \\t': set_id must not be blank$"),
    ],
)
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SetSpec(**{"set_id": "S", **kwargs})


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(uncited_share=math.nan), "uncited_share"),
        (dict(uncited_share=math.inf), "uncited_share"),
        (dict(mu=math.inf), "mu must be finite"),
        (dict(mu=-math.inf), "mu must be finite"),
        (dict(mu=math.nan), "mu must be finite"),
        (dict(sigma=math.nan), "sigma must be finite"),
        (dict(sigma=math.inf), "sigma must be finite"),
        (dict(n=MAX_SET_SIZE + 1), "n must be at most 10,000,000"),
        (dict(seed=-1), "seed must be non-negative"),
    ],
)
def test_spec_rejects_non_finite_parameters_and_huge_sets(kwargs, match):
    with pytest.raises(ValueError, match=rf"^set 'S': {match}"):
        SetSpec("S", **{"n": 5, "uncited_share": 0.5, **kwargs})


@pytest.mark.parametrize("field", ["n", "seed"])
@pytest.mark.parametrize("value", [1.5, 5.0, True])
def test_spec_rejects_non_integer_size_and_seed(field, value):
    # generate_set would fail later with numpy's TypeError, which the CLI does not catch
    with pytest.raises(ValueError, match=rf"^set 'S': {field} must be an integer, got {value!r}$"):
        SetSpec("S", **{"n": 5, "uncited_share": 0.5, field: value})


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(set_id=7), "set 7: set_id must be a string, got 7"),
        (dict(uncited_share="0.5"), "set 'S': uncited_share must be a number, got '0.5'"),
        (dict(mu=None), "set 'S': mu must be a number, got None"),
        (dict(sigma=[1]), "set 'S': sigma must be a number, got [1]"),
    ],
)
def test_spec_rejects_values_of_the_wrong_type(kwargs, message):
    # these used to escape as a TypeError from a comparison
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SetSpec(**{"set_id": "S", "n": 5, "uncited_share": 0.5, **kwargs})


@pytest.mark.parametrize("mu,sigma", [(800.0, 1.0), (44.0, 0.0), (1.0, 1e300)])
def test_generate_set_rejects_draws_beyond_int64(mu, sigma):
    # exp(44) is about 1.3e19, above 2**63; exp(800) and sigma 1e300 overflow to infinity
    with pytest.raises(ValueError, match=r"^set 'S': lognormal\(mu=.*\) drew a count that is not finite"):
        generate_set(SetSpec("S", n=20, uncited_share=0.1, mu=mu, sigma=sigma))


def test_generate_set_largest_finite_draws_stay_counts():
    table = generate_set(SetSpec("S", n=20, uncited_share=0.0, mu=43.0, sigma=0.0))
    assert set(table.citations) == {math.floor(math.exp(43.0))}


# --- divergence experiment ------------------------------------------------------

SPECS = [
    SetSpec("A", n=120, uncited_share=0.2, mu=1.5, sigma=1.0, seed=11),
    SetSpec("B", n=90, uncited_share=0.3, mu=1.0, sigma=1.2, seed=12),
    SetSpec("C", n=150, uncited_share=0.1, mu=1.8, sigma=0.9, seed=13),
    SetSpec("D", n=60, uncited_share=0.4, mu=0.8, sigma=1.1, seed=14),
]


def test_duplicate_rule_correlates_exactly():
    result = run_divergence_experiment(SPECS, [QUANTILE, QUANTILE])
    assert result.pearson[0][1] == 1.0
    assert result.spearman[0][1] == 1.0


def test_experiment_determinism():
    first = run_divergence_experiment(SPECS, [QUANTILE, LB09, RAW])
    second = run_divergence_experiment(SPECS, [QUANTILE, LB09, RAW])
    assert first == second


def test_matrix_symmetric_unit_diagonal():
    result = run_divergence_experiment(SPECS, list(PercentileRule))
    k = len(result.rules)
    for i in range(k):
        assert result.pearson[i][i] == 1.0
        assert result.spearman[i][i] == 1.0
        for j in range(k):
            assert result.pearson[i][j] == result.pearson[j][i]
            assert result.spearman[i][j] == result.spearman[j][i]
            assert abs(result.pearson[i][j]) <= 1.0 + 1e-12


def test_quantile_lb09_nearly_identical():
    result = run_divergence_experiment(SPECS, [QUANTILE, LB09])
    assert result.pearson[0][1] >= 0.999


def test_experiment_preconditions():
    with pytest.raises(ValueError, match="at least 2 sets"):
        run_divergence_experiment(SPECS[:1], [QUANTILE, LB09])
    with pytest.raises(ValueError, match="at least 2 rules"):
        run_divergence_experiment(SPECS, [QUANTILE])


def test_divergence_from_report_needs_two_rules():
    # run_divergence_experiment checks its rules before it ranks, so only a report reaches this check
    records = CitationTable.concat([make_table([0, 1, 2], "A"), make_table([0, 3, 3], "B")])
    report = run_analysis(records, rules=(QUANTILE,), schemes=(P100,))
    with pytest.raises(ValueError, match=r"^need at least 2 rules$"):
        divergence_from_report(report, P100)


def test_experiment_names_a_repeated_set_id():
    # it used to fail while ranking, with "duplicate paper_id 'A-00000'"
    with pytest.raises(ValueError, match=r"^set_id 'A' at sets #0 and #1$"):
        run_divergence_experiment([SetSpec("A", 10, 0.5)] * 2, [QUANTILE, LB09])


def test_per_set_scope_supported():
    result = run_divergence_experiment(SPECS, [QUANTILE, LB09], P100, ReferenceScope.PER_SET)
    # within one group the +0.9 shift adds exactly 90 to each set's I3,
    # an increasing affine map of the raw sums
    assert result.pearson[0][1] == pytest.approx(1.0, abs=1e-9)


# --- config files ----------------------------------------------------------------

def test_load_65set_fixture():
    config = load_experiment_config(fixture_path("divergence_65sets.json"))
    assert len(config.sets) == 65
    assert config.rules == tuple(PercentileRule)
    assert config.scheme == P100
    assert config.scope is ReferenceScope.GLOBAL_POOL
    assert all(spec.uncited_share <= 0.45 for spec in config.sets)


def test_load_high_uncited_fixture():
    config = load_experiment_config(fixture_path("divergence_high_uncited.json"))
    shares = sorted(spec.uncited_share for spec in config.sets)
    assert shares[-1] > 0.8
    assert all(share < 0.5 for share in shares[:-1])


def test_config_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sets": []}))
    with pytest.raises(ValueError, match="non-empty"):
        load_experiment_config(bad)
    bad.write_text(json.dumps({"sets": [{"set_id": "A", "n": 5}]}))
    with pytest.raises(ValueError, match="missing"):
        load_experiment_config(bad)
    bad.write_text(json.dumps({"sets": [{"set_id": "A", "n": 5, "uncited_share": 0.5, "x": 1}]}))
    with pytest.raises(ValueError, match="unknown keys"):
        load_experiment_config(bad)
    bad.write_text(json.dumps({"sets": [{"set_id": "A", "n": 5, "uncited_share": 0.5}],
                               "scope": "galactic"}))
    with pytest.raises(ValueError, match="unknown scope"):
        load_experiment_config(bad)


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"sets": [', "Expecting value: line 1 column 11 (char 10)"),
        (b'{"sets": [], "scope": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_config_that_is_not_json_names_the_file(tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"experiment config {bad}: {message}")):
        load_experiment_config(bad)


@pytest.mark.parametrize(
    "entry,match",
    [
        ("A", "set #0 must be an object"),
        ({"set_id": "A", "n": "100", "uncited_share": 0.5}, "set #0: set 'A': n must be an integer, got '100'"),
        ({"set_id": "A", "n": 10.5, "uncited_share": 0.5}, "set #0: set 'A': n must be an integer, got 10.5"),
        ({"set_id": "A", "n": True, "uncited_share": 0.5}, "set #0: set 'A': n must be an integer, got True"),
        ({"set_id": "A", "n": 10, "uncited_share": "0.5"},
         "set #0: set 'A': uncited_share must be a number, got '0.5'"),
        ({"set_id": "A", "n": 10, "uncited_share": 0.5, "mu": None},
         "set #0: set 'A': mu must be a number, got None"),
        ({"set_id": "A", "n": 10, "uncited_share": 0.5, "sigma": [1]},
         "set #0: set 'A': sigma must be a number, got [1]"),
        ({"set_id": "A", "n": 10, "uncited_share": 0.5, "seed": 1.5},
         "set #0: set 'A': seed must be an integer, got 1.5"),
        ({"set_id": "A", "n": 10, "uncited_share": 0.5, "seed": -1}, "set #0: set 'A': seed must be non-negative"),
        ({"set_id": 7, "n": 10, "uncited_share": 0.5}, "set #0: set 7: set_id must be a string, got 7"),
    ],
)
def test_config_rejects_malformed_set_entries(tmp_path, entry, match):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sets": [entry]}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'experiment config {bad}: {match}')}$"):
        load_experiment_config(bad)


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"n": 0}, "set #1: set 'B': n must be positive"),
        ({"uncited_share": 1.5}, "set #1: set 'B': uncited_share outside [0, 1]"),
        ({"set_id": "A"}, "set_id 'A' at sets #0 and #1"),
    ],
)
def test_config_entry_errors_name_the_file_and_the_position(tmp_path, entry, message):
    bad = tmp_path / "bad.json"
    sets = [{"set_id": "A", "n": 10, "uncited_share": 0.5}, {"set_id": "B", "n": 10, "uncited_share": 0.5, **entry},
            {"set_id": "C", "n": 10, "uncited_share": 0.5}]
    bad.write_text(json.dumps({"sets": sets}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'experiment config {bad}: {message}')}$"):
        load_experiment_config(bad)


@pytest.mark.parametrize(
    "extra,match",
    [
        ({"scheme": 5}, "key 'scheme' must be a string, got 5"),
        ({"scope": ["global"]}, "key 'scope' must be a string"),
        ({"rules": "quantile"}, "key 'rules' must be a list of distinct strings, got 'quantile'"),
        ({"rules": ["quantile", "quantile"]}, "key 'rules' must be a list of distinct strings"),
        ({"rules": ["quantile", 1]}, "key 'rules' must be a list of distinct strings"),
        ({"rules": {"quantile": 1}}, "key 'rules' must be a list of distinct strings"),
    ],
)
def test_config_rejects_malformed_top_level_keys(tmp_path, extra, match):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sets": [{"set_id": "A", "n": 10, "uncited_share": 0.5}], **extra}))
    with pytest.raises(ValueError, match=match):
        load_experiment_config(bad)


TWO_SETS = [{"set_id": "A", "n": 10, "uncited_share": 0.5}, {"set_id": "B", "n": 10, "uncited_share": 0.5}]


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"rules": ["quantile", "bogus"]}, "key 'rules': unknown rule 'bogus' (expected one of: "),
        ({"scheme": "bogus"}, "key 'scheme': unknown scheme 'bogus' (expected p100, nsf6, or top<P>)"),
        ({"scheme": "top100"}, "key 'scheme': scheme 'top100': top share 100 outside (0, 100)"),
        ({"scope": "galactic"}, "key 'scope': unknown scope 'galactic' (expected one of: "),
        ({"rules": []}, "key 'rules' must name at least 2 rules, got 0"),
        ({"rules": ["lb09"]}, "key 'rules' must name at least 2 rules, got 1"),
        ({"scope": "per-doc-type"}, "key 'scope': 'per-doc-type' needs a doc_type, which generated sets lack"),
        ({"scope": "per-set-and-doc-type"},
         "key 'scope': 'per-set-and-doc-type' needs a doc_type, which generated sets lack"),
        ({"sets": TWO_SETS[:1]}, "key 'sets' must hold at least 2 sets, got 1"),
        ({"rule": ["quantile"], "seed": 3}, "unknown keys ['rule', 'seed']"),
    ],
)
def test_config_errors_name_the_file_and_the_key(tmp_path, extra, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sets": TWO_SETS, **extra}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'experiment config {bad}: {message}')}"):
        load_experiment_config(bad)


def test_simulate_rejects_a_doc_type_scope_before_drawing_a_set(tmp_path, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(synth_bench, "generate_set", lambda spec: drawn.append(spec))
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"sets": TWO_SETS, "scope": "per-set-and-doc-type"}))
    assert main(["simulate", "--config", str(config)]) == 1
    assert f"experiment config {config}: key 'scope'" in capsys.readouterr().err
    assert drawn == []


# Ints far past a float's range, still within the digits that json converts.
_huge_ints = st.builds(lambda sign, digits: sign * 10**digits, st.sampled_from([1, -1]), st.integers(300, 4000))
_any_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), _huge_ints, st.floats(), st.text(max_size=8),
    st.sampled_from(["quantile", "lb09", "rousseau", "p100", "top10", "per-set", "global"]),
)
_any_json = st.recursive(
    _any_scalar,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_set_entries = st.dictionaries(
    st.sampled_from(["set_id", "n", "uncited_share", "mu", "sigma", "seed", "extra"]),
    _any_json,
    max_size=7,
)
_configs = st.one_of(
    _any_json,
    st.dictionaries(
        st.sampled_from(["sets", "rules", "scheme", "scope"]),
        st.one_of(_any_json, st.lists(_set_entries, max_size=3)),
        max_size=4,
    ),
)


@given(config=_configs)
def test_load_experiment_config_fuzz_loads_or_raises_value_error(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        loaded = load_experiment_config(path)
    except ValueError:
        return
    assert loaded.sets and len(set(loaded.rules)) == len(loaded.rules)


@pytest.mark.parametrize(
    "shape,message",
    [({"mu": 10**400}, "mu must be finite"), ({"mu": -(10**400)}, "mu must be finite"),
     ({"sigma": 10**400}, "sigma must be finite and non-negative")],
)
def test_set_spec_rejects_an_int_past_a_float_range(shape, message):
    with pytest.raises(ValueError, match=f"^set 'A': {message}$"):
        SetSpec("A", n=10, uncited_share=0.5, **shape)


# Deeper than the JSON decoder's recursion limit.
DEEP_NESTING = "[" * 10_000


def test_simulate_reports_a_too_deeply_nested_config_on_one_line(tmp_path):
    config = tmp_path / "deep.json"
    config.write_text(DEEP_NESTING, encoding="utf-8")
    src = str(Path(synth_bench.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "citerank.cli", "simulate", "--config", str(config)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith(f"error: experiment config {config}: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    with pytest.raises(ValueError, match=f"^{re.escape(f'experiment config {config}: ')}"):
        load_experiment_config(config)


VALID_CONFIG = {
    "sets": [
        {"set_id": "A", "n": 10, "uncited_share": 0.5, "mu": 1.0, "sigma": 1.0, "seed": 1},
        {"set_id": "B", "n": 10, "uncited_share": 0.2, "mu": 1.5, "sigma": 0.5, "seed": 2},
    ],
    "rules": ["quantile", "lb09"],
    "scheme": "nsf6",
    "scope": "per-set",
}
# Where a generated value replaces one key of VALID_CONFIG: a top-level key, or a key of one set.
_CONFIG_KEYS = [(key,) for key in VALID_CONFIG] + [
    ("sets", position, key) for position in (0, 1) for key in VALID_CONFIG["sets"][position]
]


def _replaced(where: tuple, value: object) -> dict:
    config = json.loads(json.dumps(VALID_CONFIG))
    parent = config
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = value
    return config


_config_documents = st.one_of(
    _any_json.map(json.dumps),
    st.builds(_replaced, st.sampled_from(_CONFIG_KEYS), _any_scalar | _any_json).map(json.dumps),
)


@given(document=_config_documents)
@example(document=DEEP_NESTING)
@example(document=json.dumps(_replaced(("sets", 1, "mu"), -(10**400))))
@example(document='{"sets": [{"set_id": "A", "n": 1' + "0" * 5000 + ', "uncited_share": 0.5}]}')
def test_config_errors_name_the_file_whatever_the_json(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(document, encoding="utf-8")
    try:
        loaded = load_experiment_config(path)
    except ValueError as exc:
        assert str(exc).startswith(f"experiment config {path}: ")
    else:
        assert isinstance(loaded, ExperimentConfig)


@pytest.mark.parametrize("share,n,zeros", [(0.043, 10000, 430), (0.29, 100, 29)])
def test_uncited_block_is_exact_decimal_floor(share, n, zeros):
    table = generate_set(SetSpec("S", n=n, uncited_share=share, seed=1))
    assert all(count == 0 for count in table.citations[:zeros])
    assert all(count > 0 for count in table.citations[zeros:])


def test_override_seeds():
    config = load_experiment_config(fixture_path("divergence_high_uncited.json"))
    reseeded = override_seeds(config, 5000)
    assert [spec.seed for spec in reseeded.sets] == list(range(5000, 5000 + len(config.sets)))
    assert [spec.set_id for spec in reseeded.sets] == [spec.set_id for spec in config.sets]


# --- emission --------------------------------------------------------------------

def test_emit_divergence_formats():
    result = run_divergence_experiment(SPECS, [QUANTILE, RAW])
    delimited = emit_divergence(result)
    assert delimited.splitlines()[0] == "# citerank-i3 0.1.0"
    assert "pearson,quantile,rousseau-raw," in delimited
    assert "# top_ranked" in delimited

    payload = json.loads(emit_divergence(result, "json"))
    assert payload["rules"] == ["quantile", "rousseau-raw"]
    assert payload["pearson"][0][0] == 1.0
    assert set(payload["top_set"]) == {"quantile", "rousseau-raw"}

    aligned = emit_divergence(result, "aligned")
    assert "Pearson correlation" in aligned
    assert emit_divergence(result, "aligned") == aligned

    with pytest.raises(ValueError, match="unknown format"):
        emit_divergence(result, "xml")


def test_result_to_dict_round_trips_through_json():
    result = run_divergence_experiment(SPECS, [QUANTILE, LB09])
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["set_order"] == list(result.set_order)
    assert payload["percent_i3"]["quantile"] == list(result.percent_i3["quantile"])
    assert isinstance(result, DivergenceResult)
