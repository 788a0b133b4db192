"""Seeded synthetic citation sets and the counting-rule divergence experiment.

Citation counts are drawn from a zero-inflated discretized lognormal: an
exact ``floor(uncited_share * n)`` block of uncited papers plus cited
counts ``floor(exp(N(mu, sigma^2)))`` clamped to >= 1. Streams come from
numpy's PCG64 generator, seeded per set, so identical specs always yield
identical records.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import combinations
from pathlib import Path

from ._version import __version__
from .data_pipeline import AnalysisConfig, InputDataset, RankingReport, pair_key, run_analysis
from .data_pipeline import _aligned_lines, _render
from .indicator_core import (
    P100,
    CitationTable,
    PercentileRule,
    RankClassScheme,
    ReferenceScope,
)
from .rank_stats import pearson_r, spearman_rho

__all__ = [
    "SetSpec",
    "ExperimentConfig",
    "DivergenceResult",
    "generate_set",
    "run_divergence_experiment",
    "divergence_from_report",
    "load_experiment_config",
    "override_seeds",
    "emit_divergence",
    "fixture_path",
    "MAX_SET_SIZE",
]

# Largest n a set spec accepts; generating a set holds all of its records in memory.
MAX_SET_SIZE = 10_000_000


@dataclass(frozen=True)
class SetSpec:
    """Shape of one synthetic citation set."""

    set_id: str
    n: int
    uncited_share: float
    mu: float = 1.0
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"set {self.set_id!r}: n must be positive")
        if self.n > MAX_SET_SIZE:
            raise ValueError(f"set {self.set_id!r}: n must be at most {MAX_SET_SIZE:,}")
        if not 0.0 <= self.uncited_share <= 1.0:
            raise ValueError(f"set {self.set_id!r}: uncited_share outside [0, 1]")
        if not math.isfinite(self.mu):
            raise ValueError(f"set {self.set_id!r}: mu must be finite")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"set {self.set_id!r}: sigma must be finite and non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    sets: tuple[SetSpec, ...]
    rules: tuple[PercentileRule, ...]
    scheme: RankClassScheme
    scope: ReferenceScope


@dataclass(frozen=True)
class DivergenceResult:
    """Pairwise rule agreement over a shared dataset.

    ``percent_i3`` maps each rule token to its per-set %I3 vector aligned
    with ``set_order``; the Pearson matrix correlates those vectors, the
    Spearman matrix their rankings. Both matrices are symmetric with a
    unit diagonal, indexed in ``rules`` order. ``top_set`` names each
    rule's rank-1 set.
    """

    rules: tuple[PercentileRule, ...]
    set_order: tuple[str, ...]
    percent_i3: Mapping[str, tuple[float, ...]]
    pearson: tuple[tuple[float, ...], ...]
    spearman: tuple[tuple[float, ...], ...]
    top_set: Mapping[str, str]

    def to_dict(self) -> dict[str, object]:
        return {
            "version": __version__,
            "rules": [rule.token for rule in self.rules],
            "set_order": list(self.set_order),
            "percent_i3": {token: list(values) for token, values in self.percent_i3.items()},
            "pearson": [list(row) for row in self.pearson],
            "spearman": [list(row) for row in self.spearman],
            "top_set": dict(self.top_set),
        }


def generate_set(spec: SetSpec) -> CitationTable:
    """Draw one set's records; identical specs yield identical tables.

    Exactly ``floor(uncited_share * n)`` papers are uncited, the product
    taken in exact decimal (0.29 of 100 is 29, where binary floating point
    gives 28); the rest get ``floor(lognormal(mu, sigma))`` citations
    clamped to >= 1. Uses a fresh PCG64 stream seeded with ``spec.seed``.
    Raises ``ValueError`` naming the set when a draw is not finite or is
    at least ``2**63``, so it cannot be stored as a citation count.
    """
    # numpy is imported here so that commands which generate nothing never load it.
    import numpy as np

    n_zero = math.floor(Fraction(repr(float(spec.uncited_share))) * spec.n)
    n_cited = spec.n - n_zero
    counts = [0] * n_zero
    if n_cited > 0:
        rng = np.random.default_rng(spec.seed)
        draws = rng.lognormal(mean=spec.mu, sigma=spec.sigma, size=n_cited)
        # NaN and infinity fail this comparison too.
        if not (draws < 2.0**63).all():
            raise ValueError(
                f"set {spec.set_id!r}: lognormal(mu={spec.mu}, sigma={spec.sigma}) drew a count "
                "that is not finite or is at least 2**63"
            )
        counts += np.maximum(np.floor(draws), 1.0).astype(np.int64).tolist()
    prefix = f"{spec.set_id}-"
    paper_ids = [prefix + str(index).zfill(5) for index in range(spec.n)]  # f"{index:05d}", faster
    return CitationTable((spec.set_id,) * spec.n, paper_ids, counts)


def divergence_from_report(report: RankingReport, scheme: RankClassScheme) -> DivergenceResult:
    """Correlate the per-set %I3 vectors of a multi-rule report."""
    if len(report.rules) < 2:
        raise ValueError("need at least 2 rules")
    set_order = tuple(sorted(row.set_id for row in report.rows))
    by_set = {row.set_id: row for row in report.rows}
    vectors = {
        rule.token: tuple(
            by_set[set_id].percent_i3[pair_key(rule, scheme)] for set_id in set_order
        )
        for rule in report.rules
    }

    k = len(report.rules)
    pearson = [[1.0] * k for _ in range(k)]
    spearman = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = vectors[report.rules[i].token]
            y = vectors[report.rules[j].token]
            pearson[i][j] = pearson[j][i] = pearson_r(x, y).coefficient
            spearman[i][j] = spearman[j][i] = spearman_rho(x, y).coefficient

    top_set = {}
    for rule in report.rules:
        key = pair_key(rule, scheme)
        top_set[rule.token] = min(
            (row.set_id for row in report.rows if row.rank[key] == 1),
        )
    return DivergenceResult(
        rules=report.rules,
        set_order=set_order,
        percent_i3=vectors,
        pearson=tuple(tuple(row) for row in pearson),
        spearman=tuple(tuple(row) for row in spearman),
        top_set=top_set,
    )


def run_divergence_experiment(
    specs: Sequence[SetSpec],
    rules: Sequence[PercentileRule],
    scheme: RankClassScheme = P100,
    scope: ReferenceScope = ReferenceScope.GLOBAL_POOL,
) -> DivergenceResult:
    """Generate all sets, rank them under every rule, and correlate the rules.

    Fully deterministic: identical specs, rules, and seeds reproduce the
    same result object.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 sets")
    if len(rules) < 2:
        raise ValueError("need at least 2 rules")
    records = CitationTable.concat(generate_set(spec) for spec in specs)
    dataset = InputDataset(records, source_path="<synthetic>")
    config = AnalysisConfig(tuple(rules), (scheme,), scope)
    report = run_analysis(dataset, config)
    return divergence_from_report(report, scheme)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


# Every key a set entry may hold: what its value must be, and the check for it.
_SET_KEYS = {
    "set_id": ("a string", lambda value: isinstance(value, str)),
    "n": ("an integer", _is_int),
    "uncited_share": ("a number", _is_number),
    "mu": ("a number", _is_number),
    "sigma": ("a number", _is_number),
    "seed": ("a non-negative integer", lambda value: _is_int(value) and value >= 0),
}


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment config: a list of set specs plus rules/scheme/scope.

    Defaults: all four rules, scheme p100, scope global.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "sets" not in payload:
        raise ValueError(f"experiment config {path}: missing 'sets'")
    raw_sets = payload["sets"]
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ValueError(f"experiment config {path}: 'sets' must be a non-empty list")

    specs = []
    for position, entry in enumerate(raw_sets):
        if not isinstance(entry, dict):
            raise ValueError(f"experiment config {path}: set #{position} must be an object")
        unknown = set(entry) - set(_SET_KEYS)
        if unknown:
            raise ValueError(
                f"experiment config {path}: unknown keys {sorted(unknown)} in set #{position}"
            )
        missing = {"set_id", "n", "uncited_share"} - set(entry)
        if missing:
            raise ValueError(
                f"experiment config {path}: set #{position} missing {sorted(missing)}"
            )
        for key, value in entry.items():
            kind, check = _SET_KEYS[key]
            if not check(value):
                raise ValueError(
                    f"experiment config {path}: set #{position} key {key!r} "
                    f"must be {kind}, got {value!r}"
                )
        specs.append(SetSpec(**entry))

    rule_tokens = payload.get("rules", [rule.token for rule in PercentileRule])
    if (
        not isinstance(rule_tokens, list)
        or not all(isinstance(token, str) for token in rule_tokens)
        or len(set(rule_tokens)) != len(rule_tokens)
    ):
        raise ValueError(
            f"experiment config {path}: key 'rules' must be a list of distinct strings, "
            f"got {rule_tokens!r}"
        )
    scheme_token = payload.get("scheme", "p100")
    scope_token = payload.get("scope", "global")
    for key, value in (("scheme", scheme_token), ("scope", scope_token)):
        if not isinstance(value, str):
            raise ValueError(f"experiment config {path}: key {key!r} must be a string, got {value!r}")
    rules = tuple(PercentileRule.from_token(token) for token in rule_tokens)
    scheme = RankClassScheme.from_token(scheme_token)
    scope = ReferenceScope.from_token(scope_token)
    return ExperimentConfig(tuple(specs), rules, scheme, scope)


def override_seeds(config: ExperimentConfig, base_seed: int) -> ExperimentConfig:
    """Re-seed every set deterministically as ``base_seed + position``."""
    sets = tuple(
        replace(spec, seed=base_seed + position) for position, spec in enumerate(config.sets)
    )
    return replace(config, sets=sets)


def emit_divergence(result: DivergenceResult, fmt: str = "delimited") -> str:
    """Render a divergence result as sectioned CSV, aligned text, or JSON."""
    tokens = [rule.token for rule in result.rules]
    n_sets = len(result.set_order)
    matrices = (("pearson", result.pearson), ("spearman", result.spearman))
    tables = [
        ("percent_i3", ["set_id"] + tokens, (
            [set_id] + [f"{result.percent_i3[token][position]:.6f}" for token in tokens]
            for position, set_id in enumerate(result.set_order)
        )),
        ("correlations", ["metric", "rule_a", "rule_b", "coefficient", "n"], (
            [metric, tokens[i], tokens[j], f"{matrix[i][j]:.6f}", str(n_sets)]
            for metric, matrix in matrices
            for i, j in combinations(range(len(tokens)), 2)
        )),
        ("top_ranked", ["rule", "set_id"], ([token, result.top_set[token]] for token in tokens)),
    ]
    width = max(len(token) for token in tokens)
    column = max(width, 10)  # cells are padded to one width shared by every matrix column
    aligned: list[str] = []
    for metric, matrix in matrices:
        header = [""] + [token.rjust(column) for token in tokens]
        rows = [[token] + [f"{value:{column}.6f}" for value in row] for token, row in zip(tokens, matrix)]
        aligned.append(f"{metric.capitalize()} correlation of percent-I3:")
        aligned += _aligned_lines(header, rows) + [""]
    aligned.append("Top-ranked set per rule:")
    aligned += [f"  {token.ljust(width)}  {result.top_set[token]}" for token in tokens]
    title = f"rule divergence over {n_sets} sets"
    return _render(fmt, result.to_dict, title, tables, aligned)


def fixture_path(name: str) -> Path:
    """Filesystem path of a packaged fixture (experiment configs, sample CSVs)."""
    return Path(str(resources.files("citerank").joinpath("fixtures", name)))
