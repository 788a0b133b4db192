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
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import combinations, repeat
from pathlib import Path
from typing import NamedTuple

from ._version import __version__
from .data_pipeline import AnalysisConfig, InputDataset, RankingReport, pair_key, run_analysis
from .data_pipeline import _aligned_line, _csv_line, _report
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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


# Every field of a set spec, which is also every key a config's set entry may hold:
# what its value must be, and the check for it.
_SET_KEYS = {
    "set_id": ("a string", lambda value: isinstance(value, str)),
    "n": ("an integer", _is_int),
    "uncited_share": ("a number", _is_number),
    "mu": ("a number", _is_number),
    "sigma": ("a number", _is_number),
    "seed": ("an integer", _is_int),
}


@dataclass(frozen=True)
class SetSpec:
    """Shape of one synthetic citation set; every field is checked, with a ``ValueError`` naming the set."""

    set_id: str
    n: int
    uncited_share: float
    mu: float = 1.0
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for key, (kind, check) in _SET_KEYS.items():
            value = getattr(self, key)
            if not check(value):
                raise ValueError(f"set {self.set_id!r}: {key} must be {kind}, got {value!r}")
        if not self.set_id.strip():
            raise ValueError(f"set {self.set_id!r}: set_id must not be blank")
        if self.n <= 0:
            raise ValueError(f"set {self.set_id!r}: n must be positive")
        if self.n > MAX_SET_SIZE:
            raise ValueError(f"set {self.set_id!r}: n must be at most {MAX_SET_SIZE:,}")
        if not 0.0 <= self.uncited_share <= 1.0:
            raise ValueError(f"set {self.set_id!r}: uncited_share outside [0, 1]")
        # NaN fails these comparisons too, and so does an int past a float's range
        if not abs(self.mu) <= sys.float_info.max:
            raise ValueError(f"set {self.set_id!r}: mu must be finite")
        if not 0.0 <= self.sigma <= sys.float_info.max:
            raise ValueError(f"set {self.set_id!r}: sigma must be finite and non-negative")
        if self.seed < 0:
            raise ValueError(f"set {self.set_id!r}: seed must be non-negative")


class ExperimentConfig(NamedTuple):
    sets: tuple[SetSpec, ...]
    rules: tuple[PercentileRule, ...]
    scheme: RankClassScheme
    scope: ReferenceScope


class DivergenceResult(NamedTuple):
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
        return {"version": __version__, **self._asdict(), "rules": [rule.token for rule in self.rules]}


def generate_set(spec: SetSpec) -> CitationTable:
    """Draw one set's records; identical specs yield identical tables.

    Exactly ``floor(uncited_share * n)`` papers are uncited, the product
    taken in exact decimal (0.29 of 100 is 29, where binary floating point
    gives 28); the rest get ``floor(lognormal(mu, sigma))`` citations
    clamped to >= 1. Uses a fresh PCG64 stream seeded with ``spec.seed``.
    Raises ``ValueError`` naming the set when a draw is not finite or is
    at least ``2**63``, so it cannot be stored as a citation count.
    """
    # numpy and fractions are imported here so that commands which generate nothing never load them.
    from fractions import Fraction

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
    if len(report.rows) < 2:
        raise ValueError("need at least 2 sets")
    if len(report.rules) < 2:
        raise ValueError("need at least 2 rules")
    rows = sorted(report.rows, key=lambda row: row.set_id)
    keys = {rule.token: pair_key(rule, scheme) for rule in report.rules}
    vectors = {token: tuple(row.percent_i3[key] for row in rows) for token, key in keys.items()}
    for token, vector in vectors.items():
        if len(set(vector)) == 1:
            raise ValueError(f"every set has the same %I3 under {token}, so no correlation is defined")

    k = len(report.rules)
    pearson = [[1.0] * k for _ in range(k)]
    spearman = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = vectors[report.rules[i].token]
            y = vectors[report.rules[j].token]
            pearson[i][j] = pearson[j][i] = pearson_r(x, y).coefficient
            spearman[i][j] = spearman[j][i] = spearman_rho(x, y).coefficient

    top_set = {token: next(row.set_id for row in rows if row.rank[key] == 1) for token, key in keys.items()}
    pearson, spearman = (tuple(map(tuple, matrix)) for matrix in (pearson, spearman))
    return DivergenceResult(report.rules, tuple(row.set_id for row in rows), vectors, pearson, spearman, top_set)


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
    _check_distinct_set_ids(specs)
    records = CitationTable.concat(generate_set(spec) for spec in specs)
    dataset = InputDataset(records)
    config = AnalysisConfig(tuple(rules), (scheme,), scope)
    report = run_analysis(dataset, config)
    return divergence_from_report(report, scheme)


def _check_distinct_set_ids(specs: Sequence[SetSpec]) -> None:
    """Raise ``ValueError`` naming the first set_id that two specs share, and both positions."""
    first_position: dict[str, int] = {}
    for position, spec in enumerate(specs):
        first = first_position.setdefault(spec.set_id, position)
        if first != position:
            raise ValueError(f"set_id {spec.set_id!r} at sets #{first} and #{position}")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment config: a list of set specs plus rules/scheme/scope.

    Defaults: all four rules, scheme p100, scope global; any other
    top-level key is an error. At least 2 sets and 2 rules are required,
    and the scope must not group by doc_type, which generated sets lack.
    Every error is a ``ValueError`` naming ``path`` and the key or set at
    fault, raised before any set is drawn; a file nested deeper than the
    JSON decoder allows is one too.
    """

    def parsed(where, parse, *args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "sets" not in payload:
            raise ValueError("missing 'sets'")
        unknown = set(payload) - {"sets", "rules", "scheme", "scope"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        raw_sets = payload["sets"]
        if not isinstance(raw_sets, list) or not raw_sets:
            raise ValueError("'sets' must be a non-empty list")

        specs = []
        for position, entry in enumerate(raw_sets):
            if not isinstance(entry, dict):
                raise ValueError(f"set #{position} must be an object")
            unknown = set(entry) - set(_SET_KEYS)
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)} in set #{position}")
            missing = {"set_id", "n", "uncited_share"} - set(entry)
            if missing:
                raise ValueError(f"set #{position} missing {sorted(missing)}")
            specs.append(parsed(f"set #{position}", SetSpec, **entry))
        _check_distinct_set_ids(specs)

        rule_tokens = payload.get("rules", [rule.token for rule in PercentileRule])
        if (
            not isinstance(rule_tokens, list)
            or not all(isinstance(token, str) for token in rule_tokens)
            or len(set(rule_tokens)) != len(rule_tokens)
        ):
            raise ValueError(f"key 'rules' must be a list of distinct strings, got {rule_tokens!r}")
        scheme_token = payload.get("scheme", "p100")
        scope_token = payload.get("scope", "global")
        for key, value in (("scheme", scheme_token), ("scope", scope_token)):
            if not isinstance(value, str):
                raise ValueError(f"key {key!r} must be a string, got {value!r}")
        rules = tuple(parsed("key 'rules'", PercentileRule.from_token, token) for token in rule_tokens)
        scheme = parsed("key 'scheme'", RankClassScheme.from_token, scheme_token)
        scope = parsed("key 'scope'", ReferenceScope.from_token, scope_token)
        if len(rules) < 2:
            raise ValueError(f"key 'rules' must name at least 2 rules, got {len(rules)}")
        if scope in (ReferenceScope.PER_DOC_TYPE_POOL, ReferenceScope.PER_SET_AND_DOC_TYPE):
            raise ValueError(f"key 'scope': {scope.token!r} needs a doc_type, which generated sets lack")
        if len(specs) < 2:
            raise ValueError(f"key 'sets' must hold at least 2 sets, got {len(specs)}")
    except (ValueError, RecursionError) as exc:  # also not JSON, not UTF-8, or nested too deeply
        raise ValueError(f"experiment config {path}: {exc}") from None
    return ExperimentConfig(tuple(specs), rules, scheme, scope)


def override_seeds(config: ExperimentConfig, base_seed: int) -> ExperimentConfig:
    """Re-seed every set deterministically as ``base_seed + position``."""
    sets = tuple(
        replace(spec, seed=base_seed + position) for position, spec in enumerate(config.sets)
    )
    return config._replace(sets=sets)


def emit_divergence(result: DivergenceResult, fmt: str = "delimited") -> str:
    """Render a divergence result as sectioned CSV, aligned text, or JSON."""
    if fmt == "json":
        return json.dumps(result.to_dict(), indent=2) + "\n"
    tokens = [rule.token for rule in result.rules]
    n_sets = len(result.set_order)
    matrices = (("pearson", result.pearson), ("spearman", result.spearman))
    lines: list[str] = []
    if fmt == "aligned":
        width = max(len(token) for token in tokens)
        widths = [width] + [max(width, 10)] * len(tokens)  # one width shared by every matrix column
        for metric, matrix in matrices:
            rows = [["", *tokens]] + [[token, *(f"{value:.6f}" for value in row)] for token, row in zip(tokens, matrix)]
            lines.append(f"{metric.capitalize()} correlation of percent-I3:\n")
            lines += [*map(_aligned_line, rows, repeat(widths)), "\n"]
        lines.append("Top-ranked set per rule:\n")
        lines += [f"  {token.ljust(width)}  {result.top_set[token]}\n" for token in tokens]
    else:
        sections = [
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
        for caption, columns, rows in sections:
            lines.append(f"# {caption}\n")
            lines += map(_csv_line, [columns, *rows])
    return _report(fmt, f"rule divergence over {n_sets} sets", lines)


def fixture_path(name: str) -> Path:
    """Filesystem path of a packaged fixture (experiment configs, sample CSVs)."""
    return Path(__file__).parent / "fixtures" / name
