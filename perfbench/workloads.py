"""Seeded inputs and CLI argument lists for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng([seed, k])``, with ``k``
fixed per workload, so one seed always writes the same files. The program under test only ever sees those
files (or, for ``simulate``, the JSON config it is given).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import check_divergence, check_per_paper, check_ranking, simulated_sets

RULES = ("quantile", "lb09", "rousseau-raw", "rousseau")
# nsf6 first: its I3 values are integers, so ties in the primary row order are exact
RANK_SCHEMES = ("nsf6", "p100")

RANK_SETS, RANK_RECORDS, RANK_SPREAD = 200, 40_000, 100
PAPER_SETS, PAPER_RECORDS, PAPER_SPREAD = 20, 200_000, 4_000
SIM_SETS, SIM_SET_SIZE = 20, 10_000
# Simulated uncited shares are multiples of 1/64: for those, floor(share * n) is the same
# in decimal and in binary float arithmetic (see the FOUND note on generate_set).
SHARE_STEP = 64
HIGH_UNCITED_SHARE = 59 / SHARE_STEP

DOC_TYPES = ("article", "review", "letter")
DOC_MIX = (0.70, 0.10, 0.20)
# Per doc type: (uncited-share multiplier, mu offset) applied to the set's own parameters.
DOC_SHAPE = {"article": (1.0, 0.0), "review": (1.0 / 3.0, 1.0), "letter": (1.5, -0.7)}


@dataclass(frozen=True)
class Workload:
    """One generated input, the CLI arguments that process it, and the check of their output."""

    args: tuple[str, ...]
    records: int
    check: Callable[[str], None]  # raises oracle.Mismatch on a wrong report


def _paired_sizes(rng: np.random.Generator, n_sets: int, total: int, spread: int) -> list[int]:
    """Set sizes mean +/- d in pairs, so they always sum to ``total`` exactly."""
    mean = total // n_sets
    offsets = rng.integers(-spread, spread + 1, size=n_sets // 2)
    sizes = np.concatenate([mean + offsets, mean - offsets])
    rng.shuffle(sizes)
    return [int(size) for size in sizes]


def _zero_inflated(rng: np.random.Generator, n: int, uncited: float, mu: float, sigma: float) -> list[int]:
    n_zero = int(uncited * n)
    cited = np.maximum(np.floor(rng.lognormal(mu, sigma, n - n_zero)), 1).astype(np.int64)
    return [0] * n_zero + cited.tolist()


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _shuffled(rng: np.random.Generator, rows: list[tuple]) -> list[tuple]:
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def rank_many_sets(seed: int, workdir: Path) -> Workload:
    """200 sets, 40k records in all, global scope: the per-set aggregation dominates."""
    rng = np.random.default_rng([seed, 1])
    sets: dict[str, list[tuple]] = {}
    for index, size in enumerate(_paired_sizes(rng, RANK_SETS, RANK_RECORDS, RANK_SPREAD)):
        set_id = f"J{index + 1:03d}"
        uncited, mu, sigma = rng.uniform(0.05, 0.6), rng.uniform(0.3, 2.0), rng.uniform(0.6, 1.4)
        counts = _zero_inflated(rng, size, uncited, mu, sigma)
        sets[set_id] = [(f"{set_id}-{i:05d}", c, None) for i, c in enumerate(counts)]
    rows = [(s, p, c) for s, papers in sets.items() for p, c, _ in papers]
    path = workdir / "rank_many_sets.csv"
    _write_csv(path, ["set_id", "paper_id", "citations"], _shuffled(rng, rows))
    args = ["rank", "--input", str(path)]
    args += [flag for rule in RULES for flag in ("--rule", rule)]
    args += [flag for scheme in RANK_SCHEMES for flag in ("--scheme", scheme)]
    args += ["--scope", "global", "--format", "delimited"]
    check = partial(check_ranking, sets=sets, rules=RULES, schemes=RANK_SCHEMES, scope="global")
    return Workload(tuple(args), len(rows), check)


def per_paper_large(seed: int, workdir: Path) -> Workload:
    """20 sets, 200k records with a doc_type column; per-paper percentiles, no aggregation."""
    rng = np.random.default_rng([seed, 2])
    sets: dict[str, list[tuple]] = {}
    for index, size in enumerate(_paired_sizes(rng, PAPER_SETS, PAPER_RECORDS, PAPER_SPREAD)):
        set_id = f"S{index + 1:02d}"
        uncited, mu, sigma = rng.uniform(0.05, 0.5), rng.uniform(0.5, 1.8), rng.uniform(0.7, 1.2)
        kinds = rng.choice(len(DOC_TYPES), size=size, p=DOC_MIX)
        shares = np.minimum(0.9, uncited * np.array([DOC_SHAPE[d][0] for d in DOC_TYPES]))[kinds]
        shifts = np.array([DOC_SHAPE[d][1] for d in DOC_TYPES])[kinds]
        uncited_mask = rng.random(size) < shares
        cited = np.maximum(np.floor(rng.lognormal(mu + shifts, sigma)), 1).astype(np.int64)
        counts = np.where(uncited_mask, 0, cited).tolist()
        sets[set_id] = [
            (f"{set_id}-{i:05d}", count, DOC_TYPES[kind])
            for i, (count, kind) in enumerate(zip(counts, kinds.tolist()))
        ]
    rows = [(s, p, c, d) for s, papers in sets.items() for p, c, d in papers]
    path = workdir / "per_paper_large.csv"
    _write_csv(path, ["set_id", "paper_id", "citations", "doc_type"], _shuffled(rng, rows))
    args = ["rank", "--input", str(path), "--per-paper"]
    args += [flag for rule in RULES for flag in ("--rule", rule)]
    args += ["--scope", "per-set-and-doc-type", "--format", "delimited"]
    check = partial(check_per_paper, sets=sets, rules=RULES, scope="per-set-and-doc-type")
    return Workload(tuple(args), len(rows), check)


def simulate_divergence(seed: int, workdir: Path) -> Workload:
    """The divergence experiment at scale: 20 generated sets of 10k papers, per-set scope."""
    rng = np.random.default_rng([seed, 3])
    high = int(rng.integers(SIM_SETS))
    specs = {}
    for index in range(SIM_SETS):
        set_id = f"J{index + 1:02d}"
        uncited = HIGH_UNCITED_SHARE if index == high else int(rng.integers(3, 39)) / SHARE_STEP
        specs[set_id] = {
            "set_id": set_id,
            "n": SIM_SET_SIZE,
            "uncited_share": uncited,
            "mu": round(float(rng.uniform(0.3, 2.0)), 3),
            "sigma": round(float(rng.uniform(0.6, 1.3)), 3),
            "seed": int(rng.integers(2**31)),
        }
    config = {"sets": list(specs.values()), "rules": list(RULES), "scheme": "p100", "scope": "per-set"}
    path = workdir / "simulate_divergence.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    args = ("simulate", "--config", str(path), "--format", "delimited")
    check = partial(check_divergence, sets=simulated_sets(specs), rules=RULES, scope="per-set")
    return Workload(args, SIM_SETS * SIM_SET_SIZE, check)


WORKLOADS = {
    "rank-many-sets": rank_many_sets,
    "per-paper-large": per_paper_large,
    "simulate-divergence": simulate_divergence,
}


if __name__ == "__main__":
    # Writes one workload's inputs in a process of its own and prints its CLI arguments,
    # so the benchmark process stays small while it measures child peak RSS.
    import sys

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name](seed, workdir)
    print(json.dumps({"args": workload.args, "records": workload.records}))
