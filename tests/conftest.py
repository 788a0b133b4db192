from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

from citerank import CitationRecord, ReferenceScope

# The one exact oracle lives beside the benchmark and imports nothing from citerank.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import group_percentiles  # noqa: E402

# `--hypothesis-profile=thorough` runs each property on many more examples (a CI step uses it)
settings.register_profile("thorough", max_examples=2000)

# Reference group of a record under each scope, written out independently of the package.
GROUP_OF_SCOPE = {
    ReferenceScope.GLOBAL_POOL: lambda record: "all",
    ReferenceScope.PER_SET: lambda record: record.set_id,
    ReferenceScope.PER_DOC_TYPE_POOL: lambda record: record.doc_type,
    ReferenceScope.PER_SET_AND_DOC_TYPE: lambda record: (record.set_id, record.doc_type),
}


def exact_percentiles(records, scope):
    """paper_id -> rule token -> each record's exact percentile (a Fraction) within its group under ``scope``."""
    group_of = GROUP_OF_SCOPE[scope]
    groups = {}
    for record in records:
        groups.setdefault(group_of(record), []).append(record.citations)
    exact = {key: group_percentiles(counts) for key, counts in groups.items()}
    return {record.paper_id: exact[group_of(record)][record.citations] for record in records}


def oracle_entries(records, rule, scope=ReferenceScope.PER_SET):
    """paper_id -> percentile under ``rule`` (a :class:`citerank.PercentileRule`), the exact value rounded once."""
    return {paper_id: float(values[rule.token]) for paper_id, values in exact_percentiles(records, scope).items()}


def table_rows(table, as_records=False):
    """A table's rows in order: (set_id, paper_id, citations, doc_type) tuples, or CitationRecords."""
    rows = zip(table.set_ids, table.paper_ids, table.citations, table.doc_types)
    return [CitationRecord(*row) for row in rows] if as_records else list(rows)


def make_records(counts, set_id="A", prefix=None, doc_type=None):
    """Build one set's records from a list of citation counts."""
    prefix = prefix if prefix is not None else set_id.lower()
    return [
        CitationRecord(set_id, f"{prefix}{i}", count, doc_type)
        for i, count in enumerate(counts)
    ]


@pytest.fixture
def worked_set():
    """The 5-paper micro-set with counts {0, 1, 1, 2, 5}."""
    return make_records([0, 1, 1, 2, 5])


@pytest.fixture
def ten_reviews():
    """One 10-paper set with counts 0..9."""
    return make_records(range(10), set_id="reviews", prefix="r")
