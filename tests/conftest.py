from __future__ import annotations

import builtins

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from citerank import CitationRecord, ReferenceScope

# The one exact oracle lives beside the benchmark and imports nothing from citerank;
# `pythonpath` in pyproject.toml puts `perfbench/` on the import path.
from oracle import group_percentiles

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


def spy(monkeypatch, owner, name, note=lambda *args, **kwargs: args, calls=None):
    """Wrap ``owner.<name>`` so that each call first appends ``note(*args, **kwargs)`` to ``calls``; return ``calls``.

    ``owner`` is a module, a class (for ``__init__`` or ``__post_init__``) or a ``cached_property``
    (with ``name="func"``). A name the module lacks is the builtin of that name, such as ``format``.
    """
    calls = [] if calls is None else calls
    wrapped = getattr(owner, name) if hasattr(owner, name) else getattr(builtins, name)

    def spying(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, spying, raising=False)
    return calls


# Display labels of the sets and doc types: set "a/b" with doc type "c" and set "a" with
# doc type "b/c" show one `per-set-and-doc-type` label for two groups.
_SET_IDS = ("a/b", "a", "A", "B", "C", "S5")
_DOC_TYPES = ("c", "b/c", "article", "review")


@st.composite
def citation_tables(draw):
    """1–60 records in 1–6 sets over 1–4 doc types, heavily tied, often uncited, in a drawn order.

    Each record's set and doc type are drawn on their own, so one set's papers span several
    doc-type groups. Paper ids are ``p0, p1, …`` in drawing order, before the records are shuffled.
    """
    set_ids = _SET_IDS[: draw(st.integers(1, len(_SET_IDS)))]
    doc_types = _DOC_TYPES[: draw(st.integers(1, len(_DOC_TYPES)))]
    counts = st.just(0) | st.integers(0, 4) | st.integers(0, 12) | st.integers(0, 500)
    rows = draw(st.lists(st.tuples(st.sampled_from(set_ids), counts, st.sampled_from(doc_types)),
                         min_size=1, max_size=60))
    order = draw(st.permutations(range(len(rows))))
    return [CitationRecord(rows[i][0], f"p{i}", rows[i][1], rows[i][2]) for i in order]


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
