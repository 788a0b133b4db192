from __future__ import annotations

import builtins

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from citerank import CitationTable, ReferenceScope

# The one exact oracle lives beside the benchmark and imports nothing from citerank;
# `pythonpath` in pyproject.toml puts `perfbench/` on the import path.
from oracle import group_percentiles

# `--hypothesis-profile=thorough` runs each property on many more examples (a CI step uses it)
settings.register_profile("thorough", max_examples=2000)

# Reference group of a (set_id, doc_type) under each scope, written out independently of the package.
GROUP_OF_SCOPE = {
    ReferenceScope.GLOBAL_POOL: lambda set_id, doc_type: "all",
    ReferenceScope.PER_SET: lambda set_id, doc_type: set_id,
    ReferenceScope.PER_DOC_TYPE_POOL: lambda set_id, doc_type: doc_type,
    ReferenceScope.PER_SET_AND_DOC_TYPE: lambda set_id, doc_type: (set_id, doc_type),
}


def exact_percentiles(table, scope):
    """paper_id -> rule token -> each record's exact percentile (a Fraction) within its group under ``scope``."""
    group_of = GROUP_OF_SCOPE[scope]
    rows = table_rows(table)
    groups = {}
    for set_id, _, citations, doc_type in rows:
        groups.setdefault(group_of(set_id, doc_type), []).append(citations)
    exact = {key: group_percentiles(counts) for key, counts in groups.items()}
    return {paper_id: exact[group_of(set_id, doc_type)][citations] for set_id, paper_id, citations, doc_type in rows}


def oracle_entries(table, rule, scope=ReferenceScope.PER_SET):
    """paper_id -> percentile under ``rule`` (a :class:`citerank.PercentileRule`), the exact value rounded once."""
    return {paper_id: float(values[rule.token]) for paper_id, values in exact_percentiles(table, scope).items()}


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
    """A table of 1–60 records in 1–6 sets over 1–4 doc types, heavily tied, often uncited, in a drawn order.

    Each record's set and doc type are drawn on their own, so one set's papers span several
    doc-type groups. Paper ids are ``p0, p1, …`` in drawing order, before the records are shuffled.
    """
    set_ids = _SET_IDS[: draw(st.integers(1, len(_SET_IDS)))]
    doc_types = _DOC_TYPES[: draw(st.integers(1, len(_DOC_TYPES)))]
    counts = st.just(0) | st.integers(0, 4) | st.integers(0, 12) | st.integers(0, 500)
    rows = draw(st.lists(st.tuples(st.sampled_from(set_ids), counts, st.sampled_from(doc_types)),
                         min_size=1, max_size=60))
    order = draw(st.permutations(range(len(rows))))
    return CitationTable(*zip(*[(rows[i][0], f"p{i}", rows[i][1], rows[i][2]) for i in order]))


def table_rows(table):
    """A table's rows in order: (set_id, paper_id, citations, doc_type) tuples."""
    return list(zip(table.set_ids, table.paper_ids, table.citations, table.doc_types))


def make_table(counts, set_id="A", prefix=None, doc_type=None):
    """One set's table from a list of citation counts; its paper_ids are ``prefix`` and the position."""
    prefix = prefix if prefix is not None else set_id.lower()
    counts = list(counts)
    n = len(counts)
    return CitationTable([set_id] * n, [f"{prefix}{i}" for i in range(n)], counts, [doc_type] * n)


@pytest.fixture
def worked_set():
    """The 5-paper micro-set with counts {0, 1, 1, 2, 5}."""
    return make_table([0, 1, 1, 2, 5])


@pytest.fixture
def ten_reviews():
    """One 10-paper set with counts 0..9."""
    return make_table(range(10), set_id="reviews", prefix="r")
