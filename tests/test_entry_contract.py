"""Driver-contract guard rails for ``__ray_entry__``.

The driver's correctness gate runs every ``queries()`` entry AND its
``oracle_sql()`` string at sf0.01. These tests catch the cheap failure
modes before the driver does: an oracle that no longer parses/plans in
DuckDB, an oracle key without a query, or a query surface that drifted
(missing callables). Full value comparison stays where it belongs —
per-stage oracle tests and the driver's own sweep — except for the
three banded near-dup plans, whose rows are compared value-exact at
sf0.01 (they share one pair-emission core, so one drifted kernel or
bucketing bug shows up here).
"""

from __future__ import annotations

import duckdb
import pytest

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"
TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


@pytest.fixture(scope="module")
def entry():
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


def test_every_oracle_key_has_a_query(entry):
    qs, os_ = entry.queries(), entry.oracle_sql()
    assert set(os_) <= set(qs), sorted(set(os_) - set(qs))
    # the one intentionally rows-only query (model scores are not SQL)
    assert set(qs) - set(os_) == {"rank_part_names"}


def test_every_oracle_sql_plans_in_duckdb(entry, con):
    """EXPLAIN each oracle against the real sf0.001 views: catches
    syntax errors, renamed columns and type errors without paying the
    execution cost of the heavy recursive/self-join oracles."""
    for name, sql in entry.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except Exception as e:  # pragma: no cover - failure path
            pytest.fail(f"oracle_sql[{name!r}] does not plan: {e}")


def test_queries_are_callables(entry):
    for name, fn in entry.queries().items():
        assert callable(fn), name


@pytest.mark.parametrize(
    "name", ["minhash_near_dup", "minhash_dedup_incremental", "simhash_near_dup"]
)
def test_banded_near_dup_rows_match_oracle(entry, name):
    """The md5-basis banded plans reproduce their DuckDB oracle
    row-for-row and value-exact at sf0.01."""
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF01}/documents.parquet')"
    )
    want = c.execute(entry.oracle_sql()[name]).df()
    got = entry.queries()[name](SF01).to_pandas()
    cols = list(want.columns)
    assert len(want) > 0
    assert sorted(got[cols].itertuples(index=False, name=None)) == sorted(
        want.itertuples(index=False, name=None)
    )


def test_rank_part_names_passes_its_numpy_pin(entry):
    """rank_part_names asserts in-query that its ranked pairs equal the
    NumPy oracle's; part names repeat, so more than k candidates can
    tie at a distance of exactly 0, and the pin holds only if ties go
    by candidate_id whatever the session's CPU count."""
    df = entry.queries()["rank_part_names"](SF01)
    assert len(df) > 0
