"""AS-OF join stage vs brute force: strict/non-strict boundaries,
timestamp ties, keys with no right rows, and many keys per bucket."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from deezymatch_ray.stages.joins import asof_join_latest


def _dt(s: str) -> np.datetime64:
    return np.datetime64(s, "us")


def test_asof_join_latest_matches_bruteforce():
    rng = np.random.default_rng(3)
    keys = [f"u{i}" for i in range(20)]
    base = np.datetime64("2024-01-01T00:00:00", "us")
    left_rows = []
    right_rows = []
    for i in range(400):
        left_rows.append((i, keys[int(rng.integers(0, 20))],
                          base + np.timedelta64(int(rng.integers(0, 10**6)), "s")))
    for _ in range(150):
        right_rows.append((keys[int(rng.integers(0, 15))],  # u15..u19 have NO rights
                           base + np.timedelta64(int(rng.integers(0, 10**6)), "s")))
    # deliberate tie: one left exactly at a right timestamp
    right_rows.append(("u0", left_rows[0][2]))

    left = ray.data.from_arrow(pa.table({
        "event_id": [r[0] for r in left_rows],
        "k": [r[1] for r in left_rows],
        "ts": pa.array([r[2].astype("datetime64[us]").item() for r in left_rows],
                       type=pa.timestamp("us")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": [r[0] for r in right_rows],
        "ts": pa.array([r[1].astype("datetime64[us]").item() for r in right_rows],
                       type=pa.timestamp("us")),
    }))

    for strict in (True, False):
        got = asof_join_latest(left, right, key="k", ts_col="ts",
                               strict=strict, num_partitions=8).to_pandas()
        # carried left columns keep their input dtypes: the null-padded
        # union must not leak pandas' int64->float64 widening
        assert got["event_id"].dtype == np.int64, got.dtypes
        assert got["k"].dtype == object
        got = got.sort_values("event_id").reset_index(drop=True)
        rmap: dict[str, list] = {}
        for k, ts in right_rows:
            rmap.setdefault(k, []).append(ts)
        want = []
        for i, k, ts in left_rows:
            cands = [t for t in rmap.get(k, [])
                     if (t < ts if strict else t <= ts)]
            want.append(max(cands) if cands else None)
        for i in range(len(left_rows)):
            g = got.loc[i, "asof_ts"]
            w = want[i]
            if w is None:
                assert pd.isna(g), (strict, i)
            else:
                assert pd.Timestamp(g) == pd.Timestamp(w.astype("datetime64[us]").item()), (strict, i)
    # the tie row: strict skips the equal-ts right, non-strict takes it
    assert len(got) == 400


def test_asof_join_preserves_every_carried_dtype_and_big_ints():
    """Round-4 regression (ADVICE r3 medium): the resolve stage runs on
    pyarrow group blocks, so carried int64 payloads above 2**53 must
    come back bit-exact — the old pandas map_groups widened them to
    float64 (losing mantissa bits) before the dtype restore ran. Also
    pins the dtype of EVERY carried column."""
    base = np.datetime64("2024-01-01T00:00:00", "us")
    big = 2**61 + 12345  # not representable in float64
    left_tbl = pa.table({
        "snowflake_id": pa.array([big, big + 1, big + 2], type=pa.int64()),
        "small_i32": pa.array([7, 8, 9], type=pa.int32()),
        "price": pa.array([1.5, 2.5, 3.5], type=pa.float64()),
        "tag": pa.array(["x", "y", "z"]),
        "k": ["a", "a", "b"],
        "ts": pa.array([
            (base + np.timedelta64(i + 1, "h")).astype("datetime64[us]").item()
            for i in range(3)
        ], type=pa.timestamp("us")),
    })
    right = ray.data.from_arrow(pa.table({
        "k": ["a"],
        "ts": pa.array([base.astype("datetime64[us]").item()],
                       type=pa.timestamp("us")),
    }))
    out = asof_join_latest(ray.data.from_arrow(left_tbl), right,
                           key="k", ts_col="ts", num_partitions=4)
    tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    for name in left_tbl.schema.names:
        assert tbl.schema.field(name).type == left_tbl.schema.field(name).type, name
    got = dict(zip(tbl["snowflake_id"].to_pylist(), tbl["tag"].to_pylist()))
    assert got == {big: "x", big + 1: "y", big + 2: "z"}


def test_asof_join_carries_nullable_int_columns():
    """Round-3 regression: a carried left int column that itself holds
    nulls must survive the dtype-restore (the plain astype(int64) raised
    IntCastingNaNError); output schema stays int64 (nullable)."""
    base = np.datetime64("2024-01-01T00:00:00", "us")
    left = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, None, 4], type=pa.int64()),
        "k": ["a", "a", "b", "b"],
        "ts": pa.array([
            (base + np.timedelta64(i, "h")).astype("datetime64[us]").item()
            for i in range(4)
        ], type=pa.timestamp("us")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": ["a", "b"],
        "ts": pa.array([
            base.astype("datetime64[us]").item(),
            (base + np.timedelta64(1, "h")).astype("datetime64[us]").item(),
        ], type=pa.timestamp("us")),
    }))
    out = asof_join_latest(left, right, key="k", ts_col="ts",
                           strict=False, num_partitions=4)
    tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    assert tbl.schema.field("event_id").type == pa.int64()
    df = tbl.to_pandas().sort_values("ts").reset_index(drop=True)
    assert df["event_id"].isna().sum() == 1 and len(df) == 4


def test_asof_join_null_keys_and_null_ts_survive():
    """r4 ADVICE (low): a null join key (or null left timestamp) must
    not crash the lexsort — left-join semantics keep the row with NaT;
    null-key/null-ts right rows are excluded from matching."""
    base = np.datetime64("2024-03-01T00:00:00", "us")

    def ts(h):
        return (base + np.timedelta64(h, "h")).astype("datetime64[us]").item()

    left = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "k": pa.array(["a", None, "a", "b"]),
        "ts": pa.array([ts(2), ts(2), None, ts(2)], type=pa.timestamp("us")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", None, "b"]),
        "ts": pa.array([ts(1), ts(0), None], type=pa.timestamp("us")),
    }))
    got = asof_join_latest(left, right, key="k", ts_col="ts",
                           strict=True, num_partitions=4).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    assert len(got) == 4
    # event 1: k=a matches right ts(1); 2: null key → NaT; 3: null left
    # ts → NaT; 4: k=b has only a null-ts right row → NaT
    assert pd.Timestamp(got.loc[0, "asof_ts"]) == pd.Timestamp(ts(1))
    assert got.loc[1:, "asof_ts"].isna().all()


def test_asof_join_big_int_keys_with_nulls_keep_precision():
    """r5 review: a null in a numeric key column must not degrade the
    whole key array to float64 — distinct int64 keys above 2**53 would
    collide and swap their asof matches."""
    base = np.datetime64("2024-05-01T00:00:00", "us")

    def ts(h):
        return (base + np.timedelta64(h, "h")).astype("datetime64[us]").item()

    k1, k2 = 2**53, 2**53 + 1  # float64-indistinguishable
    left = ray.data.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3], type=pa.int64()),
        "k": pa.array([k1, k2, None], type=pa.int64()),
        "ts": pa.array([ts(5), ts(5), ts(5)], type=pa.timestamp("us")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([k1, k2], type=pa.int64()),
        "ts": pa.array([ts(1), ts(2)], type=pa.timestamp("us")),
    }))
    got = asof_join_latest(left, right, key="k", ts_col="ts",
                           strict=True, num_partitions=2).to_pandas()
    got = got.sort_values("event_id").reset_index(drop=True)
    assert pd.Timestamp(got.loc[0, "asof_ts"]) == pd.Timestamp(ts(1))
    assert pd.Timestamp(got.loc[1, "asof_ts"]) == pd.Timestamp(ts(2))
    assert pd.isna(got.loc[2, "asof_ts"])


def _rows(ds: ray.data.Dataset, cols: list[str]) -> list[tuple]:
    t = pa.concat_tables([b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
                          if b.num_rows]) if ds.count() else pa.table({c: [] for c in cols})
    return sorted(zip(*(t[c].to_pylist() for c in cols)))


def test_cogroup_inner_and_anti_edge_cases():
    """``cogroup`` hands ``fn`` each side's slice under its own names and
    types, also when a side is empty or a key is on one side only; its
    inner join gives every matching pair of duplicate keys and casts an
    int32 right key to the left's int64 (``q_nation_balance``'s case)."""
    from deezymatch_ray.stages.blocking import cogroup, inner_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 2**40], type=pa.int64()), "x": ["a", "b", "c", "d"]}))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 2, 3, 4], type=pa.int32()), "y": [1.0, 2.0, 3.0, 4.0]}))
    inner = inner_join(["k"], ["rk"])
    assert _rows(cogroup(left, right, ["k"], inner, 8, right_on=["rk"]), ["k", "x", "y"]) == [
        (2, "b", 1.0), (2, "b", 2.0), (3, "c", 3.0)]

    def anti(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.filter(pc.invert(pc.is_in(lt["k"], value_set=rt["rk"].cast(pa.int64()))))

    assert _rows(cogroup(left, right, ["k"], anti, 8, right_on=["rk"]), ["k", "x"]) == [
        (1, "a"), (2**40, "d")]

    empty_left = ray.data.from_arrow(pa.table({
        "k": pa.array([], type=pa.int64()), "x": pa.array([], type=pa.string())}))
    empty_right = ray.data.from_arrow(pa.table({
        "rk": pa.array([], type=pa.int32()), "y": pa.array([], type=pa.float64())}))
    assert _rows(cogroup(empty_left, right, ["k"], inner, 8, right_on=["rk"]),
                 ["k", "x", "y"]) == []
    assert _rows(cogroup(left, empty_right, ["k"], inner, 8, right_on=["rk"]),
                 ["k", "x", "y"]) == []
    assert _rows(cogroup(left, empty_right, ["k"], anti, 8, right_on=["rk"]), ["k", "x"]) == [
        (1, "a"), (2, "b"), (3, "c"), (2**40, "d")]

    # the slices' schemas, reported through the output (fn runs in workers)
    def schemas(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({"l": [str(lt.schema)], "r": [str(rt.schema)]})

    got = _rows(cogroup(left, empty_right, ["k"], schemas, 8, right_on=["rk"]), ["l", "r"])
    assert {r for _, r in got} == {"rk: int32\ny: double"}
    assert {lt for lt, _ in got} == {"k: int64\nx: string"}
