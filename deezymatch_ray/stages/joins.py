"""Temporal joins Ray Data lacks natively.

``asof_join_latest``: for every left row, the greatest right-side
timestamp at-or-before (or strictly before) the left row's timestamp
within the same key — the classic AS-OF join. The reference engine has
no temporal joins (it is a string-matching pipeline); this is part of
the engine's own large-scale-pipeline surface, verified value-exact
against DuckDB's native ``ASOF JOIN``.

Physical plan: one ``blocking.cogroup`` on the key (the right side
projected to (key, ts)), and each call resolves all its keys' left
rows with ONE sorted ``searchsorted`` pass — no per-row loop, no window
materialization. The exchange carries each row exactly once; a hot key
still lands in one call, with all its rows.

The resolve stage runs on **pyarrow** tables end-to-end: carried
left columns are sliced out of the Arrow table with ``filter`` and never
pass through pandas, so an int64 id column keeps full 64-bit precision
(a pandas ``map_groups`` would widen null-padded int columns to float64
during Arrow→pandas conversion and silently corrupt ids above 2**53 —
casting back afterwards cannot restore the lost mantissa bits).

Determinism note: only the matched right-side TIMESTAMP (and values
derived from it) is emitted. Emitting arbitrary right-side payload
columns would be nondeterministic when several right rows tie on the
as-of timestamp — the same reason DuckDB's ASOF JOIN result is
undefined beyond the timestamp on ties.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from deezymatch_ray.stages.blocking import _np_rows, cogroup


def asof_join_latest(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    ts_col: str,
    out_col: str = "asof_ts",
    strict: bool = True,
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Left rows + ``out_col`` = latest right ``ts_col`` before the left
    row's (strictly when ``strict``), NaT when the key has no earlier
    right row. Right side needs only (key, ts_col)."""
    side = "left" if strict else "right"
    nat = np.datetime64("NaT", "us")

    def resolve(lt: pa.Table, rt: pa.Table) -> pa.Table:
        """A call holds whole hash buckets of MANY keys: resolve per key
        (vectorized searchsorted within each key's rows; Python cost is
        O(#keys)).
        Pure-Arrow row selection — left payload columns keep their exact
        dtypes and values (no pandas float64 round-trip). Null-key or
        null-timestamp left rows are emitted with NaT (a None key can't
        equal any right key; left-join semantics keep the row); null
        right rows are excluded before the sort — object arrays holding
        None would otherwise make lexsort/argsort raise."""
        import pyarrow.compute as pc

        n_left = lt.num_rows
        if n_left == 0:
            return lt.append_column(
                out_col, pa.array(np.array([], dtype="datetime64[us]"))
            )
        rt = pa.table({key: rt[key].cast(lt[key].type),
                       ts_col: rt[ts_col].cast(lt[ts_col].type)})

        def rows(t: pa.Table):
            """(key, ts, null) NumPy rows of one side."""
            kcol = t[key]
            if kcol.null_count and (
                pa.types.is_integer(kcol.type) or pa.types.is_floating(kcol.type)
            ):
                # a null in a numeric key column would force to_numpy
                # into float64 for EVERY row, colliding distinct int64
                # keys above 2**53; fill nulls (those rows are excluded
                # from matching) so valid keys keep exact dtype
                kcol = pc.fill_null(kcol, pa.scalar(0).cast(kcol.type))
            null = pc.fill_null(
                pc.or_(pc.is_null(t[key]), pc.is_null(t[ts_col])), True
            ).to_numpy(zero_copy_only=False)
            return _np_rows(kcol), _np_rows(t[ts_col]), null

        lkeys, lts, lnull = rows(lt)
        rkeys, rts, rnull = rows(rt)
        rkeys, rts = rkeys[~rnull], rts[~rnull]
        out = np.full(n_left, nat, dtype="datetime64[us]")
        lvalid = np.flatnonzero(~lnull)
        if len(rkeys) and len(lvalid):
            ro = np.lexsort((rts, rkeys))
            rkeys_s, rts_s = rkeys[ro], rts[ro]
            lorder = lvalid[np.argsort(lkeys[lvalid], kind="stable")]
            lkeys_s, lts_s = lkeys[lorder], lts[lorder]
            n_valid = len(lorder)
            starts = np.flatnonzero(
                np.r_[True, lkeys_s[1:] != lkeys_s[:-1]]
            )
            ends = np.r_[starts[1:], n_valid]
            for s, e in zip(starts, ends):
                a = np.searchsorted(rkeys_s, lkeys_s[s], side="left")
                b = np.searchsorted(rkeys_s, lkeys_s[s], side="right")
                if a == b:
                    continue
                seg = rts_s[a:b]
                idx = np.searchsorted(seg, lts_s[s:e], side=side) - 1
                out[lorder[s:e]] = np.where(
                    idx >= 0, seg[np.maximum(idx, 0)], nat
                )
        return lt.append_column(out_col, pa.array(out))

    return cogroup(left, right.select_columns([key, ts_col]), [key], resolve,
                   num_partitions)
