"""Transitive clustering: scored edges → entity clusters.

The reference stops at ranked candidate lists; the north star adds a
transitive-clustering stage (distributed union-find over scored edges).
Semantics: connected components of the graph {(a, b) : score-accepted
pair}, cluster id = min doc_id in the component (deterministic).

Physical plans:
- ``connected_components_driver``: exact union-find on the driver; used
  when the edge count is below ``cluster_driver_edge_limit`` (edges,
  not documents, bound memory — after thresholding the edge set is
  orders of magnitude smaller than the input).
- ``connected_components_distributed``: iterative min-label propagation
  with pointer doubling — each round pushes labels along edges, takes
  per-node minima, then follows label→label(label); both lookups are
  ``blocking.cogroup`` inner joins (the library's one two-sided keyed
  exchange) and the minima ``groupby().min``. It converges in
  O(log component diameter) rounds with a fixpoint check per round; a
  non-converged exit raises instead of returning silently split
  clusters. Both plans are cross-checked for equality in tests.

Duplicate edges (the same pair surfacing from several shared blocking
keys) are harmless to both plans — no upstream pair-dedup shuffle is
needed for clustering (SURVEY §7.3 note).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Min

from deezymatch_ray.stages.blocking import bucket_ranges, cogroup, inner_join


def connected_components_driver(edges: list[tuple[str, str]], nodes: list[str] | None = None) -> dict[str, str]:
    """Union-find with path compression; cluster id = min member."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # keep the smaller root (in the id type's order) → min-member cluster id
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra

    for a, b in edges:
        union(a, b)
    out = {}
    seen = set()
    for a, b in edges:
        for x in (a, b):
            if x not in seen:
                seen.add(x)
                out[x] = find(x)
    for x in nodes or []:
        if x not in seen:
            out[x] = x
    return out


def _hot_keys(ds: ray.data.Dataset, key_col: str, threshold: int) -> dict:
    """{key: row_count} for keys with ≥ ``threshold`` rows. The census
    groupby shuffles (key, count) partials, and the collect is bounded
    by construction: at most total_rows/threshold keys can be hot."""
    counts = ds.groupby(key_col).count()
    cname = [c for c in counts.schema().names if c != key_col][0]

    def flt(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b[cname], pa.scalar(threshold)))

    rows = counts.map_batches(flt, batch_format="pyarrow").take_all()
    return {r[key_col]: r[cname] for r in rows}


def _hot_mask(col, hot: set) -> np.ndarray:
    """Vectorized membership of an Arrow column in the hot-key set —
    pyarrow's C is_in kernel, no per-row Python boxing (this runs on
    every batch of both sides of both joins when salting is active)."""
    import pyarrow.compute as pc

    return pc.is_in(col, value_set=pa.array(sorted(hot))).to_numpy(
        zero_copy_only=False
    )


def _salt_fact(ds: ray.data.Dataset, key_col: str, hot: set, R: int,
               col: str = "__salt") -> ray.data.Dataset:
    """Round-robin salt on hot-key rows (cold rows salt 0): spreads a
    skewed co-group key over R salted keys."""

    def fn(b: pa.Table) -> pa.Table:
        n = b.num_rows
        salts = np.zeros(n, dtype=np.int32)
        m = _hot_mask(b[key_col], hot)
        if m.any():
            salts[m] = np.arange(int(m.sum()), dtype=np.int32) % R
        return b.append_column(col, pa.array(salts))

    return ds.map_batches(fn, batch_format="pyarrow")


def _salt_dim(ds: ray.data.Dataset, key_col: str, hot: set, R: int,
              col: str = "__salt") -> ray.data.Dataset:
    """Replicate hot-key rows R times (salt 0..R-1) so every salted
    fact partition finds its match; cold rows get salt 0 once."""

    def fn(b: pa.Table) -> pa.Table:
        n = b.num_rows
        m = _hot_mask(b[key_col], hot)
        if not m.any():
            return b.append_column(col, pa.array(np.zeros(n, dtype=np.int32)))
        cold = np.flatnonzero(~m)
        hot_idx = np.flatnonzero(m)
        take = np.concatenate([cold, np.repeat(hot_idx, R)])
        salts = np.concatenate([
            np.zeros(len(cold), dtype=np.int32),
            np.tile(np.arange(R, dtype=np.int32), len(hot_idx)),
        ])
        return b.take(pa.array(take)).append_column(col, pa.array(salts))

    return ds.map_batches(fn, batch_format="pyarrow")


def _partial_min(node_col: str, val_cols: list[str]):
    """Block-local (node, min(vals)) combiner — pyarrow's C group_by.
    Bounds any hot node's reduce-side rows at #blocks instead of its
    degree, making the downstream groupby skew-safe. Output columns are
    selected BY NAME (``{col}_min`` per the pyarrow naming contract) —
    positional renames would silently swap columns on a pyarrow release
    that orders aggregate output differently."""

    def fn(b: pa.Table) -> pa.Table:
        g = b.group_by(node_col).aggregate([(c, "min") for c in val_cols])
        return pa.table(
            {node_col: g[node_col],
             **{c: g[f"{c}_min"] for c in val_cols}}
        )

    return fn


def connected_components_distributed(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset | None = None,
    src: str = "src",
    dst: str = "dst",
    max_rounds: int = 50,
    num_partitions: int = 32,
    hot_key_threshold: int = 100_000,
    stats: dict | None = None,
) -> ray.data.Dataset:
    """Min-label propagation until fixpoint → (doc_id, cluster_id).

    edges: Dataset with id columns (src, dst) of one type, which the
    output keeps (a label is the component's minimum id in that type's
    order). nodes (optional): Dataset with column doc_id covering
    isolated documents.

    Skew hardening (r4 VERDICT #2 — giant components): every exchange
    that concentrates on a hot key is bounded:

    - the per-node min groupbys run behind a block-local pyarrow
      combiner (``_partial_min``), so a hub node's reduce partition
      receives #blocks rows, not its degree;
    - both co-groups (edge⋈label on node; the pointer-doubling label →
      label(label) lookup, whose key distribution collapses onto one
      label per component as rounds converge) are SALTED: a
      combiner-safe census (``_hot_keys``) finds keys with ≥
      ``hot_key_threshold`` rows, the skewed side gets round-robin
      salts, the unique side is replicated R ways, R being the
      co-group's range count (``blocking.bucket_ranges``), and the key
      becomes (key, salt) — a hot key's rows spread over the ranges
      instead of landing in one call. The node census runs once
      (degree is static; the edges are salted once); the label census
      runs per round on the already-materialized label table and ships
      only (label, count) partials.

    ``stats`` (optional dict) receives {"hot_nodes": int,
    "hot_label_rounds": int, "max_hot_label_count": int} for tests and
    ops visibility. Set ``hot_key_threshold=0`` semantics: values < 2
    are rejected; pass a large value to effectively disable salting.
    """
    if hot_key_threshold < 2:
        raise ValueError("hot_key_threshold must be ≥ 2")

    def to_directed(batch: pa.Table) -> pa.Table:
        a = batch[src].combine_chunks() if isinstance(batch[src], pa.ChunkedArray) else batch[src]
        b = batch[dst].combine_chunks() if isinstance(batch[dst], pa.ChunkedArray) else batch[dst]
        return pa.table({
            "node": pa.concat_arrays([a, b]),
            "nbr": pa.concat_arrays([b, a]),
        })

    directed = edges.map_batches(to_directed, batch_format="pyarrow")
    # labels(node) = min(node, min neighbor) to start; the block-local
    # combiner keeps a hub node's shuffle rows at #blocks, not degree
    labels = (
        directed.map_batches(_partial_min("node", ["nbr"]),
                             batch_format="pyarrow")
        .groupby("node").aggregate(Min("nbr", alias_name="min_nbr"))
    )

    def init_label(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lab = pc.min_element_wise(batch["node"], batch["min_nbr"])
        return pa.table({"node": batch["node"], "label": lab})

    labels = labels.map_batches(init_label, batch_format="pyarrow").materialize()
    directed = directed.materialize()

    n_lab = labels.count()
    P = bucket_ranges(num_partitions)

    # static degree census: hub nodes (degree ≥ threshold) are salted
    # once on the edge side of every round's push. Salting needs ≥2
    # ranges to spread anything; a graph with fewer total rows than the
    # threshold can't have a hot key, so small graphs skip the census
    # aggregates entirely.
    n_directed = directed.count()  # metadata-free: materialized above
    hot_nodes: set = set()
    if P > 1 and n_directed >= hot_key_threshold:
        hot_nodes = set(_hot_keys(directed, "node", hot_key_threshold))
        directed = _salt_fact(directed, "node", hot_nodes, P).materialize()
    if stats is not None:
        stats["hot_nodes"] = len(hot_nodes)
        stats["hot_label_rounds"] = 0
        stats["max_hot_label_count"] = 0
        stats["salt_width"] = P
    push_on = ("node", "__salt") if hot_nodes else ("node",)

    def push(d: pa.Table, lab: pa.Table) -> pa.Table:
        j = inner_join(push_on)(d, lab)
        return pa.table({"node": j["nbr"], "cand": j["label"],
                         "old": pa.nulls(j.num_rows, j["label"].type)})

    changed = 0
    converged = n_lab == 0  # no edges → no labels to propagate
    for _ in range(max_rounds if n_lab else 0):
        # push each node's label to its neighbors, take per-node min;
        # each node's OLD label rides along (non-null only on the self
        # row, exactly one per node) so the fixpoint check needs no
        # third exchange — Min(old) recovers it through the aggregation
        cands = cogroup(
            directed, _salt_dim(labels, "node", hot_nodes, P) if hot_nodes else labels,
            push_on, push, num_partitions,
        ).union(
            labels.map_batches(
                lambda b: pa.table({"node": b["node"], "cand": b["label"],
                                    "old": b["label"]}),
                batch_format="pyarrow",
            )
        )
        agg = (
            cands.map_batches(_partial_min("node", ["cand", "old"]),
                              batch_format="pyarrow")
            .groupby("node").aggregate(
                Min("cand", alias_name="label"),
                Min("old", alias_name="old"),
            )
        ).materialize()  # both sides of the doubling co-group
        # pointer doubling: follow label → label(label) (labels are node
        # ids, so every label resolves). Each round halves the remaining
        # chain to the component minimum — convergence in O(log diameter)
        # rounds instead of O(diameter).
        # The doubling key is the LABEL, whose distribution collapses
        # onto one value per component — census per round, salt when
        # any label crosses the threshold
        hot_labels: set = set()
        if P > 1 and n_lab >= hot_key_threshold:
            hl = _hot_keys(agg, "label", hot_key_threshold)
            hot_labels = set(hl)
            if stats is not None and hl:
                stats["hot_label_rounds"] += 1
                stats["max_hot_label_count"] = max(
                    stats["max_hot_label_count"], max(hl.values())
                )
        on, right_on = ("label",), ("node",)
        lhs, rhs = agg, agg
        if hot_labels:
            on, right_on = on + ("__salt",), right_on + ("__salt",)
            lhs = _salt_fact(agg, "label", hot_labels, P)
            rhs = _salt_dim(agg, "node", hot_labels, P)

        def follow(a: pa.Table, lab: pa.Table) -> pa.Table:
            lab = lab.select(list(right_on) + ["label"]).rename_columns(
                list(right_on) + ["llabel"])
            j = inner_join(on, right_on)(a, lab)
            return pa.table({"node": j["node"], "label": j["llabel"], "old": j["old"]})

        # (node, label(label), old): the next round's labels, with a
        # fresh stats lineage. Ray summarizes an execution's input stats
        # recursively without memo; each round reads the last one's
        # labels twice and its own agg twice, so a chained lineage
        # costs 4× more per round (8 rounds: ~53k summaries)
        labels = ray.data.from_arrow_refs(cogroup(
            lhs, rhs, on, follow, num_partitions, right_on=right_on,
        ).materialize().to_arrow_refs())

        def count_changed(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            neq = pc.invert(pc.equal(b["label"], b["old"]))
            return pa.table({"changed": pa.array(
                [int(pc.sum(neq).as_py() or 0)], type=pa.int64()
            )})

        changed = labels.map_batches(
            count_changed, batch_format="pyarrow"
        ).sum("changed") or 0
        if not changed:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"connected components did not converge in {max_rounds} rounds "
            f"({changed} labels still changing) — the output would silently "
            "split clusters; raise max_rounds (pointer doubling needs only "
            "O(log diameter) rounds)"
        )

    out = labels.map_batches(
        lambda b: pa.table({"doc_id": b["node"], "cluster_id": b["label"]}),
        batch_format="pyarrow",
    )
    if nodes is not None:
        # isolated docs cluster with themselves (left anti via broadcast of
        # clustered ids would shuffle; small trick: union + per-doc min)
        singles = nodes.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"], "cluster_id": b["doc_id"]}),
            batch_format="pyarrow",
        )
        out = out.union(singles).groupby("doc_id").aggregate(
            Min("cluster_id", alias_name="cluster_id")
        )
    return out
