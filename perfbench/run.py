"""One-core benchmark of deezymatch_ray.

    python3 perfbench/run.py --workload link|near_dup --seed N --seconds S --trace 0|1

Run from the repository root. One client process starts a local Ray
session with one CPU (``NUM_CPUS``), builds the workload's inputs from
``--seed``, runs one untimed warm-up operation, then runs operations
back to back for about ``--seconds`` and checks every output. It prints
each metric by name with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untimed operation, the same operation with spans around the calls into
each layer, and the layer probes of ``workloads.py``; it reports the
per-layer metrics and ``tracing_overhead_s`` and writes the spans to
``.bench_build/perfbench/results``.

An operation costs 10-20 s on one core, so a run measures a few;
``latency_tail_s`` is the highest percentile with ten samples beyond it
when a run has at least 21 operations, and the slowest operation
otherwise (the line printed for it says which).

Inputs, results and Ray's session directory go under ``.bench_build``.
The model is the default one the package ships; without it the run
stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# the Ray session's CPUs: the benchmark measures one core whatever the
# machine has, so its figures do not depend on the machine's size
NUM_CPUS = 1

# repetitions of the cheap set-up steps (artifact load, input generation);
# Ray start and the warm-up operation cost ~10 s together on one core
# and run once
SETUP_REPEATS = 3


def manifest_units(section: str) -> dict[str, str]:
    """Metric name → unit for one section of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("link", "near_dup"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_ray(num_cpus: int) -> None:
    import ray
    import ray.data

    kwargs = {}
    temp = os.path.join(ROOT, ".bench_build", "ray")
    # Ray binds sockets at <temp>/session_<date>_<time>_<usec>_<pid>/sockets/
    # plasma_store (64 bytes after <temp>), and a unix socket path may not
    # exceed 107 bytes; a checkout at a longer path keeps Ray's default
    if len(temp) + 64 <= 107:
        kwargs["_temp_dir"] = temp
    ray.init(num_cpus=num_cpus, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=512 * 2**20, **kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    ten samples beyond it, or the slowest sample when that percentile
    would not lie above the median (fewer than 21 samples)."""
    srt = sorted(latencies)
    i = len(srt) - 11 if len(srt) >= 21 else len(srt) - 1
    return srt[i], 100.0 * (i + 1) / len(srt), len(srt) - 1 - i


class Runner:
    """Runs operations of one workload, checking each, and keeps the
    count of attempted and failed ones."""

    def __init__(self, wl, inputs, sampler):
        self.wl, self.inputs, self.sampler = wl, inputs, sampler
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None

    def run(self, fn) -> dict:
        """One operation through ``fn(inputs)``; returns its wall time,
        CPU time, pair F1 and whether it passed its check."""
        self.attempted += 1
        cpu0 = self.sampler.cpu_s()
        t = time.perf_counter()
        try:
            out = fn(self.inputs)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t
        cpu = self.sampler.cpu_s() - cpu0
        if out is None:
            self.failures.append("operation raised")
            return {"s": dt, "cpu_s": cpu, "f1": 0.0, "ok": False}
        ok, f1, why, assign = self.wl.check(self.inputs, out, self.reference)
        if self.reference is None and ok:
            self.reference = assign
        if not ok:
            self.failures.append(why)
        return {"s": dt, "cpu_s": cpu, "f1": f1, "ok": ok}


def end_to_end(runner, ops, setup_s, peak_rss_bytes) -> dict:
    lat = [o["s"] for o in ops]
    ok_items = runner.inputs["items"] * sum(o["ok"] for o in ops)
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(lat),
        "items_per_s": ok_items / sum(lat),
        "cpu_s_per_item": sum(o["cpu_s"] for o in ops) / (runner.inputs["items"] * len(ops)),
        "peak_rss_mb": peak_rss_bytes / 2**20,
        "pair_f1": statistics.median(o["f1"] for o in ops),
    }


def per_layer(runner, tracer, seed, names) -> dict:
    from tracing import count_log_lines

    untraced = runner.run(runner.wl.op)
    tracer.op_id = "traced"
    traced = runner.run(lambda inputs: runner.wl.traced_op(tracer, inputs))
    layers = runner.wl.layer_metrics(tracer, runner.inputs) if traced["ok"] else {}
    runner.attempted += 1
    try:
        probe, ok, why = runner.wl.probe(tracer, seed)
    except Exception:  # a failed probe is counted, and the run goes on
        traceback.print_exc()
        probe, ok, why = {}, False, "layer probe raised"
    if not ok:
        runner.failures.append(why)
    layers.update(probe)
    layers["ray_data.tasks"] = sum(s["ray_data.tasks"] for s in tracer.spans)
    layers["ray_data.cpu_s"] = sum(s["ray_data.cpu_s"] for s in tracer.spans)
    layers["ray_data.schema_hash_warnings"] = count_log_lines("Failed to hash the schemas")
    layers["ray_data.stats_fallback"] = int(tracer.stats_fallback)
    layers["tracing_overhead_s"] = traced["s"] - untraced["s"]
    unknown = set(layers) - set(names)
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer this workload does not call reports 0
    return {name: layers.get(name, 0) for name in names}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "deezymatch_ray", "pipelines", "linkage.py")):
        print(f"perfbench: no deezymatch_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the package from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(BUILD, exist_ok=True)
    from deezymatch_ray.pipelines.linkage import DEFAULT_MODEL_DIR, load_model_artifacts

    model_dir = os.path.abspath(DEFAULT_MODEL_DIR)
    if (os.path.commonpath([model_dir, ROOT]) != ROOT
            or not os.path.isfile(os.path.join(model_dir, "model.npz"))):
        print("perfbench: the checkout ships no default model "
              "(deezymatch_ray/artifacts/default_model)", file=sys.stderr)
        return 2

    import ray

    from tracing import ProcSampler, Tracer
    from workloads import WORKLOADS

    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    cpus_available = len(os.sched_getaffinity(0))
    wl = WORKLOADS[args.workload](model_dir, BUILD)
    sampler = ProcSampler()
    sampler.start()
    try:
        t = time.perf_counter()
        start_ray(NUM_CPUS)
        ray_start_s = time.perf_counter() - t
        prep = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            load_model_artifacts(model_dir)
            inputs = wl.make_inputs(args.seed)
            prep.append(time.perf_counter() - t)
        runner = Runner(wl, inputs, sampler)
        warm = runner.run(wl.op)
        setup_s = ray_start_s + statistics.median(prep) + warm["s"]

        tracer = Tracer()
        ops = []
        units = manifest_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            metrics = per_layer(runner, tracer, args.seed, units)
        else:
            t0 = time.perf_counter()
            while True:
                ops.append(runner.run(wl.op))
                # stop when another operation like the last would end
                # more than half an operation past the window
                if time.perf_counter() - t0 + ops[-1]["s"] / 2 > args.seconds:
                    break
            metrics = end_to_end(runner, ops, setup_s, sampler.peak_rss_bytes)
    finally:
        ray.shutdown()
        sampler.stop()
        stuck = sampler.reap()
        if stuck:
            print(f"perfbench: had to signal processes {sorted(stuck)}", file=sys.stderr)

    failed = len(runner.failures)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpus_available": cpus_available,
        "num_cpus": NUM_CPUS,
        "sizes": inputs["sizes"], "model_dir": os.path.relpath(model_dir, ROOT),
        "ray_start_s": ray_start_s, "warmup_s": warm["s"],
        "attempted": runner.attempted, "failed": failed,
        "fail_ratio": failed / runner.attempted, "failures": runner.failures,
        "operations": ops, "metrics": metrics, "claim": None,
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    if args.trace:
        with open(os.path.join(results, stem + "-spans.json"), "w") as fh:
            json.dump(tracer.spans, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} nproc={nproc} "
          f"cpus_available={cpus_available} num_cpus={NUM_CPUS} "
          f"sizes={json.dumps(inputs['sizes'])}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if ops:
        # printed, not gated: with a handful of operations per run the
        # tail is the slowest one, and that swings with the machine
        value, pct, beyond = tail([o["s"] for o in ops])
        print(f"latency_tail_s {value} s (p{pct:.1f} of {len(ops)} operations, {beyond} beyond it)")
    print(f"fail_ratio {failed / runner.attempted} ({failed}/{runner.attempted})")
    for why in runner.failures:
        print(f"failed: {why}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
