"""Measurement helpers for the benchmark: a /proc sampler, a span tracer
that wraps the library's layer functions from outside, and readers for
Ray Data's per-dataset statistics and Ray's session logs.

Nothing here changes what the library computes. The tracer only
materializes the Datasets a wrapped function returns, so that the work
is done inside the span that asked for it.
"""

from __future__ import annotations

import contextlib
import glob
import os
import re
import signal
import threading
import time

import ray
import ray.data

# the unpatched method, for materializing inside spans while
# ``Tracer.wrap_materialize`` has replaced the public one
_MATERIALIZE = ray.data.Dataset.materialize
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _read_stat(pid: str):
    """(ppid, cpu ticks, start ticks, rss bytes, state, command name) of
    one process, or None if it has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the last ')'
    end = raw.rfind(")")
    f = raw[end + 2:].split()
    return (int(f[1]), int(f[11]) + int(f[12]), int(f[19]), int(f[21]) * _PAGE, f[0],
            raw[raw.index("(") + 1:end])


class ProcSampler:
    """One thread that samples RSS and utime+stime of this process (the
    Ray client) and of the Ray workers below it, which name themselves
    ``ray::<task or actor>``; Ray's own daemons (raylet, GCS, agents)
    are not counted. All processes below this one are remembered for
    ``reap``.

    CPU time is kept per (pid, start time), so a worker that exits keeps
    the CPU it had used at its last sample; ``cpu_s`` is therefore
    monotone and a difference of two readings is the CPU spent between
    them, short of what a process spent after its last sample.
    """

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak_rss_bytes = 0
        self._cpu: dict[tuple[int, int], int] = {}
        self._seen: set[tuple[int, int]] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="proc-sampler", daemon=True)

    def start(self) -> None:
        self.sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def sample(self) -> None:
        stats = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _read_stat(name)
                if st is not None:
                    stats[int(name)] = st
        children: dict[int, list[int]] = {}
        for pid, st in stats.items():
            children.setdefault(st[0], []).append(pid)
        me = os.getpid()
        tree, todo = [], [me]
        while todo:
            pid = todo.pop()
            if pid in stats:
                tree.append(pid)
                todo.extend(children.get(pid, ()))
        measured = [p for p in tree if p == me or stats[p][5].startswith("ray::")]
        rss = sum(stats[p][3] for p in measured)
        with self._lock:
            self._seen.update((p, stats[p][2]) for p in tree if p != me)
            for p in measured:
                self._cpu[(p, stats[p][2])] = stats[p][1]
            self.peak_rss_bytes = max(self.peak_rss_bytes, rss)

    def reap(self, timeout_s: float = 20.0) -> set[int]:
        """Wait until every process seen below this one has ended;
        terminate, then kill, what is left after half the timeout and
        after the timeout. Returns the pids that had to be signalled."""
        with self._lock:
            seen = list(self._seen)
        deadline = time.monotonic() + timeout_s
        signalled: set[int] = set()
        while True:
            alive = []
            for pid, start in seen:
                st = _read_stat(str(pid))
                if st is not None and st[2] == start and st[4] != "Z":
                    alive.append(pid)
            left = deadline - time.monotonic()
            if not alive or left < -5:
                return signalled
            if left < timeout_s / 2:
                for pid in alive:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL if left < 0 else signal.SIGTERM)
                    signalled.add(pid)
            time.sleep(0.2)

    def cpu_s(self) -> float:
        """CPU seconds used so far by this process and the Ray workers
        (samples first)."""
        self.sample()
        with self._lock:
            return sum(self._cpu.values()) / _CLK_TCK


def dataset_counts(ds, seen: set) -> dict | None:
    """Ray Data tasks and CPU seconds of the operators that executed to
    produce ``ds``, read from its stats summary (a private Ray API).

    Operators already counted for an earlier span (``seen``, keyed by
    dataset uuid and operator name) are skipped, so a materialized input
    is not counted twice. Returns None when the summary's shape is not
    the one this reads, so callers fall back to wall time alone."""
    try:
        todo = [ds._get_stats_summary()]
        tasks, cpu_s, ops = 0, 0.0, []
        while todo:
            summary = todo.pop()
            todo.extend(summary.parents)
            for op in summary.operators_stats:
                key = (summary.dataset_uuid, op.operator_name)
                if key in seen:
                    continue
                seen.add(key)
                m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str)
                tasks += int(m.group(1)) if m else 0
                cpu_s += (op.cpu_time or {}).get("sum", 0.0)
                ops.append(op.operator_name)
    except (AttributeError, KeyError, TypeError):
        return None
    return {"tasks": tasks, "cpu_s": cpu_s, "operators": ops}


def execution_records() -> dict | None:
    """Ray Data's per-dataset execution records in this session
    (dataset tag → operator tags), from its stats actor."""
    try:
        from ray.data._internal.stats import _get_or_create_stats_actor

        records = ray.get(_get_or_create_stats_actor().get_datasets.remote())
        return {tag: list(rec["operators"]) for tag, rec in records.items()}
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


def count_log_lines(pattern: str) -> int:
    """Lines containing ``pattern`` across this Ray session's log files."""
    logs = os.path.join(ray._private.worker._global_node.get_session_dir_path(), "logs")
    n = 0
    for path in glob.glob(os.path.join(logs, "*")):
        if os.path.isfile(path):
            with open(path, errors="replace") as fh:
                n += sum(pattern in line for line in fh)
    return n


class Tracer:
    """Spans around calls into the library's layers.

    ``wrap`` replaces a module attribute with a function that opens a
    span, calls the original, materializes a returned Dataset inside the
    span and records its Ray Data counts. ``restore`` puts every
    original back. Spans are kept in memory and written out by the
    caller."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: str | None = None
        self.stats_fallback = False
        self._stack: list[dict] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans), "name": name, "op_id": self.op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self._t0, "end": None,
            "ray_data.tasks": 0, "ray_data.cpu_s": 0.0, "ray_data.rows_out": 0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def record_output(self, rec: dict, out):
        """Materialize a Dataset result and record its counts; sized
        results record their length as rows."""
        if isinstance(out, ray.data.Dataset):
            out = _MATERIALIZE(out)
            counts = dataset_counts(out, self._seen)
            if counts is None:
                self.stats_fallback = True
            else:
                rec["ray_data.tasks"] = counts["tasks"]
                rec["ray_data.cpu_s"] = counts["cpu_s"]
                rec["operators"] = counts["operators"]
            rec["ray_data.rows_out"] = out.count()
        elif hasattr(out, "__len__"):
            rec["ray_data.rows_out"] = len(out)
        return out

    def wrap(self, module, attr: str, name: str, input_span: str | None = None):
        """Trace ``module.attr``. With ``input_span``, a lazy Dataset
        passed as the first argument is materialized first, in a child
        span of that name, so upstream work is not charged to ``name``."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if input_span and args:
                    with self.span(input_span) as child:
                        args = (self.record_output(child, args[0]), *args[1:])
                if args and not isinstance(args[0], ray.data.Dataset) and hasattr(args[0], "__len__"):
                    rec["rows_in"] = len(args[0])
                out = fn(*args, **kwargs)
                return self.record_output(rec, out)

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def wrap_materialize(self):
        """Trace every ``Dataset.materialize`` the library itself calls,
        as ``ray_data.materialize`` spans that list their operators."""
        def traced(ds):
            with self.span("ray_data.materialize") as rec:
                return self.record_output(rec, ds)

        self._patches.append((ray.data.Dataset, "materialize", _MATERIALIZE))
        ray.data.Dataset.materialize = traced

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def first(self, name: str, op_id: str) -> dict:
        """The first span of that name in that operation, or an empty one
        (zero time and counts) when the library no longer makes the call."""
        for s in self.spans:
            if s["name"] == name and s["op_id"] == op_id:
                return s
        return {"name": name, "start": 0.0, "end": 0.0, "ray_data.tasks": 0,
                "ray_data.cpu_s": 0.0, "ray_data.rows_out": 0}

    def find(self, name: str, op_id: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["op_id"] == op_id]


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]
