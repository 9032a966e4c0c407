"""Per-layer spans recorded from outside the engine.

The engine is traced by wrapping the public entry points of its layers;
nothing inside ``bigdime_ray`` changes. ``install_driver`` wraps the
calls the driver makes (``run_validation`` is the root span) and
``install_worker`` is the Ray ``worker_process_setup_hook`` that wraps
the scan pass inside each worker process.

A span records its name, start, end, thread CPU, parent span, run id
and process. Spans nest per thread; when a span ends its wall and CPU
time are charged to its parent, so self time (span time minus child
spans) is known without post-processing. A layer's self time sums the
self time of its spans over every thread of every process (driver and
workers), so layers that ran at the same time on different cores add
up to more than the run's wall time. Spans are buffered in memory:
the driver writes them when the benchmark ends, a worker after each scan
task (the worker process outlives the run, so there is no later point
at which it could write them).

Tracing is switched per run by a flag file holding the run id, so one
Ray session can alternate untraced and traced runs and report the
tracing overhead.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import re
import threading
import time

FLAG_FILE = "active_run"

#: ScanCache derivations computed by ``functions`` kernels; the other
#: keys are plain pyarrow/numpy views and belong to ``stages.scan``
FUNCTION_KEYS = ("fused", "doc_id_hash", "tokens_hash", "row_hash")
CACHE_KEYS = ("flat", "lengths_np", "offsets") + FUNCTION_KEYS
SCAN_VALIDATORS = ("record_count", "raw_checksum", "ntok_consistency",
                   "token_range", "referential", "column_stats",
                   "uniqueness", "per_source_stats")
PHASES = ("setup_and_schema_gate", "scan_exec", "scan_pass", "finalize",
          "global_validators", "emit")
LAYERS = ("sources", "stages.scan", "functions", "validators", "state",
          "pipelines.validate", "ray")
ROOT_SPAN = "pipelines.validate.run"


class Tracer:
    """In-memory span buffer of one process."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.run = None          # id of the traced run, None = off
        self.spans: list = []
        self.counts: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def begin(self, run_id: str) -> None:
        """Trace run ``run_id`` in this process and, through the flag
        file, in every worker."""
        tmp = os.path.join(self.trace_dir, FLAG_FILE + ".tmp")
        with open(tmp, "w") as f:
            f.write(run_id)
        os.replace(tmp, os.path.join(self.trace_dir, FLAG_FILE))
        self.run = run_id

    def end(self) -> None:
        os.remove(os.path.join(self.trace_dir, FLAG_FILE))
        self.run = None

    def refresh(self) -> None:
        """Pick up the run id from the flag file (worker side)."""
        try:
            with open(os.path.join(self.trace_dir, FLAG_FILE)) as f:
                self.run = f.read().strip() or None
        except FileNotFoundError:
            self.run = None

    def current(self):
        """Name of this thread's innermost open span (None if none)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1]["name"] if stack else None

    def count(self, name: str, n: int = 1) -> None:
        if self.run is not None:
            key = (self.run, name)
            with self._lock:
                self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result
        and the span dict (None when tracing is off)."""
        if self.run is None:
            return fn(*args, **kwargs), None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._ids += 1
            span_id = self._ids
        span = {"name": name, "run": self.run, "pid": os.getpid(),
                "id": span_id, "parent": stack[-1]["id"] if stack else None,
                "child_wall": 0.0, "child_cpu": 0.0}
        stack.append(span)
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            t1, c1 = time.perf_counter(), time.thread_time()
            stack.pop()
            span.update(start=t0, end=t1, cpu=c1 - c0)
            span["self_wall"] = (t1 - t0) - span.pop("child_wall")
            span["self_cpu"] = (c1 - c0) - span.pop("child_cpu")
            if stack:
                stack[-1]["child_wall"] += t1 - t0
                stack[-1]["child_cpu"] += c1 - c0
            with self._lock:
                self.spans.append(span)

    def flush(self, path: str) -> None:
        """Append buffered spans and counts to ``path`` and clear them."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], {}
        if not spans and not counts:
            return
        with open(path, "a") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
            for (run, name), n in counts.items():
                f.write(json.dumps({"name": name, "run": run, "count": n})
                        + "\n")


def ray_worker_cpu() -> float:
    """CPU seconds so far of the Ray worker processes (command name
    ``ray::...``) this driver started."""
    from child import tree_cpu
    return sum(tree_cpu("ray::").values())


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None,
          static: bool = False, remote_cpu: bool = False) -> None:
    """Replace ``owner.attr`` by a traced version. ``after(span, result,
    args, kwargs)`` may add fields to the span. With ``remote_cpu`` the
    span also records the CPU the Ray workers spent while it ran: the
    Ray tasks the call started and waited on."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cpu0 = ray_worker_cpu() if remote_cpu and tracer.run else None
        result, span = tracer.call(name, fn, *args, **kwargs)
        if span is not None and cpu0 is not None:
            span["remote_cpu"] = ray_worker_cpu() - cpu0
        if span is not None and after is not None:
            after(span, result, args, kwargs)
        return result

    setattr(owner, attr, staticmethod(traced) if static else traced)


def _patch_validators(tracer: Tracer, hooks: dict,
                      remote_cpu: tuple = ()) -> None:
    from bigdime_ray.spi import registered_validators
    for vid, cls in registered_validators().items():
        for attr, suffix in hooks.items():
            if attr in vars(cls):
                _wrap(tracer, cls, attr, f"validators.{vid}.{suffix}",
                      remote_cpu=attr in remote_cpu)


_END = object()


def _timed(tracer: Tracer, name: str, items):
    """Yield from ``items``, each wait for the next item in a span."""
    items = iter(items)
    while True:
        item = tracer.call(name, next, items, _END)[0]
        if item is _END:
            return
        yield item


class _TracedParquet:
    """Stand-in for ``pyarrow.parquet`` inside ``pipelines.validate`` that
    traces ``write_table``."""

    def __init__(self, tracer: Tracer):
        import pyarrow.parquet as pq
        self._pq = pq
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._pq, attr)

    def write_table(self, table, where, *args, **kwargs):
        result, span = self._tracer.call("emit.write", self._pq.write_table,
                                         table, where, *args, **kwargs)
        if span is not None:
            span["bytes"] = os.path.getsize(where)
        return result


def install_driver(tracer: Tracer) -> None:
    """Wrap the driver-side entry points of every layer."""
    import bigdime_ray.alerts as alerts
    import bigdime_ray.pipelines.validate as pv
    import bigdime_ray.sources.tokens as tokens
    import bigdime_ray.validators.row_equality as roweq
    from bigdime_ray.state.manifest import RunManifest
    from bigdime_ray.state.sketches import PartialState
    from ray.data import Dataset

    def full_read(span, result, args, kwargs):
        span["full_read"] = kwargs.get("columns") is None and len(args) < 2

    iter_batches = Dataset.iter_batches

    @functools.wraps(iter_batches)
    def traced_iter_batches(self, *args, **kwargs):
        # the driver pulls the scan stream directly from run_validation;
        # its waits there are the Ray executor's, not the pipeline's
        batches = iter_batches(self, *args, **kwargs)
        if tracer.current() != ROOT_SPAN:
            return batches
        return _timed(tracer, "ray.scan_wait", batches)

    Dataset.iter_batches = traced_iter_batches
    _wrap(tracer, pv, "run_validation", ROOT_SPAN)
    for mod in (pv, roweq):
        _wrap(tracer, mod, "read_tokens", "sources.read_tokens", full_read)
    for mod in (pv, tokens):
        _wrap(tracer, mod, "discover_partitions", "sources.discover")
    _wrap(tracer, pv, "fingerprint_files", "state.fingerprint")
    _wrap(tracer, pv, "merge_states", "state.merge")
    _wrap(tracer, PartialState, "from_bytes", "state.deserialize",
          static=True)
    for attr in ("load", "save", "mark", "needs_run"):
        _wrap(tracer, RunManifest, attr, f"state.manifest.{attr}",
              static=attr == "load")
    _patch_validators(tracer, {"finalize": "finalize",
                               "finalize_global": "finalize",
                               "run_global": "global"},
                      remote_cpu=("run_global",))
    _wrap(tracer, alerts, "emit_alerts", "alerts.emit")
    pv.pq = _TracedParquet(tracer)


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: wrap the scan pass in this
    worker. The trace directory comes from ``VALBENCH_TRACE_DIR``."""
    import bigdime_ray.validators  # noqa: F401  (populate the registry)
    from bigdime_ray.stages.scan import ScanCache, ScanWorker
    from bigdime_ray.state.sketches import PartialState

    tracer = Tracer(os.environ["VALBENCH_TRACE_DIR"])
    out = os.path.join(tracer.trace_dir, f"spans-{os.getpid()}.jsonl")
    worker_call = ScanWorker.__call__
    cache_get = ScanCache._get

    def traced_call(self, batch):
        tracer.refresh()
        result, span = tracer.call("stages.scan.worker", worker_call, self,
                                   batch)
        if span is not None:
            import pyarrow.compute as pc
            span["rows"] = batch.num_rows
            span["violation_rows"] = pc.sum(pc.equal(
                result["kind"], "violation")).as_py() or 0
            tracer.flush(out)
        return result

    def traced_get(self, key, fn):
        if tracer.run is None:
            return cache_get(self, key, fn)
        hit = key in self._cache
        tracer.count(f"stages.scan_cache.{'hits' if hit else 'misses'}")
        if hit:
            return cache_get(self, key, fn)
        return tracer.call(f"stages.scan_cache.{key}", cache_get, self,
                           key, fn)[0]

    def serialized(span, result, args, kwargs):
        span["bytes"] = len(result)

    ScanWorker.__call__ = traced_call
    ScanCache._get = traced_get
    _wrap(tracer, PartialState, "to_bytes", "state.serialize", serialized)
    _patch_validators(tracer, {"scan_partition": "scan"})


# ------------------------------------------------------------- analysis

def load_run(trace_dir: str, run_id: str) -> tuple[list, dict]:
    """(spans, counter totals) of one run from every process's file."""
    spans, counts = [], {}
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        with open(path) as f:
            for line in f:
                s = json.loads(line)
                if s["run"] != run_id:
                    continue
                if "count" in s:
                    counts[s["name"]] = counts.get(s["name"], 0) + s["count"]
                else:
                    spans.append(s)
    return spans, counts


_DURATION = re.compile(r"([\d.]+)(us|ms|s)\s+total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_scan_stats(text: str) -> dict:
    """Scan-operator figures from the ``scan_stats.txt`` Ray writes."""
    out = {"tasks": 0, "wall_s": 0.0, "remote_wall_s": 0.0,
           "remote_cpu_s": 0.0, "peak_heap_mb": 0.0}
    block = None
    for line in text.splitlines():
        if line.startswith("Operator"):
            block = "ScanWorker" in line
            if block:
                m = re.search(r"(\d+) tasks executed.* in ([\d.]+)s", line)
                if m:
                    out["tasks"] += int(m.group(1))
                    out["wall_s"] += float(m.group(2))
        elif block and "Remote wall time" in line:
            m = _DURATION.search(line)
            out["remote_wall_s"] += float(m.group(1)) * _UNIT[m.group(2)]
        elif block and "Remote cpu time" in line:
            m = _DURATION.search(line)
            out["remote_cpu_s"] += float(m.group(1)) * _UNIT[m.group(2)]
        elif block and "Peak heap memory" in line:
            m = re.search(r"([\d.]+) max", line)
            out["peak_heap_mb"] = max(out["peak_heap_mb"],
                                      float(m.group(1)))
    return out


def layer_of(name: str):
    """The engine layer a span belongs to (None for the untimed ones)."""
    if name.startswith("stages.scan_cache."):
        key = name.rsplit(".", 1)[1]
        return "functions" if key in FUNCTION_KEYS else "stages.scan"
    for prefix, layer in (("sources.", "sources"),
                          ("stages.scan.", "stages.scan"),
                          ("validators.", "validators"),
                          ("state.", "state"),
                          ("pipelines.validate.", "pipelines.validate"),
                          ("emit.", "pipelines.validate"),
                          ("alerts.", "pipelines.validate"),
                          ("ray.", "ray")):
        if name.startswith(prefix):
            return layer
    return None


def run_metrics(spans: list, counts: dict, stats: dict, report,
                width: int, expected_rows: int, ray_cpu_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``spans`` are this run's spans from every process, ``counts`` its
    counters, ``stats`` the parsed scan-operator figures, ``ray_cpu_s``
    the CPU seconds the run cost every process of the session except the
    driver.
    """
    def total(name, field="self_wall"):
        return sum(s[field] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    m = {}
    worker_cpu = total("stages.scan.worker", "cpu")
    decode_cpu = stats["remote_cpu_s"] - worker_cpu
    m["sources.read_decode_cpu_s"] = decode_cpu
    reads = [s for s in spans if s["name"] == "sources.read_tokens"]
    m["sources.read_tokens.plan_s"] = sum(s["end"] - s["start"]
                                          for s in reads)
    m["sources.read_tokens.calls"] = len(reads)
    m["sources.read_tokens.full_reads"] = sum(1 for s in reads
                                              if s["full_read"])
    m["sources.discover_s"] = total("sources.discover")

    hits = counts.get("stages.scan_cache.hits", 0)
    misses = counts.get("stages.scan_cache.misses", 0)
    for key in CACHE_KEYS:
        m[f"stages.scan_cache.{key}_s"] = total(f"stages.scan_cache.{key}")
    m["stages.scan_cache.hit_ratio"] = hits / max(1, hits + misses)
    m["stages.scan.worker_s"] = total("stages.scan.worker", "end") - \
        total("stages.scan.worker", "start")
    m["stages.scan.worker_cpu_s"] = worker_cpu
    m["stages.scan.union_build_s"] = total("stages.scan.worker")
    m["stages.scan.rows"] = total("stages.scan.worker", "rows")

    for vid in SCAN_VALIDATORS:
        m[f"validators.{vid}.scan_s"] = total(f"validators.{vid}.scan")
    m["validators.violation_rows"] = total("stages.scan.worker",
                                           "violation_rows")
    for vid in ("uniqueness", "row_equality"):
        m[f"validators.{vid}.global_s"] = total(f"validators.{vid}.global")
    global_remote_cpu = sum(s.get("remote_cpu", 0.0) for s in spans)
    m["validators.global_remote_cpu_s"] = global_remote_cpu
    m["validators.finalize_s"] = sum(
        s["self_wall"] for s in spans if s["name"].endswith(".finalize"))

    m["state.serialize_s"] = total("state.serialize")
    m["state.deserialize_s"] = total("state.deserialize")
    m["state.merge_s"] = total("state.merge")
    m["state.payload_bytes"] = total("state.serialize", "bytes")
    m["state.fingerprint_s"] = total("state.fingerprint")
    m["state.manifest.save_s"] = total("state.manifest.save")
    m["state.manifest.rerun_row_ratio"] = (m["stages.scan.rows"]
                                           / max(1, expected_rows))

    m["ray.scan_op.remote_wall_s"] = stats["remote_wall_s"]
    m["ray.scan_op.remote_cpu_s"] = stats["remote_cpu_s"]
    m["ray.scan_op.tasks"] = stats["tasks"]
    m["ray.scan_op.peak_heap_mb"] = stats["peak_heap_mb"]
    m["ray.scan_op.idle_core_s"] = (width * stats["wall_s"]
                                    - stats["remote_wall_s"])

    for phase in PHASES:
        m[f"pipelines.validate.{phase}_s"] = float(
            report.phase_seconds.get(phase, 0.0))
    m["emit.write_s"] = total("emit.write")
    m["emit.files"] = calls("emit.write")
    m["emit.bytes"] = total("emit.write", "bytes")
    m["alerts.emit_s"] = total("alerts.emit")

    self_wall = dict.fromkeys(LAYERS, 0.0)
    self_cpu = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = layer_of(s["name"])
        if layer is not None:
            self_wall[layer] += s["self_wall"]
            self_cpu[layer] += s["self_cpu"]
    # decode runs inside the scan tasks but outside the ScanWorker span;
    # the Ray tasks a global validator waits on (member fetch, reads of
    # both sides) are that validator's work; the rest of the Ray
    # processes' CPU is Ray's own (scheduling, object store, idle workers)
    self_cpu["sources"] += decode_cpu
    self_wall["sources"] += stats["remote_wall_s"] - m["stages.scan.worker_s"]
    self_cpu["validators"] += global_remote_cpu
    self_cpu["ray"] += ray_cpu_s - stats["remote_cpu_s"] - global_remote_cpu
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_wall[layer]
        m[f"layer.{layer}.self_cpu_s"] = self_cpu[layer]
    return m


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    for suffix, u in (("_gb_per_s", "GB/s"), ("_s", "s"), ("bytes", "B"),
                      ("_ratio", "ratio"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


def top_layer(metrics: dict) -> str:
    """The layer with the largest self CPU."""
    return max(LAYERS, key=lambda la: metrics[f"layer.{la}.self_cpu_s"])
