"""One benchmark session: inputs, Ray set-up, then a closed loop of runs.

Started by ``run.py`` in its own process (and process session) so that a
hung run can be killed with everything it started, the input generator's
worker processes included. Every finished run
appends one JSON line to the result file, so the records of the runs
before a hang survive it.

Usage: ``python child.py <json config>`` (see ``run.py``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

import numpy as np

CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_stats() -> dict:
    """pid -> the fields of ``/proc/<pid>/stat`` after the command name
    (state, ppid, pgrp, session, ...) followed by the command name, for
    every live process."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                text = f.read()
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited meanwhile
        comm, fields = text[text.index("(") + 1:].rsplit(")", 1)
        out[int(entry)] = fields.split() + [comm]
    return out


def tree_cpu(comm_prefix: str = "") -> dict:
    """pid -> CPU seconds so far, for this process and its descendants
    whose command name starts with ``comm_prefix``."""
    stats = proc_stats()
    children: dict = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    out, todo = {}, [os.getpid()]
    while todo:
        pid = todo.pop()
        if stats[pid][-1].startswith(comm_prefix):
            out[pid] = (int(stats[pid][11]) + int(stats[pid][12])) / CLK_TCK
        todo.extend(children.get(pid, []))
    return out


def cpu_delta(before: dict, after: dict) -> tuple[float, float]:
    """(driver, other processes) CPU seconds spent between two
    ``tree_cpu`` snapshots; a process started in between counts from
    zero, one that exited in between is lost."""
    me = os.getpid()
    rest = sum(t - before.get(pid, 0.0) for pid, t in after.items()
               if pid != me)
    return after[me] - before[me], rest


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


#: Ray puts its sockets at <temp dir>/session_<date>_<time>_<us>_<pid>/
#: sockets/plasma_store, and an AF_UNIX path may not exceed 107 bytes
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304"
                        "/sockets/plasma_store")


def ray_dirs(root: str) -> dict:
    """``ray.init`` arguments that keep Ray's files under ``root``, unless
    the socket paths would be too long there (a deep checkout); Ray then
    uses its default temporary directory."""
    if len(os.path.abspath(root)) + RAY_SOCKET_SUFFIX > 107:
        print(f"valbench: {root} is too deep for Ray's sockets; using "
              "Ray's default temporary directory", file=sys.stderr)
        return {}
    return {"_temp_dir": os.path.abspath(root)}


class Session:
    """Closed loop of ``run_validation`` calls against one input set."""

    def __init__(self, cfg: dict):
        import check
        import gen
        self.cfg = cfg
        self.check = check.check
        self.workload = gen.WORKLOADS[cfg["workload"]]
        self.input_dir, self.truth = gen.ensure_inputs(
            cfg["workload"], cfg["seed"],
            os.path.join(cfg["work_dir"], "inputs"), workers=cfg["width"])
        # write the fresh inputs back now: their writeback during the
        # timed runs cost up to a vCPU of steal time on a virtual machine
        os.sync()
        self.partitions = sorted(self.truth.rows)
        self.failing = sorted(p for p, v in self.truth.verdicts.items()
                              if "FAILED" in v.values())
        self.run_root = os.path.join(cfg["work_dir"], "runs")
        self.trace_dir = os.path.join(cfg["work_dir"], "trace")
        self.out = open(cfg["result_path"], "a")
        self.tracer = None
        self.rng = np.random.default_rng([cfg["seed"], 31])

    def emit(self, record: dict) -> None:
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def ray_init(self) -> None:
        import ray
        from ray.data import DataContext
        kwargs = {}
        if self.cfg["trace"]:
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "tracing.install_worker",
                "env_vars": {"VALBENCH_TRACE_DIR": self.trace_dir}}
        ray.init(num_cpus=self.cfg["width"], include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20,
                 # Ray kills workers idle for 1 s above its soft limit, so
                 # back-to-back runs kept restarting workers (~1 s of CPU
                 # each) and timings alternated between two modes
                 _system_config={"idle_worker_killing_time_threshold_ms":
                                 600_000},
                 **ray_dirs(os.path.join(self.cfg["work_dir"], "ray")),
                 **kwargs)
        DataContext.get_current().enable_progress_bars = False

    def run_config(self, run_dir: str):
        from bigdime_ray.pipelines.validate import ValidationRunConfig
        return ValidationRunConfig(input_dir=self.input_dir,
                                   run_dir=run_dir,
                                   suite=list(self.workload.suite),
                                   resume=self.workload.resume)

    def validate(self, run_dir: str, expected: list, kind: str,
                 run_id: str = None) -> dict:
        """One timed ``run_validation`` call, checked against the truth."""
        import bigdime_ray.pipelines.validate as pv
        record = {"kind": kind, "ok": False, "traced": run_id is not None}
        if run_id is not None:
            self.tracer.begin(run_id)
        cpu0 = tree_cpu()
        reset_peak_rss()
        t0 = time.perf_counter()
        try:
            report = pv.run_validation(self.run_config(run_dir))
        except Exception as exc:  # a failed run is a measured outcome
            record["error"] = f"{type(exc).__name__}: {exc}"
            report = None
        t1 = time.perf_counter()
        driver_cpu, ray_cpu = cpu_delta(cpu0, tree_cpu())
        if run_id is not None:
            self.tracer.end()
        record.update(run_s=t1 - t0,
                      cpu_s=driver_cpu + ray_cpu, ray_cpu_s=ray_cpu,
                      driver_peak_rss_mb=peak_rss_mb(),
                      rows=sum(self.truth.rows[p] for p in expected))
        if report is not None:
            diffs = self.check(report, self.truth, expected)
            record["ok"] = not diffs
            if diffs:
                record["error"] = "; ".join(diffs)
            if run_id is not None:
                record["trace"] = self.trace_metrics(
                    report, run_dir, run_id, expected, record["ray_cpu_s"])
        return record

    def trace_metrics(self, report, run_dir: str, run_id: str,
                      expected: list, ray_cpu_s: float) -> dict:
        import tracing
        self.tracer.flush(os.path.join(self.trace_dir, "driver.jsonl"))
        spans, counts = tracing.load_run(self.trace_dir, run_id)
        with open(os.path.join(run_dir, "scan_stats.txt")) as f:
            stats = tracing.parse_scan_stats(f.read())
        return tracing.run_metrics(
            spans, counts, stats, report, self.cfg["width"],
            sum(self.truth.rows[p] for p in expected), ray_cpu_s)

    def fresh_run_dir(self, name: str) -> str:
        path = os.path.join(self.run_root, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def touch_partitions(self, rng) -> list:
        """Give ``changed_per_run`` validated partitions a new mtime and
        return the partitions the resume run must validate."""
        validated = [p for p in self.partitions if p not in self.failing]
        picked = rng.choice(len(validated), self.workload.changed_per_run,
                            replace=False)
        changed = [validated[int(i)] for i in picked]
        now = time.time_ns()
        for p in changed:
            for f in glob.glob(os.path.join(self.input_dir, "data",
                                            f"partition_id={p}", "*")):
                os.utime(f, ns=(now, now))
        return sorted(set(changed) | set(self.failing))

    def setup(self) -> None:
        """Start Ray and make the untimed cold run over every partition."""
        t0 = time.perf_counter()
        self.ray_init()
        record = self.validate(self.fresh_run_dir("session"),
                               self.partitions, "setup")
        record["setup_s"] = time.perf_counter() - t0
        self.emit(record)

    def loop(self, kind: str, seconds: float, min_runs: int) -> None:
        """Closed loop for ``seconds``: each run starts when the previous
        one has finished. With tracing, timed runs alternate untraced and
        traced."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_runs or time.perf_counter() < deadline:
            if self.workload.resume:
                run_dir = os.path.join(self.run_root, "session")
                expected = self.touch_partitions(self.rng)
            else:
                run_dir = self.fresh_run_dir("full")
                expected = self.partitions
            traced = self.cfg["trace"] and kind == "run" and i % 2
            record = self.validate(run_dir, expected, kind,
                                   f"r{i}" if traced else None)
            self.emit(record)
            i += 1

    def rooflines(self) -> None:
        """memcpy and single-threaded parquet-decode rates, measured in
        this process on the workload's own files."""
        import pyarrow.parquet as pq
        files = sorted(glob.glob(os.path.join(self.input_dir, "data",
                                              "*", "*.parquet")))
        decode = []
        for _ in range(3):
            t0 = time.perf_counter()
            nbytes = sum(pq.read_table(f, use_threads=False).nbytes
                         for f in files)
            decode.append(nbytes / (time.perf_counter() - t0) / 1e9)
        src = np.ones(64 << 17)  # 64 MiB
        dst = np.empty_like(src)
        memcpy = []
        for _ in range(5):
            t0 = time.perf_counter()
            np.copyto(dst, src)
            memcpy.append(src.nbytes / (time.perf_counter() - t0) / 1e9)
        self.emit({"kind": "roofline", "memcpy_gb_per_s": memcpy,
                   "parquet_decode_gb_per_s": decode})

    def close(self) -> None:
        import ray
        ray.shutdown()
        self.out.close()


def main(cfg: dict) -> int:
    import gen
    if cfg["workload"] not in gen.WORKLOADS:
        print(f"valbench: unknown workload {cfg['workload']!r}; known: "
              f"{sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    marks = [("start", time.perf_counter())]
    session = Session(cfg)
    marks.append(("inputs", time.perf_counter()))
    if cfg["trace"]:
        import tracing
        os.makedirs(session.trace_dir, exist_ok=True)
        session.tracer = tracing.Tracer(session.trace_dir)
        tracing.install_driver(session.tracer)
    try:
        session.setup()
        marks.append(("setup", time.perf_counter()))
        # untimed: worker processes still import modules and fill caches
        # on their first tasks of each kind, which made the first timed
        # runs of a session slower than the rest
        session.loop("warmup", cfg["warmup_seconds"], 2)
        marks.append(("warmup", time.perf_counter()))
        session.loop("run", cfg["seconds"], cfg["min_runs"])
        marks.append(("runs", time.perf_counter()))
        if cfg["trace"]:
            session.rooflines()
            marks.append(("rooflines", time.perf_counter()))
    finally:
        session.close()
        marks.append(("shutdown", time.perf_counter()))
        print("valbench: session " + ", ".join(
            f"{name} {t - t0:.1f}s" for (_, t0), (name, t)
            in zip(marks, marks[1:])), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
