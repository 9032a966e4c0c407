"""Validation benchmark: one command, checked outputs, one JSON result.

    python3 valbench/run.py --workload long_clean --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. A child process (``child.py``) generates
the inputs of (workload, seed) with exact ground truth (``gen.py``,
cached under ``.valbench/inputs``), starts Ray at a fixed width, makes
one set-up (``ray.init`` plus an untimed cold run; a second one would
cost ~8 s of every run, and all runs of the benchmark share one time
budget), warms up for ``WARMUP_SECONDS`` and then drives a closed loop,
one client, of
``bigdime_ray.pipelines.validate.run_validation`` calls for ``--seconds``.
Every run's verdicts and violation rows are checked against the truth.
The child runs under a wall-clock timeout, so a hang counts as a failed
run instead of stalling the benchmark.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics (``tracing.py``), the rooflines and the tracing
overhead, and writes every span to ``.valbench/spans-<workload>-<seed>
.jsonl``. The last line of standard output is the JSON result; the lines
before it give each metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import child

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_SECONDS = 5
MIN_RUNS = {0: 3, 1: 4}
#: the child's whole session must end well inside the 180 s a run gets
CHILD_TIMEOUT_S = 150
UNITS = {"run_s": "s", "validated_seqs_per_s": "1/s", "cpu_s": "s",
         "driver_peak_rss_mb": "MB", "setup_s": "s"}


def width() -> int:
    """Ray width: the CPUs this process may run on (not ``nproc``,
    which honours ``OMP_NUM_THREADS``)."""
    return len(os.sched_getaffinity(0))


def stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever the child left running in its session and wait
    until every such process has ended."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + 20
    while True:
        left = [pid for pid, fields in child.proc_stats().items()
                if fields[0] != "Z" and int(fields[3]) == proc.pid]
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {left} did not exit")
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def quartiles(values: list) -> tuple:
    """(q1, median, q3); all three equal the value for one sample."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(records: list) -> dict:
    runs = [r for r in records if r["kind"] == "run" and not r["traced"]]
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "validated_seqs_per_s": [r["rows"] / r["run_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "driver_peak_rss_mb": [r["driver_peak_rss_mb"] for r in runs],
        "setup_s": [r["setup_s"] for r in records if r["kind"] == "setup"],
    }
    return {k: (v, UNITS[k]) for k, v in samples.items() if v}


def per_layer(records: list) -> dict:
    import tracing
    traced = [r for r in records if r["kind"] == "run" and "trace" in r]
    plain = [r["run_s"] for r in records
             if r["kind"] == "run" and not r["traced"]]
    out = {}
    if traced:
        for name in traced[0]["trace"]:
            out[name] = [r["trace"][name] for r in traced]
        if plain:
            out["trace.overhead_ratio"] = [
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(plain)]
    for r in records:
        if r["kind"] == "roofline":
            for name in ("memcpy_gb_per_s", "parquet_decode_gb_per_s"):
                out[f"roofline.{name}"] = r[name]
    return {name: (values, tracing.unit(name))
            for name, values in out.items()}


def collect_spans(work_dir: str, workload: str, seed: int) -> str:
    """Merge the per-process span files into one."""
    path = os.path.join(work_dir, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as out:
        for part in sorted(glob.glob(os.path.join(work_dir, "trace",
                                                  "*.jsonl"))):
            with open(part) as f:
                shutil.copyfileobj(f, out)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "bigdime_ray", "__init__.py")):
        print("valbench: run from the repository root (no bigdime_ray/ "
              "here)", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".valbench")
    for sub in ("runs", "trace", "tmp", "ray"):
        shutil.rmtree(os.path.join(work_dir, sub), ignore_errors=True)
        os.makedirs(os.path.join(work_dir, sub))
    result_path = os.path.join(work_dir, "results.jsonl")
    if os.path.exists(result_path):
        os.remove(result_path)
    cfg = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "width": width(),
           "warmup_seconds": WARMUP_SECONDS,
           "min_runs": MIN_RUNS[args.trace],
           "work_dir": work_dir, "result_path": result_path}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, HERE]),
               TMPDIR=os.path.join(work_dir, "tmp"))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
        env=env, stdout=sys.stderr, start_new_session=True)
    timed_out = False
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        stop_session(proc)

    records = []
    if os.path.exists(result_path):
        with open(result_path) as f:
            records = [json.loads(line) for line in f]
    runs = [r for r in records if r["kind"] in ("setup", "warmup", "run")]
    failed = sum(1 for r in runs if not r["ok"])
    for r in runs:
        if not r["ok"]:
            print(f"FAILED {r['kind']} run: {r.get('error')}",
                  file=sys.stderr)
    crashed = timed_out or proc.returncode != 0
    if crashed:
        print(f"valbench: child {'timed out' if timed_out else 'exited '}"
              f"{'' if timed_out else proc.returncode}", file=sys.stderr)
        failed += 1

    metrics = per_layer(records) if args.trace else end_to_end(records)
    for name, (values, unit) in sorted(metrics.items()):
        q1, med, q3 = quartiles(values)
        print(f"{args.workload} {name} median={med:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} n={len(values)} {unit}")
    if args.trace and "stages.scan.worker_cpu_s" in metrics:
        import tracing
        medians = {k: statistics.median(v) for k, (v, _) in metrics.items()}
        print(f"{args.workload} largest self CPU: "
              f"{tracing.top_layer(medians)}")
        print(f"{args.workload} ScanWorker CPU "
              f"{medians['stages.scan.worker_cpu_s']:.3f} s "
              f"{'<=' if medians['sources.read_decode_cpu_s'] >= 0 else '>'}"
              f" scan-op remote CPU "
              f"{medians['ray.scan_op.remote_cpu_s']:.3f} s")
        print(f"{args.workload} spans: "
              f"{collect_spans(work_dir, args.workload, args.seed)}")
    if not runs:
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs) + (1 if crashed else 0),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
