"""Tests of the benchmark itself (not of the engine).

Run from the repository root: ``python3 -m pytest valbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [ROOT, BENCH]

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from bigdime_ray.validators import DEFAULT_SUITE, FULL_SUITE  # noqa: E402

TINY = {
    "tiny_dirty": gen.Workload("tiny_dirty", rows=4_000, partitions=4,
                               len_mu=2.0, suite=tuple(DEFAULT_SUITE),
                               defect_rows=20),
    "tiny_audit": gen.Workload("tiny_audit", rows=2_000, partitions=4,
                               len_mu=3.0, suite=tuple(FULL_SUITE),
                               ref_corrupt_partitions=2, ref_corrupt_rows=3,
                               changed_per_run=1),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(gen, "WORKLOADS", {**gen.WORKLOADS, **TINY})


def _digest(input_dir: str) -> dict:
    """relative path -> sha256 of every generated file."""
    out = {}
    for dirpath, _, files in os.walk(input_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, input_dir)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_same_inputs_other_seed_different(tmp_path, workload):
    a = gen.generate(workload, 5, str(tmp_path / "a"))
    b = gen.generate(workload, 5, str(tmp_path / "b"))
    c = gen.generate(workload, 6, str(tmp_path / "c"))
    assert a == b
    assert _digest(str(tmp_path / "a")) == _digest(str(tmp_path / "b"))
    assert a != c
    da, dc = _digest(str(tmp_path / "a")), _digest(str(tmp_path / "c"))
    assert da.keys() == dc.keys()
    assert all(da[k] != dc[k] for k in da if k.startswith("data"))


def test_truth_covers_every_planted_defect(tmp_path):
    truth = gen.generate("tiny_dirty", 5, str(tmp_path))
    failed = {v for p in truth.verdicts.values() for v, r in p.items()
              if r == "FAILED"}
    assert {"record_count", "raw_checksum", "ntok_consistency",
            "token_range", "referential", "uniqueness", "drift_chi2",
            "drift_ks"} <= failed
    # 2 of 4 partitions per type, 20 rows each; a null and an
    # out-of-range token are both token_range rows
    assert len(truth.violations["ntok_consistency"]) == 40
    assert len(truth.violations["token_range"]) == 80
    assert len(truth.violations["uniqueness"]) == 160


def test_cache_reuses_complete_entries_only(tmp_path):
    d, truth = gen.ensure_inputs("tiny_audit", 3, str(tmp_path))
    os.remove(os.path.join(d, "source_catalog.parquet"))
    assert gen.ensure_inputs("tiny_audit", 3, str(tmp_path))[1] == truth
    assert not os.path.exists(os.path.join(d, "source_catalog.parquet"))
    os.remove(os.path.join(d, "truth.json"))
    assert gen.ensure_inputs("tiny_audit", 3, str(tmp_path))[1] == truth
    assert os.path.exists(os.path.join(d, "source_catalog.parquet"))


class _Report:
    """The parts of a ``RunReport`` the checker reads."""

    def __init__(self, truth, partitions):
        want = check.expected_verdicts(truth, partitions)
        self.partitions_run = list(partitions)
        self.verdicts = pa.Table.from_pylist(
            [{"partition_id": p, "validator_id": v, "result": r}
             for (p, v), r in sorted(want.items())])
        rows = [{"partition_id": p, "validator_id": vid, "doc_id": d}
                for vid, got in check.expected_violations(
                    truth, partitions).items()
                for (p, d), n in sorted(got.items()) for _ in range(n)]
        self.violations = pa.Table.from_pylist(rows)


def test_checker_flags_flipped_verdict_and_missing_violation(tmp_path):
    truth = gen.generate("tiny_dirty", 5, str(tmp_path))
    parts = sorted(truth.rows)
    report = _Report(truth, parts)
    assert check.check(report, truth, parts) == []

    flipped = report.verdicts.to_pylist()
    row = next(r for r in flipped if r["validator_id"] == "uniqueness")
    row["result"] = "PASSED" if row["result"] == "FAILED" else "FAILED"
    report.verdicts = pa.Table.from_pylist(flipped)
    diffs = check.check(report, truth, parts)
    assert len(diffs) == 1 and "uniqueness" in diffs[0]

    report = _Report(truth, parts)
    report.violations = report.violations.slice(1)
    diffs = check.check(report, truth, parts)
    assert len(diffs) == 1 and "1 missing" in diffs[0]

    report = _Report(truth, parts)
    assert check.check(report, truth, parts[1:])  # wrong partition set


def _records() -> list:
    """Result records shaped like the ones ``child.py`` writes."""
    class _Phases:
        phase_seconds = {}

    stats = tracing.parse_scan_stats("")
    trace = tracing.run_metrics([], {}, stats, _Phases, 4, 1, 0.0)
    base = {"ok": True, "run_s": 1.0, "cpu_s": 2.0, "ray_cpu_s": 1.0,
            "driver_peak_rss_mb": 100.0, "rows": 10}
    return [{**base, "kind": "setup", "traced": False, "setup_s": 3.0},
            {**base, "kind": "run", "traced": False},
            {**base, "kind": "run", "traced": True, "trace": trace},
            {"kind": "roofline", "memcpy_gb_per_s": [1.0],
             "parquet_decode_gb_per_s": [1.0]}]


def test_metric_names_are_valid_and_listed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {k: {m["name"]: m["unit"] for m in spec[k]}
              for k in ("end_to_end", "per_layer")}
    emitted = {"end_to_end": run.end_to_end(_records()),
               "per_layer": run.per_layer(_records())}
    for kind, metrics in emitted.items():
        assert set(metrics) == set(listed[kind])
        for name, (_, unit) in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert unit == listed[kind][name]
    assert {w["name"] for w in spec["workloads"]} == set(
        n for n in gen.WORKLOADS if n not in TINY)


def test_scan_stats_parser():
    text = """Operator 0 Input: 0 tasks executed, 0 blocks produced in 0s
Operator 1 ReadParquet->MapBatches(ScanWorker): 16 tasks executed, 16 blocks produced in 1.12s
* Remote wall time: 137.29ms min, 203.75ms max, 170.72ms mean, 2.73s total
* Remote cpu time: 115.82ms min, 166.54ms max, 137.67ms mean, 2.2s total
* Peak heap memory usage (MiB): 125.46 min, 148.33 max, 136 mean
Operator 2 MapBatches(pack): 4 tasks executed, 4 blocks produced in 0.5s
* Remote wall time: 1ms min, 2ms max, 1ms mean, 900ms total
"""
    assert tracing.parse_scan_stats(text) == {
        "tasks": 16, "wall_s": 1.12, "remote_wall_s": 2.73,
        "remote_cpu_s": 2.2, "peak_heap_mb": 148.33}


def test_layer_attribution():
    """The driver's wait on the scan stream is Ray's, the Ray tasks a
    global validator waits on are the validator's, and decode is the
    scan tasks' time outside ScanWorker."""
    def span(name, wall, cpu, **extra):
        return {"name": name, "start": 0.0, "end": wall, "self_wall": wall,
                "cpu": cpu, "self_cpu": cpu, **extra}

    class _Phases:
        phase_seconds = {}

    spans = [span("pipelines.validate.run", 0.5, 0.4),
             span("ray.scan_wait", 2.0, 0.1),
             span("stages.scan.worker", 1.5, 1.2, rows=10,
                  violation_rows=0),
             span("validators.uniqueness.global", 0.9, 0.2, remote_cpu=1.5)]
    stats = dict(tracing.parse_scan_stats(""), remote_wall_s=2.5,
                 remote_cpu_s=2.0)
    m = tracing.run_metrics(spans, {}, stats, _Phases, 4, 10, 4.0)
    assert m["layer.pipelines.validate.self_s"] == 0.5
    assert m["layer.ray.self_s"] == 2.0
    assert m["layer.ray.self_cpu_s"] == pytest.approx(0.1 + 4.0 - 2.0 - 1.5)
    assert m["layer.validators.self_cpu_s"] == pytest.approx(0.2 + 1.5)
    assert m["layer.sources.self_cpu_s"] == pytest.approx(2.0 - 1.2)
    assert m["layer.sources.self_s"] == pytest.approx(2.5 - 1.5)
    assert tracing.top_layer(m) == "validators"


def test_engine_output_matches_truth(tmp_path):
    """End to end on tiny inputs: a full run, then a resume run after
    one partition changed."""
    ray = pytest.importorskip("ray")
    from bigdime_ray.pipelines.validate import (ValidationRunConfig,
                                                run_validation)
    ray_dir = tempfile.mkdtemp(prefix="vb")  # short: Ray socket paths
    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR",
             object_store_memory=256 << 20, **child.ray_dirs(ray_dir))
    try:
        for workload in sorted(TINY):
            w = gen.WORKLOADS[workload]
            d = str(tmp_path / workload)
            truth = gen.generate(workload, 9, d)
            cfg = ValidationRunConfig(input_dir=d, run_dir=d + "-run",
                                      suite=list(w.suite), resume=True)
            parts = sorted(truth.rows)
            assert check.check(run_validation(cfg), truth, parts) == []
            if w.resume:
                failing = [p for p, v in truth.verdicts.items()
                           if "FAILED" in v.values()]
                changed = next(p for p in parts if p not in failing)
                for name in os.listdir(os.path.join(
                        d, "data", f"partition_id={changed}")):
                    os.utime(os.path.join(d, "data",
                                          f"partition_id={changed}", name))
                expected = sorted(set(failing) | {changed})
                assert check.check(run_validation(cfg), truth,
                                   expected) == []
    finally:
        ray.shutdown()
        shutil.rmtree(ray_dir, ignore_errors=True)
