"""Compare a ``RunReport`` with the ground truth of its inputs."""

from __future__ import annotations

from collections import Counter

from gen import ROW_VALIDATORS, Truth

GLOBAL = "__global__"
OVERALL = "__overall__"
#: differences reported per run
MAX_DIFFS = 5


def expected_verdicts(truth: Truth, partitions: list) -> dict:
    """(partition, validator) -> result for a run over ``partitions``,
    including the per-partition ``__overall__`` fold and the per-source
    ``__global__`` row."""
    out = {}
    for p in partitions:
        for vid, res in truth.verdicts[p].items():
            out[(p, vid)] = res
        out[(p, OVERALL)] = ("FAILED" if "FAILED" in truth.verdicts[p]
                             .values() else "PASSED")
    if partitions and "per_source_stats" in truth.verdicts[partitions[0]]:
        res = ("FAILED" if any(out[(p, "per_source_stats")] == "FAILED"
                               for p in partitions) else "PASSED")
        out[(GLOBAL, "per_source_stats")] = res
        out[(GLOBAL, OVERALL)] = res
    return out


def expected_violations(truth: Truth, partitions: list) -> dict:
    """validator -> Counter of (partition, doc_id) for ``partitions``."""
    keep = set(partitions)
    return {vid: Counter((p, d) for p, d in rows if p in keep)
            for vid, rows in truth.violations.items()}


def check(report, truth: Truth, partitions: list) -> list:
    """Differences between ``report`` and the truth for a run expected to
    validate exactly ``partitions``; an empty list means correct."""
    diffs = []
    if sorted(report.partitions_run) != sorted(partitions):
        diffs.append(f"partitions run {sorted(report.partitions_run)} != "
                     f"{sorted(partitions)}")
    got = {(r["partition_id"], r["validator_id"]): r["result"]
           for r in report.verdicts.select(
               ["partition_id", "validator_id", "result"]).to_pylist()}
    want = expected_verdicts(truth, sorted(partitions))
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            diffs.append(f"verdict {key}: got {got.get(key)}, "
                         f"expected {want.get(key)}")

    got_v = {vid: Counter() for vid in ROW_VALIDATORS}
    if report.violations is not None:
        for r in report.violations.select(
                ["partition_id", "validator_id", "doc_id"]).to_pylist():
            got_v.setdefault(r["validator_id"], Counter())[
                (r["partition_id"], r["doc_id"])] += 1
    for vid, want_rows in expected_violations(truth, partitions).items():
        missing = want_rows - got_v.get(vid, Counter())
        extra = got_v.get(vid, Counter()) - want_rows
        if missing or extra:
            diffs.append(f"violations {vid}: {sum(missing.values())} "
                         f"missing (e.g. {sorted(missing)[:2]}), "
                         f"{sum(extra.values())} unexpected "
                         f"(e.g. {sorted(extra)[:2]})")
    for vid in set(got_v) - set(ROW_VALIDATORS) - {None}:
        if got_v[vid]:
            diffs.append(f"violations from unexpected validator {vid}")
    return diffs[:MAX_DIFFS]
