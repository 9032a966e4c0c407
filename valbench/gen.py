"""Seeded workload inputs with exact ground truth.

``ensure_inputs(workload, seed, root)`` writes the engine's input layout
(``data/partition_id=pNNNN/part-0.parquet``, ``source_catalog.parquet``,
``ingest_manifest.parquet``, ``reference_profile.json`` and, for the
audit workload, ``reference_ingest/``) and returns a ``Truth``.

Clean rows come from ``bigdime_ray.synth.gen_partition``. Defects are
planted vectorized on disjoint row slices of each partition. The truth
is recomputed from the final tables with plain pyarrow/numpy predicates
(each validator's documented rule), not from the plant bookkeeping, so a
planting bug cannot hide behind matching bookkeeping. The drift verdicts
are computed from exact per-partition histograms against the reference
profile, which is built from the clean rows of the same table.

Inputs are cached on disk by (workload, seed, workload definition);
``truth.json`` is written last and marks a complete entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from bigdime_ray.functions.hashing import (fold_checksum, row_content_hash,
                                           u64_to_i64)
from bigdime_ray.functions.stats import chi2_sf, chi2_statistic
from bigdime_ray.state.profile import ReferenceProfile
from bigdime_ray.synth import (SynthConfig, gen_partition, partition_name,
                               write_catalog)
from bigdime_ray.validators import DEFAULT_SUITE, FULL_SUITE
from bigdime_ray.validators.stats_profile import ProfileState

ROGUE_SOURCE = "__rogue__"
#: the engine's default drift thresholds (ValidationRunConfig)
CHI2_PVALUE_MIN = 0.001
KS_D_MAX = 0.15
#: an exact KS distance this close to the threshold could flip under the
#: engine's t-digest approximation, so such an input is rejected
KS_MARGIN = 0.05
#: cached input sets kept on disk (one is 30-250 MB)
CACHE_ENTRIES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    partitions: int
    len_mu: float
    suite: tuple
    #: rows per defect type in each affected partition (0 = clean table)
    defect_rows: int = 0
    #: partitions whose reference-ingest rows are corrupted (audit only)
    ref_corrupt_partitions: int = 0
    ref_corrupt_rows: int = 0
    #: partitions given a new mtime before each timed resume run
    changed_per_run: int = 0

    @property
    def resume(self) -> bool:
        return self.changed_per_run > 0


WORKLOADS = {w.name: w for w in [
    Workload("long_clean", rows=256_000, partitions=16, len_mu=6.0,
             suite=tuple(DEFAULT_SUITE)),
    Workload("short_dirty", rows=1_000_000, partitions=16, len_mu=2.0,
             suite=tuple(DEFAULT_SUITE), defect_rows=200),
    Workload("resume_audit", rows=64_000, partitions=16, len_mu=6.0,
             suite=tuple(FULL_SUITE), ref_corrupt_partitions=2,
             ref_corrupt_rows=3, changed_per_run=2),
]}

#: validators that emit violation rows; every other one only verdicts
ROW_VALIDATORS = ("ntok_consistency", "token_range", "referential",
                  "uniqueness", "row_equality")


@dataclass
class Plan:
    """Seeded per-table choices, shared by every partition."""

    drift: str | None = None
    count_lie: str | None = None
    checksum_lie: str | None = None
    #: defect type -> partitions it is planted in
    affected: dict = field(default_factory=dict)
    #: partition i sends its cross duplicates to partition (i + shift) % n
    cross_shift: int = 0
    ref_corrupt: tuple = ()


@dataclass
class Truth:
    """Expected engine output for a full run over every partition."""

    workload: str
    seed: int
    rows: dict                 # partition -> row count
    #: partition -> validator -> "PASSED" | "FAILED"
    verdicts: dict
    #: validator -> [[partition, doc_id], ...]
    violations: dict

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(asdict(self), f)
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "Truth":
        with open(path) as f:
            return Truth(**json.load(f))


def _plan(w: Workload, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 7_919])
    names = [partition_name(i) for i in range(w.partitions)]
    plan = Plan()
    if w.defect_rows:
        special = rng.choice(w.partitions, 3, replace=False)
        plan.drift, plan.count_lie, plan.checksum_lie = (
            names[int(i)] for i in special)
        for kind in ("dup_intra", "dup_cross", "bad_source", "ntok",
                     "token_oob", "token_null"):
            picked = rng.choice(w.partitions, w.partitions // 2,
                                replace=False)
            plan.affected[kind] = sorted(names[int(i)] for i in picked)
        plan.cross_shift = int(rng.integers(1, w.partitions))
    if w.ref_corrupt_partitions:
        picked = rng.choice(w.partitions, w.ref_corrupt_partitions,
                            replace=False)
        plan.ref_corrupt = tuple(sorted(names[int(i)] for i in picked))
    return plan


def _synth_cfg(w: Workload, seed: int) -> SynthConfig:
    return SynthConfig(num_rows=w.rows, num_partitions=w.partitions,
                       seed=seed, len_mu=w.len_mu)


def _rows_per_partition(w: Workload) -> list[int]:
    rows = [w.rows // w.partitions] * w.partitions
    rows[-1] += w.rows - sum(rows)
    return rows


def _list_table(t: pa.Table, offsets, values, ntok=None) -> pa.Table:
    tokens = pa.ListArray.from_arrays(pa.array(offsets), values)
    t = t.set_column(1, "tokens", tokens)
    if ntok is not None:
        t = t.set_column(2, "n_tok", pa.array(ntok, type=pa.int32()))
    return t


def _drifted(cfg: SynthConfig, part: int, t: pa.Table) -> pa.Table:
    """Same doc_ids, stretched n_tok and tokens squeezed into the low
    third of the vocabulary (the ``synth`` drift defect)."""
    rng = np.random.default_rng([cfg.seed, part, 7])
    n = t.num_rows
    lengths = np.clip(np.rint(rng.lognormal(
        cfg.len_mu + 0.9, cfg.len_sigma * 1.6, n)).astype(np.int64),
        1, cfg.len_max)
    values = rng.integers(0, max(2, cfg.vocab // 3), int(lengths.sum()),
                          dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    return _list_table(t, offsets, pa.array(values), lengths)


def _plant(w: Workload, cfg: SynthConfig, plan: Plan, part: int,
           t: pa.Table) -> pa.Table:
    """Plant this partition's row defects on disjoint row slices."""
    pname = partition_name(part)
    n = w.defect_rows
    perm = np.random.default_rng([cfg.seed, part, 17]).permutation(
        t.num_rows)
    if len(perm) < 8 * n:
        raise ValueError(f"partition {pname} too small for its defects")
    slot = iter(perm[:8 * n].reshape(8, n))
    hit = {kind: pname in parts for kind, parts in plan.affected.items()}

    doc = t["doc_id"].to_numpy(zero_copy_only=False).copy()
    src = t["source"].to_numpy(zero_copy_only=False).copy()
    ntok = t["n_tok"].to_numpy().copy()
    tokens = t["tokens"].combine_chunks()
    offsets = tokens.offsets.to_numpy()
    values = tokens.values.to_numpy().copy()
    null_vals = np.zeros(len(values), dtype=bool)

    targets, donors = next(slot), next(slot)
    if hit["dup_intra"]:
        doc[targets] = doc[donors]
    # cross duplicates: partition i sends n ids to (i + shift) % N, so
    # every partition hosts at most n sent and n received ids
    sent, received = next(slot), next(slot)
    if hit["dup_cross"]:
        doc[sent] = [f"xdup-{pname}-{j:05d}" for j in range(n)]
    sender = partition_name((part - plan.cross_shift) % w.partitions)
    if sender in plan.affected["dup_cross"]:
        doc[received] = [f"xdup-{sender}-{j:05d}" for j in range(n)]
    rows = next(slot)
    if hit["bad_source"]:
        src[rows] = ROGUE_SOURCE
    rows = next(slot)
    if hit["ntok"]:
        ntok[rows] += 3
    rows = next(slot)
    if hit["token_oob"]:
        values[offsets[rows]] = cfg.vocab + 17
    rows = next(slot)
    if hit["token_null"]:
        lengths = offsets[rows + 1] - offsets[rows]
        null_vals[offsets[rows] + np.minimum(1, lengths - 1)] = True
    vals = pa.array(values, mask=null_vals if null_vals.any() else None)
    t = _list_table(t, offsets, vals, ntok)
    return t.set_column(0, "doc_id", pa.array(doc, type=pa.string())) \
        .set_column(3, "source", pa.array(src, type=pa.string()))


def _corrupt_reference(w: Workload, cfg: SynthConfig, part: int,
                       t: pa.Table) -> pa.Table:
    """Shift the first token of a few seeded rows by one."""
    rows = np.random.default_rng([cfg.seed, part, 23]).choice(
        t.num_rows, w.ref_corrupt_rows, replace=False)
    tok = t["tokens"].combine_chunks()
    offsets = tok.offsets.to_numpy()
    values = tok.values.to_numpy().copy()
    values[offsets[rows]] = (values[offsets[rows]] + 1) % cfg.vocab
    return _list_table(t, offsets, pa.array(values))


def _differing_rows(a: pa.ChunkedArray, b: pa.ChunkedArray) -> np.ndarray:
    """Row indices whose token lists differ (same row order both sides)."""
    a, b = a.combine_chunks(), b.combine_chunks()
    lengths_differ = pc.not_equal(pc.list_value_length(a),
                                  pc.list_value_length(b))
    bad = pc.fill_null(lengths_differ, True).to_numpy(zero_copy_only=False)
    if bad.any():  # the reference plant only changes values
        return np.nonzero(bad)[0]
    va = pc.fill_null(pc.list_flatten(a), -1).to_numpy(zero_copy_only=False)
    vb = pc.fill_null(pc.list_flatten(b), -1).to_numpy(zero_copy_only=False)
    parents = pc.list_parent_indices(a).to_numpy()
    return np.unique(parents[va != vb])


def _in_range_hist(t: pa.Table, vocab: int) -> np.ndarray:
    vals = pc.drop_null(pc.list_flatten(t["tokens"])).to_numpy(
        zero_copy_only=False)
    return np.bincount(vals[(vals >= 0) & (vals < vocab)], minlength=vocab)


def _row_truth(t: pa.Table, vocab: int, catalog: list,
               max_n_tok: int) -> dict:
    """Violating doc_ids of the row-local validators, straight from the
    rule in each validator's docstring."""
    tokens = t["tokens"].combine_chunks()
    ntok_bad = pc.fill_null(
        pc.not_equal(t["n_tok"], pc.list_value_length(tokens)), True)
    vals = pc.fill_null(pc.list_flatten(tokens), -1).to_numpy(
        zero_copy_only=False)
    parents = pc.list_parent_indices(tokens).to_numpy()
    range_bad = np.zeros(t.num_rows, dtype=bool)
    range_bad[parents[(vals < 0) | (vals >= vocab)]] = True
    range_bad |= pc.is_null(tokens).to_numpy(zero_copy_only=False)
    known = pc.fill_null(pc.is_in(t["source"], value_set=pa.array(catalog)),
                         False).to_numpy(zero_copy_only=False)
    over = known & (t["n_tok"].to_numpy() > max_n_tok)
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    return {
        "ntok_consistency": doc[ntok_bad.to_numpy(zero_copy_only=False)],
        "token_range": doc[range_bad],
        "referential": doc[~known | over],
        "over_bound": bool(over.any()),
    }


def _write(t: pa.Table, root: str, pname: str) -> None:
    pdir = os.path.join(root, f"partition_id={pname}")
    os.makedirs(pdir, exist_ok=True)
    pq.write_table(t, os.path.join(pdir, "part-0.parquet"))


def _build_partition(w: Workload, seed: int, plan: Plan, part: int,
                     n_rows: int, out_dir: str) -> dict:
    """Write one partition (and its reference copy) and return its share
    of the manifest, profile and truth."""
    from bigdime_ray.spi import ValidationContext, get_validator

    cfg = _synth_cfg(w, seed)
    pname = partition_name(part)
    clean = gen_partition(cfg, part, n_rows)
    profile = get_validator("column_stats")().scan_partition(
        clean, pname, ValidationContext(vocab=cfg.vocab)).state
    t = _drifted(cfg, part, clean) if pname == plan.drift else clean
    if w.defect_rows:
        t = _plant(w, cfg, plan, part, t)
    _write(t, os.path.join(out_dir, "data"), pname)

    checksum = fold_checksum(row_content_hash(t["doc_id"], t["tokens"]))
    expected = t.num_rows + (41 if pname == plan.count_lie else 0)
    if pname == plan.checksum_lie:
        checksum = (checksum + 1) & 0xFFFFFFFFFFFFFFFF

    ref_mismatch = np.empty(0, dtype=object)
    if w.ref_corrupt_partitions:
        ref = (_corrupt_reference(w, cfg, part, t)
               if pname in plan.ref_corrupt else t)
        _write(ref, os.path.join(out_dir, "reference_ingest"), pname)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        ref_mismatch = doc[_differing_rows(t["tokens"], ref["tokens"])]

    rt = _row_truth(t, cfg.vocab, cfg.sources, cfg.len_max)
    rt["row_equality"] = ref_mismatch
    return {
        "partition": pname, "rows": t.num_rows, "expected_rows": expected,
        "raw_checksum": u64_to_i64(checksum), "profile": profile,
        "hist": _in_range_hist(t, cfg.vocab),
        "ntok": np.bincount(t["n_tok"].to_numpy()),
        "clean_ntok": np.bincount(clean["n_tok"].to_numpy()),
        "over_bound": rt.pop("over_bound"),
        "doc_id": t["doc_id"].combine_chunks(),
        "row_violations": {k: v.tolist() for k, v in rt.items()},
    }


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sample KS distance of two integer histograms."""
    size = max(len(a), len(b))
    ca = np.cumsum(np.pad(a, (0, size - len(a)))) / a.sum()
    cb = np.cumsum(np.pad(b, (0, size - len(b)))) / b.sum()
    return float(np.abs(ca - cb).max())


def _drift_verdicts(parts: list, profile: ReferenceProfile) -> dict:
    """partition -> (chi2 failed, ks failed), from exact histograms.

    The chi-square test runs the engine's own statistic on the exact
    in-range token histogram (the scan builds that histogram exactly), so
    a chance rejection of a clean partition is part of the truth. The KS
    verdict uses the exact n_tok distributions; the engine estimates them
    with t-digests, so inputs within ``KS_MARGIN`` of the threshold are
    refused.
    """
    exp = profile.token_histogram.dense()
    ref_ntok = sum(np.pad(p["clean_ntok"], (0, 1 << 14))[:1 << 14]
                   for p in parts)
    out = {}
    for p in parts:
        stat, dof = chi2_statistic(p["hist"], exp)
        pval = chi2_sf(stat, dof) if dof > 0 else 1.0
        d = _ks_distance(p["ntok"], ref_ntok)
        if abs(d - KS_D_MAX) < KS_MARGIN:
            raise ValueError(f"{p['partition']}: KS distance {d:.3f} is too "
                             "close to the drift threshold")
        out[p["partition"]] = (pval < CHI2_PVALUE_MIN, d > KS_D_MAX)
    return out


def _duplicate_members(parts: list) -> list:
    """[[partition, doc_id], ...] of every row whose doc_id occurs more
    than once in the whole table."""
    ids = pa.chunked_array([p["doc_id"] for p in parts])
    counts = pc.value_counts(ids)
    dup = counts.field("values").filter(pc.greater(counts.field("counts"), 1))
    out = []
    for p in parts:
        mask = pc.is_in(p["doc_id"], value_set=dup)
        out += [[p["partition"], d] for d in p["doc_id"].filter(mask)
                .to_pylist()]
    return out


def _truth(w: Workload, seed: int, plan: Plan, parts: list,
           profile: ReferenceProfile) -> Truth:
    drift = _drift_verdicts(parts, profile)
    violations = {v: [] for v in ROW_VALIDATORS if v in w.suite}
    violations["uniqueness"] = _duplicate_members(parts)
    dup_parts = {p for p, _ in violations["uniqueness"]}
    verdicts = {}
    for p in parts:
        pname = p["partition"]
        failed = {
            "schema": False, "column_stats": False,
            "record_count": p["expected_rows"] != p["rows"],
            "raw_checksum": pname == plan.checksum_lie,
            "drift_chi2": drift[pname][0], "drift_ks": drift[pname][1],
            "uniqueness": pname in dup_parts,
            "per_source_stats": p["over_bound"],
        }
        for vid, doc_ids in p["row_violations"].items():
            if vid in violations:
                violations[vid] += [[pname, d] for d in doc_ids]
                failed[vid] = bool(doc_ids)
        verdicts[pname] = {v: "FAILED" if failed[v] else "PASSED"
                           for v in w.suite}
    return Truth(workload=w.name, seed=seed,
                 rows={p["partition"]: p["rows"] for p in parts},
                 verdicts=verdicts, violations=violations)


def _write_side_inputs(w: Workload, cfg: SynthConfig, parts: list,
                       out_dir: str) -> ReferenceProfile:
    write_catalog(out_dir, cfg)
    pq.write_table(pa.table({
        "partition_id": pa.array([p["partition"] for p in parts]),
        "expected_rows": pa.array([p["expected_rows"] for p in parts],
                                  type=pa.int64()),
        "raw_checksum": pa.array([p["raw_checksum"] for p in parts],
                                 type=pa.int64()),
    }), os.path.join(out_dir, "ingest_manifest.parquet"))
    acc = ProfileState.merge_many([p["profile"] for p in parts])
    profile = ReferenceProfile(column_stats=acc.column_stats,
                               token_histogram=acc.token_histogram,
                               ntok_digest=acc.ntok_digest)
    profile.save(os.path.join(out_dir, "reference_profile.json"))
    return profile


def generate(workload: str, seed: int, out_dir: str,
             workers: int = 1) -> Truth:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``
    (replacing it) and return their ground truth."""
    w = WORKLOADS[workload]
    plan = _plan(w, seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    args = [(w, seed, plan, i, n, out_dir)
            for i, n in enumerate(_rows_per_partition(w))]
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) \
                as ex:
            parts = list(ex.map(_build_partition, *zip(*args)))
    else:
        parts = [_build_partition(*a) for a in args]
    profile = _write_side_inputs(w, _synth_cfg(w, seed), parts, out_dir)
    truth = _truth(w, seed, plan, parts, profile)
    truth.save(os.path.join(out_dir, "truth.json"))
    return truth


def ensure_inputs(workload: str, seed: int, cache_root: str,
                  workers: int = 1) -> tuple[str, Truth]:
    """Cached ``generate``: (input dir, truth) for (workload, seed). The
    entry name also carries a digest of the workload's definition, so a
    resized workload is not served stale inputs. Only the
    ``CACHE_ENTRIES`` most recently used entries stay on disk."""
    digest = hashlib.sha256(repr(WORKLOADS[workload]).encode()).hexdigest()
    out_dir = os.path.join(cache_root, f"{workload}-{seed}-{digest[:8]}")
    marker = os.path.join(out_dir, "truth.json")
    if os.path.exists(marker):
        os.utime(marker)
        truth = Truth.load(marker)
    else:
        truth = generate(workload, seed, out_dir, workers)
    entries = sorted(os.listdir(cache_root), key=lambda e: os.path.getmtime(
        os.path.join(cache_root, e, "truth.json"))
        if os.path.exists(os.path.join(cache_root, e, "truth.json")) else 0)
    for stale in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(os.path.join(cache_root, stale), ignore_errors=True)
    return out_dir, truth
