#!/usr/bin/env python3
"""sigver benchmark: the train, evaluate and verify workloads.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

Each run generates its corpus with ``sigver.synth`` from ``--seed``, sets
up the workload three times, runs the workload's once-per-run stage
(evaluate's SFFS), then repeats the workload's job while the next job is
expected to end within ``--seconds`` (at least once; verify sends at
least 200 requests, so that ten lie beyond p95). The timings are medians
over the jobs, corrected for the host's speed (see ``HostProbe``); the
golden check (see ``golden_check``) runs every code path of the workload
first, so the timed jobs find the code warm. The second-to-last line of
standard output is a JSON detail record:
environment, the per-workload metrics, every output check and, with
``--trace 1``, the per-layer table. The last line is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics. The exit status is 0 only when no operation failed.

``--trace 1`` wraps the public functions of the sigver modules (see
``TRACED``) and times every call; ``--trace 0`` runs the same code
untraced. ``--record`` stores the outputs of this run and of the fixed
golden run in reference.json instead of checking them.
"""
from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is imported: threaded BLAS on the
# small GEMMs here spreads results far more than the changes measured
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODEL_PATH = BENCH / "model.npz"
REFERENCE_PATH = BENCH / "reference.json"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import scipy
    from scipy.spatial.distance import cdist

    import sigver
    from sigver import dataset, dtw, features, lstm, metrics, siamese, svc, synth
except ImportError as exc:
    print(f"bench: cannot import sigver from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(sigver.__file__).resolve().is_relative_to(ROOT / "src"):
    # an installed copy would be measured instead of this checkout's source
    print(f"bench: sigver was imported from {sigver.__file__}, not {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

from tracing import Tracer, span_cost_s  # noqa: E402

SETUPS = 3
GOLDEN_SEED = 20240816
# decision thresholds of the verify workload: a score at or above accepts
PROPOSED_ACCEPT = 0.5
BASELINE_ACCEPT = -7.0
PROBE_KEY = "probe"
# relative tolerance of the reference checks; see ROADMAP on low-order bits
REL_TOL = 1e-6


@dataclass(frozen=True)
class Size:
    users: int
    dev_users: int
    bands: int  # users come in equal-width bands of signature duration
    min_duration: float
    max_duration: float
    epochs: int  # siamese.train epochs per train job
    dtw_probes: int  # evaluation probes per user and label scored by DTW
    sffs_k: int
    sffs_pairs: int
    checked_requests: int  # verify requests compared with the reference
    min_requests: int  # verify requests per run, so p95 has 10 samples beyond


SIZES = {
    "full": Size(users=40, dev_users=30, bands=10, min_duration=1.5,
                 max_duration=4.0, epochs=1, dtw_probes=1, sffs_k=1,
                 sffs_pairs=8, checked_requests=40, min_requests=200),
    "tiny": Size(users=4, dev_users=2, bands=2, min_duration=0.3,
                 max_duration=0.6, epochs=1, dtw_probes=1, sffs_k=1,
                 sffs_pairs=8, checked_requests=4, min_requests=4),
}

# the defaults of `sigver train`
MODEL_CONFIG = siamese.ModelConfig(branch_hidden=16, merge_hidden=8, time_stride=3)


def train_config(epochs: int, seed: int) -> siamese.TrainConfig:
    return siamese.TrainConfig(
        learning_rate=3e-3, batch_size=64, max_iterations=epochs, patience=0,
        clip_norm=5.0, seed=seed, optimizer="adam", stop_below_cost=0.05,
    )


def make_corpus(size: Size, seed: int, root: Path) -> None:
    """Write ``size.users`` users as ``root/u<slot>``, stratified by duration.

    Slot s lies in duration band s % bands, so every workload sees the same
    spread of signature lengths whatever the seed, and any run of
    ``bands`` consecutive users covers every band once.
    """
    width = (size.max_duration - size.min_duration) / size.bands
    per_band = size.users // size.bands
    for band in range(size.bands):
        low = size.min_duration + band * width
        cfg = synth.SynthConfig(n_users=per_band, seed=seed * size.bands + band,
                                min_duration=low, max_duration=low + width)
        staging = root / f"band{band}"
        synth.generate(cfg, staging)
        for k in range(per_band):
            (staging / f"u{k:03d}").rename(root / f"u{k * size.bands + band:03d}")
        staging.rmdir()


@dataclass
class Job:
    seconds: float
    proposed_pairs: int
    proposed_s: float
    outputs: dict
    operations: int = 1
    stages: dict = field(default_factory=dict)
    failed: bool = False
    kept: tuple = ()  # inputs the output checks need again


def _values_digest(vec: np.ndarray) -> dict:
    projection = np.random.default_rng(0).standard_normal((4, vec.size)) @ vec
    return {"param_projection": [float(v) for v in projection],
            "param_norm": float(np.linalg.norm(vec)),
            "param_sha256": hashlib.sha256(vec.tobytes()).hexdigest()}


def _sequences(pairs, feats):
    return [feats[p.enroll_key] for p in pairs], [feats[p.probe_key] for p in pairs]


class BatchJob:
    """A workload whose job is one whole batch run of the library."""

    min_jobs = 1

    def __init__(self, size: Size, seed: int, corpus: Path):
        self.size, self.seed, self.corpus = size, seed, corpus

    def prepare(self) -> None:
        pass

    def prelude(self, state) -> int:
        """Work done once per run, after set-up and before the first job.

        Returns the number of operations it attempted.
        """
        return 0

    def reference_outputs(self, jobs: list[Job]) -> dict:
        return jobs[0].outputs

    def checks(self, state, jobs: list[Job]) -> list[dict]:
        mismatches = [m for j in jobs[1:] for m in compare(jobs[0].outputs, j.outputs, 0.0)]
        return [{"check": "every job repeats the first job's outputs bit for bit",
                 "ok": not mismatches, "jobs": len(jobs), "mismatches": mismatches[:5]}]


class Train(BatchJob):
    """``siamese.train`` for a fixed number of epochs at the CLI defaults."""

    name = "train"

    def setup(self):
        records = dataset.load_dataset(self.corpus)
        split = dataset.build_split(records, n_dev_users=self.size.dev_users)
        pairs = dataset.build_pairs(split, dataset.DEVELOPMENT)
        feats = {r.key: features.extract_features(r)
                 for r in split.records(dataset.DEVELOPMENT)}
        model = siamese.init_model(MODEL_CONFIG, np.random.default_rng(self.seed))
        return model, pairs, feats

    def job(self, state, index: int) -> Job:
        model, pairs, feats = state
        t0 = time.perf_counter()
        trained, history = siamese.train(model, pairs, feats,
                                         train_config(self.size.epochs, self.seed))
        seconds = time.perf_counter() - t0
        outputs = {"epoch_costs": [h["cost"] for h in history]}
        outputs.update(_values_digest(siamese.pack_params(trained)))
        return Job(seconds, len(pairs) * len(history), seconds, outputs)

    def workload_metrics(self, jobs: list[Job]) -> dict:
        return {"train.pairs_per_s": _median_metric(
            [j.proposed_pairs / j.proposed_s for j in jobs], "pairs/s")}


@dataclass
class EvaluateState:
    split: dataset.DatasetSplit
    eval_pairs: list
    dev_pairs: list
    dtw_pairs: list
    feats: dict
    model: siamese.SiameseModel
    columns: tuple = ()  # the DTW columns SFFS selected


class Evaluate(BatchJob):
    """The job behind ``sigver evaluate --model --baseline --sffs``, bounded.

    The SFFS column search runs once per run, before the jobs: at the
    smallest budget that still has both classes it is 184 DTW pairs, more
    than the rest of the job, and a 25 s run of whole jobs would time one
    or two.
    Each job scores both pair lists with the LSTM system, the evaluation
    pairs with DTW on the selected columns, and EER and DET.
    """

    name = "evaluate"
    sffs_s = None

    def setup(self) -> EvaluateState:
        records = dataset.load_dataset(self.corpus)
        split = dataset.build_split(records, n_dev_users=self.size.dev_users)
        eval_pairs = dataset.build_pairs(split, dataset.EVALUATION)
        dev_pairs = dataset.build_pairs(split, dataset.DEVELOPMENT)
        feats = {r.key: features.extract_features(r) for r in records}
        dtw_pairs = [p for p in eval_pairs if p.probe_index < self.size.dtw_probes]
        return EvaluateState(split, eval_pairs, dev_pairs, dtw_pairs, feats,
                             siamese.load_model(MODEL_PATH))

    def prelude(self, s: EvaluateState) -> int:
        t0 = time.perf_counter()
        s.columns, _ = dtw.sffs_select(s.split, s.feats, k_max=self.size.sffs_k,
                                       max_pairs=self.size.sffs_pairs)
        self.sffs_s = time.perf_counter() - t0
        return 1

    def job(self, s: EvaluateState, index: int) -> Job:
        t0 = time.perf_counter()
        proposed = siamese.score_pairs(s.model, *_sequences(s.eval_pairs, s.feats))
        proposed_dev = siamese.score_pairs(s.model, *_sequences(s.dev_pairs, s.feats))
        t1 = time.perf_counter()
        baseline = dtw.score_pairs_dtw(s.dtw_pairs, s.feats,
                                       dtw.DtwConfig(selected_columns=s.columns))
        t2 = time.perf_counter()
        outputs = {"sffs_columns": list(s.columns)}
        for system, pairs, scores in (("proposed", s.eval_pairs, proposed),
                                      ("proposed_dev", s.dev_pairs, proposed_dev),
                                      ("baseline", s.dtw_pairs, baseline)):
            for scoreset in (metrics.make_score_set(pairs, scores),
                             metrics.aggregate_4vs1(pairs, scores, system)):
                eer, threshold = metrics.compute_eer(scoreset)
                metrics.det_curve(scoreset, n_points=200)
                outputs[f"{system}_{scoreset.protocol.value}"] = [eer, threshold]
        t3 = time.perf_counter()
        n_proposed = len(s.eval_pairs) + len(s.dev_pairs)
        stages = {"baseline_s": t2 - t1, "baseline_pairs": len(s.dtw_pairs)}
        return Job(t3 - t0, n_proposed, t1 - t0, outputs, operations=3, stages=stages)

    def workload_metrics(self, jobs: list[Job]) -> dict:
        return {
            "evaluate.proposed_pairs_per_s": _median_metric(
                [j.proposed_pairs / j.proposed_s for j in jobs], "pairs/s"),
            "evaluate.baseline_pairs_per_s": _median_metric(
                [j.stages["baseline_pairs"] / j.stages["baseline_s"] for j in jobs],
                "pairs/s"),
            "evaluate.sffs_s": {"value": self.sffs_s, "unit": "s", "samples": 1},
        }


@dataclass
class VerifyState:
    gallery: dict  # user -> enrollment feature sequences
    model: siamese.SiameseModel


class Verify:
    """An online verifier driven as a closed loop by one client.

    A request is one probe's raw SVC bytes and the claimed user. The
    verifier parses and extracts the probe, scores it against the user's
    enrollment sequences with each system and takes the 4vs1 mean.
    """

    name = "verify"

    def __init__(self, size: Size, seed: int, corpus: Path):
        self.size, self.seed, self.corpus = size, seed, corpus
        self.min_jobs = max(size.checked_requests, size.min_requests)

    def prelude(self, state) -> int:
        return 0

    def prepare(self) -> None:
        """The client's side: the enrollment manifest and the request bytes."""
        protocol = dataset.DEFAULT_PROTOCOL
        rng = np.random.default_rng(self.seed)
        self.users = sorted(p.name for p in self.corpus.iterdir() if p.is_dir())
        manifest = []
        self.probes = {}
        for user in self.users:
            for index in range(protocol.enrollment_per_user):
                manifest.append(f"{user}/genuine_1_{index:02d}.svc\t{user}\tgenuine\t1\t{index}")
            files = sorted(f for f in (self.corpus / user).glob("*.svc")
                           if not f.name.startswith("genuine_1_"))
            self.probes[user] = [(f"{user}/{files[k].stem}", files[k].read_bytes())
                                 for k in rng.permutation(len(files))]
        self.manifest = self.corpus / "enrollment.tsv"
        self.manifest.write_text("\n".join(manifest) + "\n")

    def request(self, index: int) -> tuple[str, str, bytes]:
        """Request ``index``: users in turn, each user's probes in seeded order."""
        user = self.users[index % len(self.users)]
        probes = self.probes[user]
        name, data = probes[(index // len(self.users)) % len(probes)]
        return user, name, data

    def setup(self) -> VerifyState:
        gallery: dict[str, list] = {}
        for record in dataset.load_dataset(self.corpus, manifest=self.manifest):
            gallery.setdefault(record.user_id, []).append(
                features.extract_features(record))
        return VerifyState(gallery, siamese.load_model(MODEL_PATH))

    def job(self, s: VerifyState, index: int) -> Job:
        user, name, data = self.request(index)
        enroll = s.gallery[user]
        t0 = time.perf_counter()
        try:
            probe = features.extract_features(svc.parse_svc(data, user_id=user))
            t1 = time.perf_counter()
            proposed = siamese.score_pairs(s.model, enroll, [probe] * len(enroll))
            t2 = time.perf_counter()
            pairs = [dataset.Pair(user, k, 0, e.key, PROBE_KEY, 0)
                     for k, e in enumerate(enroll)]
            feats = {e.key: e for e in enroll}
            feats[PROBE_KEY] = probe
            baseline = dtw.score_pairs_dtw(pairs, feats)
            t3 = time.perf_counter()
        except ValueError as exc:  # ParseError and InvariantError included
            print(f"bench: request {index} ({name}) failed: {exc}", file=sys.stderr)
            return Job(time.perf_counter() - t0, 0, 0.0, {}, failed=True)
        p_score, b_score = float(np.mean(proposed)), float(np.mean(baseline))
        outputs = {"probe": name, "proposed": p_score, "baseline": b_score,
                   "accept_proposed": p_score >= PROPOSED_ACCEPT,
                   "accept_baseline": b_score >= BASELINE_ACCEPT}
        stages = {"proposed_ms": 1e3 * (t2 - t0),
                  "baseline_ms": 1e3 * ((t1 - t0) + (t3 - t2))}
        failed = not (math.isfinite(p_score) and math.isfinite(b_score))
        return Job(t3 - t0, len(enroll), t2 - t0, outputs, stages=stages,
                   failed=failed, kept=(user, probe, proposed, baseline))

    def reference_outputs(self, jobs: list[Job]) -> dict:
        checked = [j.outputs for j in jobs[: self.size.checked_requests]]
        decisions = "".join(
            ("A" if o["accept_proposed"] else "R") + ("A" if o["accept_baseline"] else "R")
            for o in checked)
        return {"probes": [o["probe"] for o in checked],
                "proposed": [o["proposed"] for o in checked],
                "baseline": [o["baseline"] for o in checked],
                "decisions": decisions,
                "scores_sha256": hashlib.sha256(
                    np.array([[o["proposed"], o["baseline"]] for o in checked]).tobytes()
                ).hexdigest()}

    def checks(self, s: VerifyState, jobs: list[Job]) -> list[dict]:
        """The per-request scores must equal the batch path's scores."""
        done = [j for j in jobs if not j.failed]
        seq_a, seq_b, online = [], [], []
        for job in done:
            user, probe, proposed, _ = job.kept
            seq_a += s.gallery[user]
            seq_b += [probe] * len(proposed)
            online.append(proposed)
        batch = siamese.score_pairs(s.model, seq_a, seq_b)
        proposed_ok = bool(np.allclose(batch, np.concatenate(online), rtol=REL_TOL, atol=0))

        pairs, feats, online = [], {}, []
        for k, job in enumerate(done[: self.size.checked_requests // 4]):
            user, probe, _, baseline = job.kept
            feats[f"{PROBE_KEY}{k}"] = probe
            for i, e in enumerate(s.gallery[user]):
                feats[e.key] = e
                pairs.append(dataset.Pair(user, i, k, e.key, f"{PROBE_KEY}{k}", 0))
            online.append(baseline)
        batch_dtw = dtw.score_pairs_dtw(pairs, feats)
        baseline_ok = bool(np.allclose(batch_dtw, np.concatenate(online), rtol=REL_TOL, atol=0))
        return [
            {"check": "proposed per-request scores equal batch scores",
             "ok": proposed_ok, "requests": len(done)},
            {"check": "baseline per-request scores equal batch scores",
             "ok": baseline_ok, "requests": len(online)},
        ]

    def workload_metrics(self, jobs: list[Job]) -> dict:
        done = [j for j in jobs if not j.failed]
        out = {}
        for system in ("proposed", "baseline"):
            values = [j.stages[f"{system}_ms"] for j in done]
            for q in (50, 95):
                p = float(np.percentile(values, q))
                out[f"verify.{system}_p{q}_ms"] = {
                    "value": p, "unit": "ms", "samples": len(values),
                    "beyond": sum(v > p for v in values)}
        return out


WORKLOADS = {w.name: w for w in (Train, Evaluate, Verify)}


def _median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def compare(expected, actual, rel: float, path: str = "") -> list[str]:
    """Paths where ``actual`` differs from ``expected``; floats within ``rel``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                if not k.endswith("_sha256")
                for m in compare(expected[k], actual[k], rel, f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for k, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, rel, f"{path}[{k}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        # the absolute floor serves values at or near zero, such as an EER of 0
        if math.isclose(expected, actual, rel_tol=rel, abs_tol=rel * 1e-3):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def reference_check(key: str, outputs: dict, references: dict) -> dict:
    expected = references.get(key)
    if expected is None:
        return {"check": f"outputs match reference {key}", "ok": True,
                "skipped": "no reference recorded for this seed"}
    mismatches = compare(expected, outputs, REL_TOL)
    exact = all(expected.get(k) == outputs.get(k) for k in expected if k.endswith("_sha256"))
    return {"check": f"outputs match reference {key}", "ok": not mismatches,
            "bit_identical": exact, "mismatches": mismatches[:5]}


# --- tracing ---------------------------------------------------------------


def _lstm_forward_counts(a: dict, result) -> dict:
    rows, steps = a["inputs"].shape[:2]
    valid = rows * steps if a["mask"] is None else int(np.count_nonzero(a["mask"]))
    return {"branch": int(a["params"].input_size == features.N_FEATURES), "rows": rows,
            "row_steps": rows * steps, "masked_steps": rows * steps - valid}


def _lstm_backward_counts(a: dict, result) -> dict:
    steps, rows = a["cache"]["mask_t"].shape
    return {"branch": int(a["cache"]["input"] == features.N_FEATURES),
            "row_steps": rows * steps}


def _distinct_counts(a: dict, result) -> dict:
    seqs = list(a["seq_a"]) + list(a["seq_b"])
    return {"pairs": len(a["seq_a"]),
            "distinct": len({id(getattr(s, "values", s)) for s in seqs})}


def _dtw_counts(a: dict, result) -> dict:
    feats = a["features"]

    def rows(key):
        return np.shape(getattr(feats[key], "values", feats[key]))[0]

    return {"pairs": len(a["pairs"]),
            "cells": sum(rows(p.enroll_key) * rows(p.probe_key) for p in a["pairs"])}


def _clip_counts(a: dict, result) -> dict:
    return {"clipped": int(0.0 < a["max_norm"] < result[1])}


TRACED = [
    (synth, "generate", "synth.generate", None),
    (svc, "parse_svc", "svc.parse_svc", None),
    (dataset, "load_dataset", "dataset.load_dataset", None),
    (dataset, "build_pairs", "dataset.build_pairs", None),
    (features, "extract_features", "features.extract_features", None),
    (lstm, "lstm_forward_batch", "lstm.forward", _lstm_forward_counts),
    (lstm, "lstm_backward_batch", "lstm.backward", _lstm_backward_counts),
    (lstm, "clip_global_norm", "lstm.clip_global_norm", _clip_counts),
    (siamese, "score_pairs", "siamese.score_pairs", _distinct_counts),
    (siamese, "batch_loss_grads", "siamese.batch_loss_grads", _distinct_counts),
    (siamese, "train", "siamese.train", None),
    (dtw, "score_pairs_dtw", "dtw.score_pairs_dtw", _dtw_counts),
    (dtw, "sffs_select", "dtw.sffs_select", None),
    (metrics, "compute_eer", "metrics.compute_eer", None),
    (metrics, "aggregate_4vs1", "metrics.aggregate_4vs1", None),
    (metrics, "det_curve", "metrics.det_curve", None),
]


def layer_table(tracer: Tracer, workload: str, n_jobs: int) -> tuple[dict, dict]:
    """(per-layer metrics, absent metrics with the reason) of a traced run.

    ``_s`` busy and self times and counts are per job, except SFFS's, which
    are per call; None marks a metric whose layer was never called.
    """
    agg = tracer.summary()

    def calls(name: str) -> int:
        return agg[name]["calls"] if name in agg else 0

    def total(name: str, field: str = "total_s") -> float:
        return agg[name][field] if name in agg else 0.0

    def counted(name: str, key: str) -> int:
        return agg[name]["counts"].get(key, 0) if name in agg else 0

    def ratio(value: float, base: float) -> float | None:
        return value / base if base else None

    def per_job(value: float, name: str) -> float | None:
        return value / n_jobs if calls(name) else None

    def kind_s(name: str, branch: int) -> float:
        return sum(s.duration for s in tracer.spans
                   if s.name == name and s.counts.get("branch") == branch)

    def in_job(span) -> bool:
        while span.parent >= 0:
            span = tracer.spans[span.parent]
            if span.name == "bench.job":
                return True
        return False

    job_spans = [s for s in tracer.spans if in_job(s)]

    def job_total(name: str) -> float:
        return sum(s.duration for s in job_spans if s.name == name)

    job_s = sum(s.duration for s in tracer.spans if s.name == "bench.job")
    branch_rows = sum(s.counts["rows"] for s in tracer.spans
                      if s.name == "lstm.forward" and s.counts.get("branch") == 1)
    distinct = (counted("siamese.score_pairs", "distinct")
                + counted("siamese.batch_loss_grads", "distinct"))
    in_sffs = sum(1 for s in tracer.spans if s.name == "dtw.score_pairs_dtw"
                  and s.parent >= 0 and tracer.spans[s.parent].name == "dtw.sffs_select")
    eer_det = [job_total(n) for n in
               ("metrics.compute_eer", "metrics.aggregate_4vs1", "metrics.det_curve")]
    siamese_self = sum(total(n, "self_s") for n in
                       ("siamese.score_pairs", "siamese.batch_loss_grads", "siamese.train"))
    table = {
        "svc.parse_ms_per_file": (
            ratio(1e3 * total("svc.parse_svc"), calls("svc.parse_svc")), "ms"),
        "svc.files": (calls("svc.parse_svc"), "count"),
        "dataset.load_self_s": (ratio(total("dataset.load_dataset", "self_s"),
                                      calls("dataset.load_dataset")), "s"),
        "dataset.build_pairs_ms": (ratio(1e3 * total("dataset.build_pairs"),
                                         calls("dataset.build_pairs")), "ms"),
        "features.extract_ms_per_signature": (
            ratio(1e3 * total("features.extract_features"),
                  calls("features.extract_features")), "ms"),
        "features.signatures": (calls("features.extract_features"), "count"),
        "lstm.branch_forward_s": (per_job(kind_s("lstm.forward", 1), "lstm.forward"), "s"),
        "lstm.merge_forward_s": (per_job(kind_s("lstm.forward", 0), "lstm.forward"), "s"),
        "lstm.forward_us_per_row_step": (
            ratio(1e6 * total("lstm.forward"), counted("lstm.forward", "row_steps")), "us"),
        "lstm.branch_backward_s": (
            per_job(kind_s("lstm.backward", 1), "lstm.backward"), "s"),
        "lstm.merge_backward_s": (
            per_job(kind_s("lstm.backward", 0), "lstm.backward"), "s"),
        "lstm.backward_us_per_row_step": (
            ratio(1e6 * total("lstm.backward"), counted("lstm.backward", "row_steps")), "us"),
        "lstm.backward_row_steps": (counted("lstm.backward", "row_steps") / n_jobs, "count"),
        "lstm.backward_share": (job_total("lstm.backward") / job_s, "ratio"),
        "lstm.branch_rows": (branch_rows / n_jobs, "count"),
        "lstm.branch_useful_ratio": (ratio(distinct, branch_rows), "ratio"),
        "lstm.padded_step_fraction": (
            ratio(counted("lstm.forward", "masked_steps"),
                  counted("lstm.forward", "row_steps")), "ratio"),
        "siamese.score_self_s": (
            per_job(total("siamese.score_pairs", "self_s"), "siamese.score_pairs"), "s"),
        "siamese.loss_grads_self_s": (
            per_job(total("siamese.batch_loss_grads", "self_s"),
                    "siamese.batch_loss_grads"), "s"),
        "siamese.train_loop_self_s": (
            per_job(total("siamese.train", "self_s"), "siamese.train"), "s"),
        "siamese.self_s": (siamese_self / n_jobs, "s"),
        "siamese.batches": (calls("siamese.batch_loss_grads") / n_jobs, "count"),
        "siamese.clipped_batch_fraction": (
            ratio(counted("lstm.clip_global_norm", "clipped"),
                  calls("lstm.clip_global_norm")), "ratio"),
        "dtw.score_ms_per_pair": (
            ratio(1e3 * total("dtw.score_pairs_dtw"),
                  counted("dtw.score_pairs_dtw", "pairs")), "ms"),
        "dtw.ns_per_cell": (
            ratio(1e9 * total("dtw.score_pairs_dtw"),
                  counted("dtw.score_pairs_dtw", "cells")), "ns"),
        "dtw.pairs": (sum(s.counts["pairs"] for s in job_spans
                          if s.name == "dtw.score_pairs_dtw") / n_jobs, "count"),
        "dtw.share": (job_total("dtw.score_pairs_dtw") / job_s, "ratio"),
        "dtw.sffs_self_s": (ratio(total("dtw.sffs_select", "self_s"),
                                  calls("dtw.sffs_select")), "s"),
        "dtw.sffs_subsets": (ratio(in_sffs, calls("dtw.sffs_select")), "count"),
        "metrics.eer_det_ms": (
            per_job(1e3 * sum(eer_det), "metrics.compute_eer"), "ms"),
        "synth.generate_s": (total("synth.generate"), "s"),
    }
    absent = {name: f"the {workload} workload makes no call that this metric times"
              for name, (value, _) in table.items() if value is None}
    absent["*.wait_s"] = ("one process with synchronous calls and no queues, "
                          "so no layer waits for work")
    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in table.items() if value is not None}
    return values, absent


# --- host speed ------------------------------------------------------------

# The benchmark's host shares its cores with other tenants, whose load
# changes the speed of the same code by 30-40% within seconds and drifts
# over minutes, so one run's median can sit far from the next one's. A
# fixed kernel shaped like the program's work, run after every set-up,
# the prelude and every job for a tenth of their time, samples that
# speed. The gated times are divided, and the gated rates multiplied, by
# how much slower than PROBE_REF_S the kernel ran on average; the detail
# record keeps the wall-clock values beside them.
PROBE_SHARE = 0.1
# seconds of one probe call on the host the benchmark was defined on
# (2 vCPUs of a shared x86-64 host, numpy with OpenBLAS on one thread)
PROBE_REF_S = 0.064


class HostProbe:
    """Runs the probe after each piece of work, for PROBE_SHARE of its time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._seq = rng.standard_normal((128, 140, 23))  # (rows, steps, features)
        self._w = rng.standard_normal((23 + 16, 64)) * 0.1
        self._a = rng.standard_normal((280, 23))
        self._b = rng.standard_normal((300, 23))
        self.probe_once()  # warm-up, not kept
        self.times: list[float] = []
        self._owed = 0.0

    def probe_once(self) -> float:
        """Seconds of one call of the fixed kernel.

        An LSTM-like pass over a batch of feature sequences, keeping every
        step's gates, then a DTW-like sweep over the anti-diagonals of the
        cost matrix of two sequences, with path lengths: the two kinds of
        numpy work the program does, at its sizes, written here so that no
        change to the program moves the probe.
        """
        t0 = time.perf_counter()
        rows, steps, _ = self._seq.shape
        x_t = np.ascontiguousarray(self._seq.transpose(1, 0, 2))
        gates = np.empty((steps, rows, 64))
        h, c = np.zeros((rows, 16)), np.zeros((rows, 16))
        for t in range(steps):
            z = np.concatenate([x_t[t], h], axis=1) @ self._w
            gates[t] = z
            sig = 1.0 / (1.0 + np.exp(-z[:, :48]))
            c = sig[:, :16] * c + sig[:, 16:32] * np.tanh(z[:, 48:])
            h = sig[:, 32:48] * np.tanh(c)
        cost = cdist(self._a, self._b, "sqeuclidean")
        n, m = cost.shape
        total = np.full((n, m), np.inf)
        length = np.ones((n, m), dtype=np.int64)
        total[0, 0] = cost[0, 0]
        for k in range(1, n + m - 1):
            i = np.arange(max(0, k - m + 1), min(n, k + 1))
            j = k - i
            iu, jl = np.maximum(i - 1, 0), np.maximum(j - 1, 0)
            c_up = np.where(i > 0, total[iu, j], np.inf)
            c_left = np.where(j > 0, total[i, jl], np.inf)
            c_diag = np.where((i > 0) & (j > 0), total[iu, jl], np.inf)
            best = np.minimum(np.minimum(c_up, c_left), c_diag)
            l_up = np.where(c_up == best, length[iu, j], n + m)
            l_left = np.where(c_left == best, length[i, jl], n + m)
            l_diag = np.where(c_diag == best, length[iu, jl], n + m)
            total[i, j] = cost[i, j] + best
            length[i, j] = np.minimum(np.minimum(l_up, l_left), l_diag) + 1
        return time.perf_counter() - t0

    def after(self, seconds: float) -> None:
        self._owed += PROBE_SHARE * seconds
        while self._owed > 0:
            self.times.append(self.probe_once())
            self._owed -= self.times[-1]

    def slowdown(self) -> float:
        """Mean probe time of this run over PROBE_REF_S."""
        return statistics.mean(self.times) / PROBE_REF_S


# --- environment -----------------------------------------------------------


def blas_threads() -> int | None:
    """Threads of the OpenBLAS library loaded in this process, if it says."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# --- the run ---------------------------------------------------------------


def golden_check(workload: str, references: dict, record: bool) -> dict:
    """Run the tiny size on the fixed golden seed and compare with reference."""
    key = f"{workload}/tiny/{GOLDEN_SEED}"
    root = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    try:
        make_corpus(SIZES["tiny"], GOLDEN_SEED, root)
        w = WORKLOADS[workload](SIZES["tiny"], GOLDEN_SEED, root)
        w.prepare()
        state = w.setup()
        w.prelude(state)
        outputs = w.reference_outputs([w.job(state, k) for k in range(w.min_jobs)])
    except Exception as exc:  # a stage raised: the check fails
        traceback.print_exc()
        return {"check": f"outputs match reference {key}", "ok": False, "error": repr(exc)}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if record:
        references[key] = outputs
    return reference_check(key, outputs, references)


def run(args) -> tuple[dict, dict, int, int]:
    size = SIZES[args.size]
    references = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    attempted = failed = 0
    checks = [golden_check(args.workload, references, args.record)]

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    corpus = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    w = WORKLOADS[args.workload](size, args.seed, corpus)
    state, body_s, setup_times, jobs, probe = None, None, [], [], None
    try:
        if tracer:
            tracer.install(TRACED)
        try:
            make_corpus(size, args.seed, corpus)
            w.prepare()
            probe = HostProbe()
            for _ in range(SETUPS):
                attempted += 1
                t0 = time.perf_counter()
                with span("bench.setup"):
                    state = w.setup()
                setup_times.append(time.perf_counter() - t0)
                probe.after(setup_times[-1])
            body_start = time.perf_counter()
            with span("bench.prelude"):
                attempted += w.prelude(state)
            probe.after(time.perf_counter() - body_start)
            while len(jobs) < w.min_jobs or (
                    time.perf_counter() - body_start
                    + statistics.median(j.seconds for j in jobs) <= args.seconds):
                with span("bench.job"):
                    job = w.job(state, len(jobs))
                attempted += job.operations
                failed += job.failed
                jobs.append(job)
                probe.after(job.seconds)
            body_s = time.perf_counter() - body_start
        except Exception:  # a stage raised: report it as a failed operation
            traceback.print_exc()
            failed += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(corpus, ignore_errors=True)

    done = [j for j in jobs if not j.failed]
    if body_s is not None and not failed:
        ref_key = f"{args.workload}/{args.size}/{args.seed}"
        outputs = w.reference_outputs(jobs)
        if args.record:
            references[ref_key] = outputs
            REFERENCE_PATH.write_text("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(references.items())) + "\n}\n")
        checks.append(reference_check(ref_key, outputs, references))
        checks += w.checks(state, jobs)
    attempted += len(checks)
    failed += sum(not c["ok"] for c in checks)

    detail = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "jobs": len(jobs), "body_s": body_s,
        "job_seconds": [j.seconds for j in jobs], "checks": checks,
    }
    result_metrics = {}
    if done and body_s is not None:
        slowdown = probe.slowdown()
        job_wall_s = statistics.median([j.seconds for j in done])
        pairs_per_wall_s = statistics.median([j.proposed_pairs / j.proposed_s for j in done])
        setup_wall_s = statistics.median(setup_times)
        detail["host"] = {"probe_calls": len(probe.times),
                          "probe_mean_s": statistics.mean(probe.times),
                          "probe_ref_s": PROBE_REF_S, "slowdown": slowdown,
                          "setup_wall_s": setup_wall_s, "job_wall_s": job_wall_s,
                          "proposed_pairs_per_wall_s": pairs_per_wall_s}
        end_to_end = {
            "setup_s": {"value": setup_wall_s / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "proposed_pairs_per_s": {"value": pairs_per_wall_s * slowdown,
                                     "unit": "pairs/s"},
            "job_s": {"value": job_wall_s / slowdown, "unit": "s"},
        }
        detail["end_to_end"] = end_to_end
        detail["workload_metrics"] = w.workload_metrics(done)
        result_metrics = end_to_end
        if tracer:
            layers, absent = layer_table(tracer, args.workload, len(jobs))
            cost = span_cost_s()
            detail["layers"] = layers
            detail["absent"] = absent
            detail["trace_overhead"] = {
                "spans": len(tracer.spans), "s_per_span": cost,
                "share_of_body": len(tracer.spans) * cost / body_s,
            }
            dump = WORK / f"trace-{args.workload}-{args.seed}.json"
            dump.write_text(json.dumps(
                [[s.name, s.parent, s.start, s.end, s.self_s] for s in tracer.spans]))
            detail["trace_file"] = str(dump.relative_to(ROOT))
            per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            result_metrics = {m["name"]: {"value": layers.get(m["name"], {}).get("value", 0.0),
                                          "unit": m["unit"]} for m in per_layer}
    return detail, result_metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # a terminated run still removes its corpus
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    detail, result_metrics, attempted, failed = run(args)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
