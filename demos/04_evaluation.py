#!/usr/bin/env python3
"""Score held-out users and compare the network with the DTW baseline.

Two protocols: 1vs1 scores every (enrollment, probe) comparison alone;
4vs1 averages each probe's scores over the user's four enrollment
signatures, which is how a deployed verifier would use an enrollment
set. DET operating points go to a CSV that demos/plot_det.py can draw.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from sigver.dataset import DEVELOPMENT, EVALUATION, build_pairs, build_split
from sigver.dtw import DtwConfig, score_pairs_dtw
from sigver.features import extract_features
from sigver.metrics import (
    aggregate_4vs1,
    compute_eer,
    det_curve,
    make_score_set,
    write_det_csv,
)
from sigver.siamese import ModelConfig, TrainConfig, init_model, score_pairs, train
from sigver.synth import SynthConfig, generate_records

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
out.mkdir(parents=True, exist_ok=True)

# the default 40-user corpus is the repo's reference benchmark; much
# smaller development sets make the network memorize its users instead
# of learning what "same signer" looks like (expect about a minute)
records = generate_records(SynthConfig())
split = build_split(records, n_dev_users=30)
features = {
    rec.key: extract_features(rec)
    for part in (DEVELOPMENT, EVALUATION)
    for rec in split.records(part)
}

dev_pairs = build_pairs(split, DEVELOPMENT)
model = init_model(ModelConfig(branch_hidden=16, merge_hidden=8, time_stride=3),
                   np.random.default_rng(20240816))
trained, history = train(model, dev_pairs, features,
                         TrainConfig(learning_rate=3e-3, max_iterations=200,
                                     stop_below_cost=0.05, seed=20240816))
print(f"trained {len(history)} iterations, "
      f"final cost {history[-1]['cost']:.4f}")

eval_pairs = build_pairs(split, EVALUATION)
print(f"{len(split.evaluation_users)} evaluation users, "
      f"{len(eval_pairs)} comparisons\n")

systems = {
    "proposed": score_pairs(trained,
                            [features[p.enroll_key] for p in eval_pairs],
                            [features[p.probe_key] for p in eval_pairs]),
    "baseline": score_pairs_dtw(eval_pairs, features,
                                DtwConfig(selected_columns=(1, 2, 5))),
}

curves = []
for system, scores in systems.items():
    one = make_score_set(eval_pairs, scores, system)
    four = aggregate_4vs1(eval_pairs, scores, system)
    for scoreset in (one, four):
        eer, threshold = compute_eer(scoreset)
        print(f"{system:9s} {scoreset.protocol.value}: "
              f"EER {eer:5.2f}% at threshold {threshold:.4f}")
        curves.append((system, scoreset.protocol, det_curve(scoreset)))

# synthetic forgeries are geometrically sloppy, which raw trajectory
# alignment catches outright; separating the systems takes real pen data
write_det_csv(out / "det.csv", curves)
print(f"\nDET operating points written to {out / 'det.csv'}")
print(f"draw them with: python3 demos/plot_det.py {out / 'det.csv'}")
