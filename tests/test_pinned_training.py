"""Training's and scoring's bytes for every model variant, pinned.

Each of the 8 variants (symmetric x concat x readout) runs at the
benchmark's sizes (16/8, time stride 3) and at the library's (46/23,
stride 1), on batches of 1, 3 and 64 pairs of random 23-column feature
sequences of 7 to 420 rows. The batch of 1 is a pair of 7 against 420
rows, and the 64 pairs share some of their sequences, so scoring
encodes fewer rows than training. A case's digest covers
``batch_loss_grads``' loss, gradient and scores and ``score_pairs``'
scores of the same pairs. The digests are pinned for the platform
fingerprint of ``test_pinned_outputs``; on another fingerprint the
exact check skips, and the check that both scorings agree runs
everywhere.
"""
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from sigver.siamese import ModelConfig, batch_loss_grads, init_model, score_pairs
from test_pinned_outputs import RECORDED_ON, fingerprint

SIZES = {"16-8-s3": ModelConfig(branch_hidden=16, merge_hidden=8, time_stride=3),
         "46-23-s1": ModelConfig()}
VARIANTS = list(itertools.product([True, False], ["per_step", "final_state"],
                                  ["last", "mean"]))
BATCHES = [1, 3, 64]

# case id -> the first 16 hex digits of the case's sha256. A final_state
# merge runs one step, so its mean readout is its last output, bit for bit
SHA256 = {
    "16-8-s3-sym-per_step-last-1": "b990dd7152fc6405",
    "16-8-s3-sym-per_step-last-3": "e64cf3030a1239f9",
    "16-8-s3-sym-per_step-last-64": "fbae91b22a66bb2a",
    "16-8-s3-sym-per_step-mean-1": "65aa073b6bfac9ab",
    "16-8-s3-sym-per_step-mean-3": "61e25ec528f37455",
    "16-8-s3-sym-per_step-mean-64": "97c586d06a0738f2",
    "16-8-s3-sym-final_state-last-1": "2c79406be82c1a08",
    "16-8-s3-sym-final_state-last-3": "014ce65cfb04a900",
    "16-8-s3-sym-final_state-last-64": "1ab2376c10f51f95",
    "16-8-s3-sym-final_state-mean-1": "2c79406be82c1a08",
    "16-8-s3-sym-final_state-mean-3": "014ce65cfb04a900",
    "16-8-s3-sym-final_state-mean-64": "1ab2376c10f51f95",
    "16-8-s3-dir-per_step-last-1": "749c572d673b8a2a",
    "16-8-s3-dir-per_step-last-3": "e8b368a249c9b10c",
    "16-8-s3-dir-per_step-last-64": "a1140a1ff967e6b2",
    "16-8-s3-dir-per_step-mean-1": "84956697d0b89ab6",
    "16-8-s3-dir-per_step-mean-3": "651bd0e5b4d8e520",
    "16-8-s3-dir-per_step-mean-64": "4cf3a49e52f8c99a",
    "16-8-s3-dir-final_state-last-1": "865397dd8d1f9e79",
    "16-8-s3-dir-final_state-last-3": "f0b6ffc1ba86aa98",
    "16-8-s3-dir-final_state-last-64": "4849df0334857deb",
    "16-8-s3-dir-final_state-mean-1": "865397dd8d1f9e79",
    "16-8-s3-dir-final_state-mean-3": "f0b6ffc1ba86aa98",
    "16-8-s3-dir-final_state-mean-64": "4849df0334857deb",
    "46-23-s1-sym-per_step-last-1": "6e522981fc1efc7b",
    "46-23-s1-sym-per_step-last-3": "cad6d560e555721f",
    "46-23-s1-sym-per_step-last-64": "70d46025ac42a25d",
    "46-23-s1-sym-per_step-mean-1": "fbd60bd0c69d23e2",
    "46-23-s1-sym-per_step-mean-3": "1eabd1d938c1c855",
    "46-23-s1-sym-per_step-mean-64": "3b4a568c519fbc9c",
    "46-23-s1-sym-final_state-last-1": "baadccb77944db72",
    "46-23-s1-sym-final_state-last-3": "9eb5fa2eae809cf7",
    "46-23-s1-sym-final_state-last-64": "a1c6915e113d5343",
    "46-23-s1-sym-final_state-mean-1": "baadccb77944db72",
    "46-23-s1-sym-final_state-mean-3": "9eb5fa2eae809cf7",
    "46-23-s1-sym-final_state-mean-64": "a1c6915e113d5343",
    "46-23-s1-dir-per_step-last-1": "02b3938dc9367e6b",
    "46-23-s1-dir-per_step-last-3": "a2ff5291bae3ae30",
    "46-23-s1-dir-per_step-last-64": "1b58c3b55dd8431a",
    "46-23-s1-dir-per_step-mean-1": "e99e4c4a290fdc54",
    "46-23-s1-dir-per_step-mean-3": "f60a7fb6e37a2d3d",
    "46-23-s1-dir-per_step-mean-64": "6595df232a71da56",
    "46-23-s1-dir-final_state-last-1": "130128657382d25f",
    "46-23-s1-dir-final_state-last-3": "a021239431334586",
    "46-23-s1-dir-final_state-last-64": "7e034037cd252d3d",
    "46-23-s1-dir-final_state-mean-1": "130128657382d25f",
    "46-23-s1-dir-final_state-mean-3": "a021239431334586",
    "46-23-s1-dir-final_state-mean-64": "7e034037cd252d3d",
}


def case_id(size: str, variant: tuple, n: int) -> str:
    symmetric, concat, readout = variant
    return f"{size}-{'sym' if symmetric else 'dir'}-{concat}-{readout}-{n}"


CASES = [(size, variant, n) for size in SIZES for variant in VARIANTS for n in BATCHES]


def batch(n: int):
    """n pairs of feature sequences and their labels, the same on every call."""
    rng = np.random.default_rng(1000 + n)
    if n == 1:
        return [rng.normal(size=(7, 23))], [rng.normal(size=(420, 23))], np.ones(1)
    pool = [rng.normal(size=(int(rng.integers(7, 421)), 23)) for _ in range(n + n // 4)]
    pick = rng.integers(0, len(pool), size=(2, n))
    return ([pool[k] for k in pick[0]], [pool[k] for k in pick[1]],
            rng.integers(0, 2, n).astype(np.float64))


def run_case(size: str, variant: tuple, n: int):
    """(loss, gradient, training scores, scoring's scores) of one case."""
    symmetric, concat, readout = variant
    cfg = dataclasses.replace(SIZES[size], symmetric=symmetric, concat=concat,
                              readout=readout)
    model = init_model(cfg, np.random.default_rng(7))
    seq_a, seq_b, labels = batch(n)
    loss, grad, scores = batch_loss_grads(model, seq_a, seq_b, labels)
    return loss, grad, scores, score_pairs(model, seq_a, seq_b)


def digest(loss: float, grad, scores, scored) -> str:
    h = hashlib.sha256(np.float64(loss).tobytes())
    for array in (grad, scores, scored):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("size,variant,n", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_training_and_scoring_write_the_pinned_bytes(size, variant, n):
    loss, grad, scores, scored = run_case(size, variant, n)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    # training encodes every pair's rows, scoring each distinct sequence
    # once per window; the batches differ, so the last bits may too
    assert np.allclose(scores, scored, rtol=1e-9, atol=0.0)
    here = fingerprint()
    differ = [k for k in RECORDED_ON if here[k] != RECORDED_ON[k]]
    if differ:
        pytest.skip("exact bytes are pinned for another platform; differs in "
                    + ", ".join(differ))
    assert digest(loss, grad, scores, scored) == SHA256[case_id(size, variant, n)]
