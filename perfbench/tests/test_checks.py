import numpy as np

from so3harmonics.rotations import sample_uniform_matrices, zyz_to_matrices
from workloads import (BIN_WIDTH_DEG, Outcome, check_decode, check_refine,
                       count_bad_rotations, is_rotation)


def _truth(n=20):
    return sample_uniform_matrices(3, n)


def test_exact_predictions_pass_the_decode_check():
    gt = _truth()
    ok, median = check_decode(gt.copy(), gt)
    assert ok and median < 1e-5


def test_corrupted_prediction_fails_the_decode_check():
    gt = _truth()
    turn = zyz_to_matrices(np.array(0.0), np.array(0.0), np.array(np.pi / 2))
    ok, median = check_decode(gt @ turn, gt)
    assert not ok and median > BIN_WIDTH_DEG


def test_non_rotation_fails_the_decode_check_and_counts_as_failed():
    gt = _truth()
    preds = gt.copy()
    preds[0] = -preds[0]            # det = -1
    preds[1] = 1.01 * preds[1]      # not orthogonal
    ok, _ = check_decode(preds, gt)
    assert not ok
    assert not is_rotation(preds[0]) and not is_rotation(preds[1])
    outcome = Outcome()
    count_bad_rotations(outcome, preds)
    assert outcome.failures == {"not_rotation": 2}


def test_refine_check_rejects_a_worse_pose():
    from so3harmonics import wigner
    gt = _truth(5)
    psis = wigner.rotations_to_psi(gt, 6)
    assert check_refine(psis, gt, gt.copy())
    worse = gt @ zyz_to_matrices(np.array(0.0), np.array(0.2), np.array(0.0))
    assert not check_refine(psis, gt, worse)
