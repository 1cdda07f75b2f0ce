"""Central-difference gradient checks that step around ReLU kinks, and the
batched training chain they check."""

import numpy as np

from so3harmonics.estimation import loss_and_grad
from so3harmonics.specconv import (backward_head_wigner, backward_trunk,
                                   forward_trunk, head_wigner)


def kink_safe_gradcheck(loss_and_mask, checks, rng, count, h=1e-5):
    """Worst relative error of analytic gradients against central differences.

    ``loss_and_mask()`` returns the loss and the trunk's ReLU mask at the
    current parameters.  ``checks`` lists (parameter array, analytic
    gradient) pairs, visited in turn; each coordinate is drawn from
    ``rng``.  Central differences are exact only where no ReLU sample
    changes sign within +-h, so a coordinate whose +-h step changes the
    mask is skipped and replaced by a fresh draw.  Returns (worst
    relative error, skipped count) over ``count`` checked coordinates.
    """
    _, mask = loss_and_mask()
    worst = 0.0
    checked = skipped = 0
    for _ in range(2 * count):
        arr, grad = checks[checked % len(checks)]
        idx = tuple(rng.integers(0, s) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        up, up_mask = loss_and_mask()
        arr[idx] = orig - h
        dn, dn_mask = loss_and_mask()
        arr[idx] = orig
        if not (np.array_equal(up_mask, mask)
                and np.array_equal(dn_mask, mask)):
            skipped += 1
            continue
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - grad[idx])
                    / max(abs(fd), abs(grad[idx]), 1e-6))
        checked += 1
        if checked == count:
            return worst, skipped
    raise AssertionError(f"only {checked} of {count} coordinates clear "
                         f"ReLU kinks in {2 * count} draws")


def batch_loss_and_grads(model, kind, values, gt_psi, loss_cfg, **trunk_kw):
    """One training step's chain on a batch, as ``harness.train`` runs it:
    ``forward_trunk``, ``head_wigner``, ``loss_and_grad``,
    ``backward_head_wigner``, ``backward_trunk``.

    Returns (loss, {"mixer", "s2_spectra", "so3_weights"} gradients, the
    trunk's ReLU mask).
    """
    hidden, state = forward_trunk(model, kind, values, **trunk_kw)
    value, d_psi = loss_and_grad(head_wigner(model, hidden), gt_psi, loss_cfg)
    d_hidden, d_weights = backward_head_wigner(model, state, d_psi)
    d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
    grads = {"mixer": d_mixer, "s2_spectra": d_spectra, "so3_weights": d_weights}
    return value, grads, state.relu_mask
