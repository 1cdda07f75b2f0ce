"""Central-difference gradient checks that step around ReLU kinks."""

import numpy as np


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
