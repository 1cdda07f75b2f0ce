"""Wigner D blocks, harmonic rotation vectors, coefficient shift.

A degree-l block is the (2l+1)-dimensional irreducible representation of
a rotation acting on harmonic coefficients: rotating a band-limited
function f by R (i.e. pulling back through R^-1) multiplies each degree-l
coefficient vector by the block of R.  Blocks compose homomorphically,
D(R1) D(R2) = D(R1 R2), and are orthogonal.  All blocks are in the real
harmonic basis of ``harmonics``.

Construction: real-basis blocks come straight from the rotation matrix
by the Ivanic-Ruedenberg recursion (J. Phys. Chem. 100, 6342 (1996);
erratum 102, 9099 (1998)), vectorized over a stack of matrices.  The
seed is D^1 = R with rows and columns permuted to the real l = 1 basis
order (y, z, x) and not transposed, i.e. ``R[:, [1, 2, 0]][:, :, [1, 2, 0]]``;
each higher degree is a few batched matrix products with D^{l-1} and
D^1.  No Euler angles are involved, so the blocks are equally accurate
everywhere on SO(3), gimbal lock included.  The real spherical
harmonics at a point x are sqrt((2l+1)/(4 pi)) times the centre column
D^l(R)[:, 0] of any R with R e_z = x, which ``wigner_center_columns``
computes by the same recursion restricted to that column.

Phase convention (unchanged from the closed-form construction this
recursion replaces): conjugated into the Condon-Shortley complex basis
as U_l^dagger D^l U_l, where U_l is the unitary map c_real = U_l c_complex
of the recombination in ``harmonics``, the block of the ZYZ matrix
Rz(gamma) Ry(beta) Rz(alpha) carries the leftmost z-angle in its
row-index phase,

    exp(-i m gamma) * d^l[n, m](beta) * exp(-i n alpha),

with d^l Wigner's small-d matrix.  This is the unique pairing under
which the blocks both compose homomorphically and satisfy the
coefficient shift law; the test suite checks it against Wigner's
closed-form small-d sum and against dense-grid resampling.

The flattened harmonic vector stacks the real-basis blocks for l = 0..L
row-major (m outer, n inner), giving length M = sum (2l+1)^2; M = 455 at
L = 6.  Each block being orthogonal, |psi|^2 = sum (2l+1) for any
rotation.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np


def m_total(bandlimit: int) -> int:
    """sum_{l=0}^{L} (2l+1)^2 = (L+1)(2L+1)(2L+3)/3."""
    return (bandlimit + 1) * (2 * bandlimit + 1) * (2 * bandlimit + 3) // 3


def bandlimit_of(size: int) -> int:
    """Inverse of ``m_total``: the L whose block stack has ``size`` entries."""
    l = 0
    while m_total(l) < size:
        l += 1
    if m_total(l) != size:
        raise ValueError(f"vector length {size} is not a valid stack size")
    return l


def block_offsets(bandlimit: int) -> list[int]:
    offs = [0]
    for l in range(bandlimit + 1):
        offs.append(offs[-1] + (2 * l + 1) ** 2)
    return offs


# ---------------------------------------------------------------------------
# Real blocks by recursion over the degree
# ---------------------------------------------------------------------------

# Rows per recursion pass in rotations_to_psi: the degree-l temporaries
# take 3 (2l-1)(2l+1) floats per row, ~3.5 MB per pass at l = 6, so a
# pass stays cache-sized and a whole-grid pass would not.
_CHUNK_ROWS = 1024


@lru_cache(maxsize=None)
def _recursion_constants(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant factors (A, E, s) of the degree-l recursion step, l >= 2.

    D^l = (sum_i A_i D^{l-1} M_i) diag(s) with M_i = sum_k D^1[i, k] E_k,
    where i, k in {-1, 0, 1} index D^1 and A is stored as the row
    concatenation [A_-1 A_0 A_1].  A carries the u, v, w numerators of
    Ivanic & Ruedenberg's P-function combination, E places D^{l-1}'s
    columns (|m'| < l) and its two edge columns (m' = +-l), and s is the
    column normalization 1/sqrt(d(m')).
    """
    a, b = 2 * l - 1, 2 * l + 1
    # column m' of D^{l-1} M_i:  D^1[i, 0] D^{l-1}[:, m']  for |m'| < l,
    # D^1[i, 1] D^{l-1}[:, l-1] - D^1[i, -1] D^{l-1}[:, 1-l]  for m' = l,
    # D^1[i, 1] D^{l-1}[:, 1-l] + D^1[i, -1] D^{l-1}[:, l-1]  for m' = -l
    e = np.zeros((3, a, b))
    e[1, np.arange(a), np.arange(1, b - 1)] = 1.0
    e[2, a - 1, b - 1] = e[2, 0, 0] = e[0, a - 1, 0] = 1.0
    e[0, 0, b - 1] = -1.0
    coef = np.zeros((b, 3, a))

    def put(m: int, i: int, mu: int, c: float) -> None:
        if c:
            coef[m + l, i + 1, mu + l - 1] += c

    for m in range(-l, l + 1):
        am, zero = abs(m), float(m == 0)
        u = np.sqrt((l + m) * (l - m))
        v = 0.5 * np.sqrt((1 + zero) * (l + am - 1) * (l + am)) * (1 - 2 * zero)
        w = -0.5 * np.sqrt((l - am - 1) * (l - am)) * (1 - zero)
        put(m, 0, m, u)
        if m == 0:
            put(m, 1, 1, v)
            put(m, -1, -1, v)
        elif m > 0:
            put(m, 1, m - 1, v * np.sqrt(1 + (m == 1)))
            put(m, -1, 1 - m, -v * (m != 1))
            put(m, 1, m + 1, w)
            put(m, -1, -m - 1, w)
        else:
            put(m, 1, m + 1, v * (m != -1))
            put(m, -1, -m - 1, v * np.sqrt(1 + (m == -1)))
            put(m, 1, m - 1, w)
            put(m, -1, 1 - m, -w)
    mp = np.arange(-l, l + 1)
    d = np.where(np.abs(mp) < l, (l + mp) * (l - mp), 2 * l * (2 * l - 1))
    return coef.reshape(b, 3 * a), e, 1.0 / np.sqrt(d)


def wigner_block_stacks_real(matrices: np.ndarray, bandlimit: int) -> list[np.ndarray]:
    """Real-basis blocks for a stack of rotation matrices.

    Returns one array per degree l, shape (n, 2l+1, 2l+1).  Temporaries
    grow as n * 3 (2l-1)(2l+1); ``rotations_to_psi`` feeds large grids
    through in row chunks.
    """
    matrices = np.asarray(matrices, dtype=float)
    n = len(matrices)
    d1 = matrices[:, [1, 2, 0]][:, :, [1, 2, 0]]
    blocks = [np.ones((n, 1, 1)), d1][:bandlimit + 1]
    for l in range(2, bandlimit + 1):
        coef, e, s = _recursion_constants(l)
        a, b = 2 * l - 1, 2 * l + 1
        m = (d1.reshape(3 * n, 3) @ e.reshape(3, a * b)).reshape(n, 3, a, b)
        x = (blocks[-1][:, None] @ m).reshape(n, 3 * a, b)
        blocks.append((coef @ x) * s)
    return blocks


def wigner_center_columns(vectors: np.ndarray, bandlimit: int) -> list[np.ndarray]:
    """Centre columns D^l(R)[:, 0] for unit vectors v = R e_z.

    Returns one array per degree l, shape (n, 2l+1); the column depends
    only on R e_z, so any R with that image gives the same result.  In
    the recursion step, column m' = 0 of D^{l-1} M_i is
    D^1[i, 0] D^{l-1}[:, 0], and D^1's centre column is v in (y, z, x)
    order, so each degree needs only the previous centre column.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    d1c = vectors[:, [1, 2, 0]]
    cols = [np.ones((n, 1)), d1c][:bandlimit + 1]
    for l in range(2, bandlimit + 1):
        coef, _, s = _recursion_constants(l)
        x = (d1c[:, :, None] * cols[-1][:, None, :]).reshape(n, -1)
        cols.append((x @ coef.T) * s[l])
    return cols


@lru_cache(maxsize=None)
def generators_real(l: int) -> np.ndarray:
    """(J_x, J_y, J_z) of degree l with D^l(exp(t K_k)) = expm(t J^l_k),
    K_z the generator of Rz; J_x, J_y are J_z conjugated by the block of
    the cyclic permutation Q (Q e_z = e_x, Q^T e_z = e_y)."""
    jz = np.fliplr(np.diag(l - np.arange(2 * l + 1.0)))
    q = wigner_block_stacks_real(np.roll(np.eye(3), 1, axis=0)[None], l)[l][0]
    j = np.stack([q @ jz @ q.T, q.T @ jz @ q, jz])
    j = 0.5 * (j - j.transpose(0, 2, 1))  # exactly antisymmetric
    j.flags.writeable = False
    return j


def rotations_to_psi(matrices: np.ndarray, bandlimit: int) -> np.ndarray:
    """Flattened harmonic vectors for a stack of matrices, shape (n, M)."""
    matrices = np.asarray(matrices, dtype=float)
    squeeze = matrices.ndim == 2
    if squeeze:
        matrices = matrices[None]
    n = len(matrices)
    flat = np.empty((n, m_total(bandlimit)))
    for start in range(0, n, _CHUNK_ROWS):
        rows = matrices[start:start + _CHUNK_ROWS]
        blocks = wigner_block_stacks_real(rows, bandlimit)
        flat[start:start + len(rows)] = np.concatenate(
            [b.reshape(len(rows), -1) for b in blocks], axis=1)
    return flat[0] if squeeze else flat


# ---------------------------------------------------------------------------
# Coefficient rotation (shift law)
# ---------------------------------------------------------------------------

def rotate_coeffs(coeffs, r: np.ndarray):
    """Rotate a band-limited function by acting on its coefficients.

    ``coeffs`` is a ``harmonics.SphericalCoeffs`` and ``r`` a (3, 3)
    rotation matrix; the result is a copy with rotated data.  Per degree,
    c' = D^l(r) c; synthesizing the result reproduces the input signal
    pulled back through r^-1.
    """
    blocks = wigner_block_stacks_real(np.reshape(r, (1, 3, 3)), coeffs.bandlimit)
    out = np.empty_like(coeffs.data)
    for l, d in enumerate(blocks):
        out[:, l * l:(l + 1) ** 2] = coeffs.block(l) @ d[0].T
    return replace(coeffs, data=out)
