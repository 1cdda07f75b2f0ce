"""The Hopf-fiber factorization of HEALPix-Hopf SO(3) grids.

A HEALPix-Hopf grid (Yershova et al., IJRR 2010) lists its rotations as
A_i Rz(psi_f), with N pixel rotations A_i and F fiber angles psi_f =
2 pi f / F, in the order i F + f.  D^l(Rz(psi)) = expm(psi J_z), and J_z
pairs column n with -n, so on |n| = k it squares to -k^2:
expm(psi J_z) = sum_k cos(k psi) P_k + sin(k psi) J_z P_k / k, with P_k
the projector onto |n| = k.  Column (l, m, n) of D^l(A) D^l(Rz(psi)) is
therefore cos(k psi) D^l(A)[m, n] + sin(k psi) D^l(A)[m, -n] J_z[-n, n] / k,
so a score <psi(R), p> pairs column (l, m, n) of psi(A) with p[l, m, n]
and, through the sign J_z[n, -n] / k, with its partner p[l, m, -n].

``FiberTable`` sorts the M columns into |n| classes, each class k > 0
as [n = -k | n = +k] with both halves in (l, m) order.  The sign is +1
on the first half and -1 on the second (``wigner.generators_real``), so
the signed partners of a row's class block [x_A | x_B] are its half swap
x Pi_k = [x_B | -x_A], with Pi_k^2 = -I.  Per class, one GEMM of the rows
and their half swaps against the class's columns U_k (N, M_k) of psi(A)
gives each fiber's cos/sin coefficients, and one product with the
(J, F) trig table, J = 2L + 1, gives the fiber's F scores: about
2 M N + J N F multiply-adds a row against M N F for the dense psi table,
exact at every level.  ``fiber_table`` caches the table (2.8 MB at
level 3 and L = 6, against 134 MB for the dense table) after checking
the fiber structure on the rotations themselves.

The grid ReLU runs on the same factorization (``FiberRelu``):
out = relu(x A^T) A H, with H the ridge inverse of the Gram matrix A^T A
of the sampling A.  The F fiber angles resolve the band limit when 2L < F
(``smallest_relu_level``): then k + k' < F and 2k < F for classes
k != k' <= L, so the trig rows are nonzero and orthogonal, trig trig^T =
diag(F, F/2, ..., F/2), and A^T A is block-diagonal in the classes: F S_0
and (F/2)(S_k + Pi_k^T S_k Pi_k), with S_k = U_k^T U_k.  Each block, and
so its ridge inverse H_k, commutes with Pi_k, so one table G_k = U_k H_k
re-analyses the cos and the sin coefficients alike, and the ReLU runs
the fiber table's own gather, class products and scatter.  At L = F/2
the sin(F psi / 2) row vanishes, and above it classes k and F - k alias:
such grids, and grids without fibers, raise ``IllConditionedError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotations, wigner
from ._cache import LRUCache
from .grids import SO3Grid, so3_healpix_count
from .harmonics import (GRAM_MAX_CONDITION, IllConditionedError,
                        gram_ridge_inverse)

# Byte budget of one chunk of rows (at least one row): a block of
# rotations checked for the fiber structure, and a row chunk of the
# (J, rows, N) fiber coefficients ``estimation.decode_poses`` computes at
# once, 80 KB a row at level 3 and L = 6, so a 40-row batch streams
# ``base_psi`` once.  The decode synthesizes each chunk's scores in
# smaller blocks and keeps no (rows, grid size) array: that of a
# 1,000-row level-3 batch is 295 MB.
_CHUNK_BYTES = 4 << 20
# Largest entry of |R - A_i Rz(psi_f)| a grid may show and still be
# scored through its fibers.
_FIBER_TOL = 1e-12
# Byte budget of the widest per-row temporary the grid ReLU and its
# backward hold at once, the J N fiber coefficients of a row (at least
# one row).  ``harness.evaluate`` runs the ReLU on a whole split at once.
_RELU_CHUNK_BYTES = 8 << 20
# Byte budget of the samples one trig product writes: the rectify and
# the transposed trig product then read them from cache.
_TRIG_CHUNK_BYTES = 256 << 10
fiber_table_cache = LRUCache(6)


def _classes(bounds: tuple[int, ...]):
    """Per |n| class k: (h, j, cols), its h stacked row blocks (the rows
    and, for k > 0, their half swaps), its first trig row j and its
    column slice bounds[k]:bounds[k + 1].  Trig row 0 is the constant,
    rows 2k - 1 and 2k are cos(k psi) and sin(k psi)."""
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        yield (2 if k else 1), max(2 * k - 1, 0), slice(lo, hi)


def _halves(bounds: tuple[int, ...]):
    """(n = -k half, n = +k half) column slices of each class k > 0."""
    for lo, hi in zip(bounds[1:], bounds[2:]):
        yield slice(lo, (lo + hi) // 2), slice((lo + hi) // 2, hi)


@dataclass(frozen=True)
class FiberTable:
    """Factored scoring table of a grid whose rotation i F + f is
    A_i Rz(2 pi f / F): psi(A_i) with its columns in |n|-class order, and
    the trig basis at the F fiber angles (see the module docstring)."""

    base_psi: np.ndarray           # (N, M) harmonic vectors of the A_i, columns in ``order``
    order: np.ndarray              # (M,) column at each class position, |n| ascending
    order_inverse: np.ndarray      # (M,) class position of each column: argsort(order)
    bounds: tuple[int, ...]        # class k holds positions bounds[k]:bounds[k + 1]
    trig: np.ndarray               # (J, F) trig basis at the fiber angles

    def class_tables(self) -> list[np.ndarray]:
        """U_k (N, M_k) per class: views of its columns of ``base_psi``."""
        return [self.base_psi[:, cols] for _, _, cols in _classes(self.bounds)]

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """<psi(R), p> for every grid rotation R and row p of (B, M): (B, N F)."""
        return self.synthesize(self.coefficients(rows))

    def coefficients(self, rows: np.ndarray) -> np.ndarray:
        """The fiber coefficients (J, B, N) of rows (B, M)."""
        return self._to_fibers(rows, self.class_tables(), np.empty((2,) + rows.shape),
                               np.empty((len(self.trig), len(rows), len(self.base_psi))))

    def synthesize(self, x: np.ndarray) -> np.ndarray:
        """The scores (B, N F) of fiber coefficients x (J, B, N), such as a
        row slice ``coefficients(rows)[:, lo:hi]``: one product with the
        trig table, whose bits do not depend on how many rows x holds."""
        j_count, b, _ = x.shape
        return (x.reshape(j_count, -1).T @ self.trig).reshape(b, -1)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """sum_R g[:, R] psi(R) for weights g (B, N F): (B, M), the
        adjoint of ``scores``."""
        b, (nbase, m) = len(g), self.base_psi.shape
        y = self.trig @ g.reshape(b * nbase, -1).T
        return self._from_fibers(y.reshape(-1, b, nbase), self.class_tables(),
                                 np.empty((2, b, m)), np.empty((b, m)))

    def _to_fibers(self, rows, tables, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x (J, B, N) from rows (B, M): z (2, B, M) gets the rows in class
        order and, for classes k > 0, their half swaps [x_B | -x_A]; then
        x[j:j + h] = z[:h, :, cols] T_k^T per class, with T_k (N, M_k) of
        ``tables``.  C-contiguous z and x make each stacked operand a view."""
        b = len(rows)
        # mode "clip" takes straight into z: "raise" would buffer
        np.take(rows, self.order, axis=1, out=z[0], mode="clip")
        for lo, hi in _halves(self.bounds):
            z[1, :, lo] = z[0, :, hi]
            np.negative(z[0, :, lo], out=z[1, :, hi])
        for (h, j, cols), t in zip(_classes(self.bounds), tables):
            np.matmul(z[:h, :, cols].reshape(h * b, -1), t.T,
                      out=x[j:j + h].reshape(h * b, -1))
        return x

    def _from_fibers(self, y, tables, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The adjoint of ``_to_fibers`` into out (B, M): per class
        z[:h, :, cols] = y[j:j + h] T_k, then z[0] plus the transposed half
        swap [-z_B | z_A] of z[1], in column order."""
        b = y.shape[1]
        for (h, j, cols), t in zip(_classes(self.bounds), tables):
            np.matmul(y[j:j + h].reshape(h * b, -1), t,
                      out=z[:h, :, cols].reshape(h * b, -1))
        for lo, hi in _halves(self.bounds):
            z[0, :, lo] -= z[1, :, hi]
            z[0, :, hi] += z[1, :, lo]
        return np.take(z[0], self.order_inverse, axis=1, out=out, mode="clip")


def _fiber_classes(bandlimit: int):
    """(order, bounds) of ``FiberTable`` at a band limit: the columns
    sorted by |n|, and within class k > 0 the n = -k columns before the
    n = +k ones, both in column, that is (l, m), order."""
    n = np.concatenate([np.tile(np.arange(-l, l + 1), 2 * l + 1)
                        for l in range(bandlimit + 1)])  # n of each (l, m, n)
    order = np.argsort(2 * np.abs(n) + (n > 0), kind="stable")
    bounds = np.searchsorted(np.abs(n)[order], np.arange(bandlimit + 2))
    return order, tuple(int(i) for i in bounds)


def _build_fiber_table(grid: SO3Grid, bandlimit: int) -> FiberTable | None:
    nfiber = 6 * 2 ** grid.level
    if grid.size != so3_healpix_count(grid.level):
        return None
    rots = grid.rotations.reshape(-1, nfiber, 3, 3)
    angles = 2.0 * np.pi * np.arange(nfiber) / nfiber
    spin = rotations.zyz_to_matrices(angles, 0.0, 0.0)
    step = max(1, _CHUNK_BYTES // rots[0].nbytes)
    for start in range(0, len(rots), step):
        block = rots[start:start + step]
        if not np.max(np.abs(block - block[:, :1] @ spin)) <= _FIBER_TOL:
            return None
    k = np.arange(1, bandlimit + 1)[:, None] * angles
    trig = np.concatenate([np.ones((1, nfiber)),
                           np.stack([np.cos(k), np.sin(k)], axis=1).reshape(-1, nfiber)])
    order, bounds = _fiber_classes(bandlimit)
    base_psi = wigner.rotations_to_psi(rots[:, 0], bandlimit)[:, order]
    return FiberTable(base_psi, order, np.argsort(order), bounds, trig)


def fiber_table(grid: SO3Grid, bandlimit: int) -> FiberTable | None:
    """The factored table of a HEALPix-Hopf grid at ``bandlimit``, or None.

    The kind label and level only propose the fiber count F = 6 * 2^level;
    the table is built, and cached per rotation content, only after every
    rotation is checked to be A_i Rz(2 pi f / F).  None means the grid
    is scored against its dense psi table.
    """
    if grid.kind != "healpix_hopf" or grid.level is None:
        return None
    return fiber_table_cache.get(
        (grid.content_digest, grid.level, bandlimit),
        lambda: _build_fiber_table(grid, bandlimit))


# ---------------------------------------------------------------------------
# Grid ReLU
# ---------------------------------------------------------------------------

def _raise_mmap_threshold() -> None:
    """Allocate and free one untouched block larger than any per-call
    temporary the chunk budgets allow.

    glibc maps a request at or above M_MMAP_THRESHOLD (128 KiB at start)
    afresh, and freeing an mmapped chunk raises M_MMAP_THRESHOLD to that
    chunk's size, up to 32 MiB, and M_TRIM_THRESHOLD to twice that size.
    After this free the (J, rows, N) coefficient buffers of the ReLU and
    of ``decode_poses`` (up to ~8 and ~4 MB at L = 6) and the decode's
    ~1 MB score blocks come from the heap.  Without it they can be mapped
    and page-faulted afresh on every call: ~2,000 minor faults a
    ``train_image`` step.  Other allocators ignore the block.  Its size
    is in bytes: as many float64 entries would pass the 32 MiB cap and
    change nothing.
    """
    # a MiB above the budget covers malloc's chunk header and page rounding
    np.empty(_RELU_CHUNK_BYTES + (1 << 20), dtype=np.uint8)


@dataclass(frozen=True)
class FiberRelu:
    """Grid ReLU of a HEALPix-Hopf grid run in fiber coefficients (see
    the module docstring): the fiber table's gather and class products
    with U_k, the trig product, mask and ReLU, the transposed trig
    product, and the class products with G_k and the table's scatter.
    The backward is the same pass with G_k^T in, the mask multiply, and
    U_k out.  No (M, M) product or whole (rows, Q) float sample array."""

    table: FiberTable  # the grid's fiber table, whose class columns are U_k
    g: tuple           # per class k, G_k = U_k H_k (N, M_k)

    @property
    def size(self) -> int:
        return len(self.table.base_psi) * self.table.trig.shape[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(out, mask) of group signals x (..., M): out has x's shape, and
        mask (..., Q) marks the grid samples the ReLU keeps.  The leading
        dimensions fold into rows, each pass a 2-D GEMM: a stacked
        (B, C, M) product would run as B GEMMs of C rows.  A row's bits
        can depend on its batch: at L = 6 a batch row equals the row
        alone only up to rounding."""
        rows = x.reshape(-1, x.shape[-1])
        mask = np.empty((len(rows), self.size), dtype=bool)
        out = self._pass(rows, mask, self.table.class_tables(), self.g, True)
        return out.reshape(x.shape), mask.reshape(x.shape[:-1] + (self.size,))

    def backward(self, d_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """d(x) (..., M) given d(out) (..., M) and ``forward``'s mask."""
        rows = d_out.reshape(-1, d_out.shape[-1])
        back = self._pass(rows, mask.reshape(len(rows), -1), self.g,
                          self.table.class_tables(), False)
        return back.reshape(d_out.shape)

    def _pass(self, rows, mask, first, last, forward: bool) -> np.ndarray:
        """The rows in chunks of ``_RELU_CHUNK_BYTES`` of their J N fiber
        coefficients, whose samples run in blocks of ``_TRIG_CHUNK_BYTES``."""
        table = self.table
        (j_count, nfiber), (nbase, m) = table.trig.shape, table.base_psi.shape
        chunk = max(1, _RELU_CHUNK_BYTES // (8 * j_count * nbase))
        step = max(1, _TRIG_CHUNK_BYTES // (8 * nfiber))
        n = min(len(rows), chunk)
        pair_buf, coef_buf = np.empty(2 * n * m), np.empty(j_count * n * nbase)
        zero = np.zeros((min(step, n * nbase), nfiber))
        out = np.empty(rows.shape)
        for r in range(0, len(rows), chunk):
            b = min(chunk, len(rows) - r)
            z = pair_buf[:2 * b * m].reshape(2, b, m)
            c = table._to_fibers(rows[r:r + b], first, z,
                                 coef_buf[:j_count * b * nbase].reshape(j_count, b, nbase))
            flat = c.reshape(j_count, -1)              # (J, fibers of the chunk)
            mk = mask[r:r + b].reshape(-1, nfiber)     # (fibers of the chunk, F)
            for i in range(0, flat.shape[1], step):
                s = flat[:, i:i + step].T @ table.trig
                if forward:
                    np.greater(s, 0, out=mk[i:i + step])
                    np.maximum(s, zero[:len(s)], out=s)  # faster than a scalar 0
                else:
                    s *= mk[i:i + step]
                np.matmul(table.trig, s.T, out=flat[:, i:i + step])
            table._from_fibers(c, last, z, out[r:r + b])
        return out


def _class_grams(table: FiberTable) -> list[np.ndarray]:
    """Class k's diagonal block of A^T A, columns in class order, with
    S = U_k^T U_k and T = trig trig^T: T[j, j] S for k = 0 and
    T[j, j] S + T[j + 1, j + 1] Pi^T S Pi for k > 0 (the module docstring)."""
    t = np.sum(table.trig * table.trig, axis=1)
    grams = []
    for (h, j, _), u in zip(_classes(table.bounds), table.class_tables()):
        s = u.T @ u
        gram = t[j] * s
        if h == 2:
            a, b = slice(None, len(s) // 2), slice(len(s) // 2, None)
            gram += t[j + 1] * np.block([[s[b, b], -s[b, a]], [-s[a, b], s[a, a]]])
        grams.append(gram)
    return grams


def smallest_relu_level(bandlimit: int) -> int:
    """The smallest HEALPix-Hopf level whose F = 6 * 2^level fiber angles
    resolve ``bandlimit`` (2L < F, that is L <= 3 * 2^level - 1: L <= 2,
    5, 11 and 23 at levels 0 to 3): the smallest k with 2^k > L // 3."""
    return (bandlimit // 3).bit_length()


def _relu_operator(grid: SO3Grid, bandlimit: int) -> FiberRelu:
    """The grid ReLU's operator on a HEALPix-Hopf grid at a band limit.
    Raises IllConditionedError, before building anything, where the
    grid's fiber angles do not resolve the band limit; for a grid without
    fibers (``fiber_table``); and unless the eigenvalues of the class
    blocks of A^T A certify kappa(A), as ``ridge_solver``'s Gram route."""
    if grid.level is not None and grid.level < smallest_relu_level(bandlimit):
        raise IllConditionedError(
            f"the {6 * 2 ** grid.level} fiber angles of the level-{grid.level} "
            f"grid do not resolve band limit {bandlimit}, which needs 2L < F")
    table = fiber_table(grid, bandlimit)
    if table is None:
        raise IllConditionedError(f"the {grid.kind} grid of {grid.size} "
                                  "rotations has no Hopf fiber structure")
    h = gram_ridge_inverse(_class_grams(table))
    if h is None:
        raise IllConditionedError(
            f"the Gram matrix of the {grid.size}-rotation grid at "
            f"M = {table.base_psi.shape[1]} does not certify kappa <= "
            f"{GRAM_MAX_CONDITION:g}")
    _raise_mmap_threshold()
    return FiberRelu(table, tuple(u @ hk for u, hk in zip(table.class_tables(), h)))
