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

``FiberTable`` sorts the M columns into |n| classes.  Per class k, one
GEMM of the rows (and their signed partners) against the class's slice
of psi(A) gives each fiber's cos/sin coefficients, and one product with
the (J, F) trig table, J = 2L + 1, gives the fiber's F scores: about
2 M N + J N F multiply-adds a row against M N F for the dense psi table,
exact at every level.  ``fiber_table`` caches the table (2.8 MB at level
3 and L = 6, against 134 MB for the dense table) after checking the
fiber structure on the rotations themselves.

The grid ReLU runs on the same factorization (``FiberRelu``):
out = relu(x A^T) A H, with H the ridge inverse of the Gram matrix A^T A
of the sampling A.  A = sum_j trig_j^T (x) U_j over the trig rows j, so
A^T A = sum_{j, j'} T[j, j'] U_j^T U_j' with T = trig trig^T, built in
closed form.  The F fiber angles resolve the band limit when 2L < F
(``smallest_relu_level``): then k + k' < F and 2k < F for classes
k != k' <= L, so the trig rows are nonzero and orthogonal across
classes, T is block-diagonal in the classes, and so are A^T A and H.
Per class one table U_k maps rows to fiber coefficients and one table
G_k = U_k H_k maps the rectified coefficients back, with a small trig
product between them.  At L = F/2 the sin(F psi / 2) row vanishes, and
above it classes k and F - k alias: such grids, and grids without
fibers, raise ``IllConditionedError``.
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
    and, for k > 0, their signed partners), its first trig row j and its
    column slice bounds[k]:bounds[k + 1].  Trig row 0 is the constant,
    rows 2k - 1 and 2k are cos(k psi) and sin(k psi)."""
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        yield (2 if k else 1), max(2 * k - 1, 0), slice(lo, hi)


@dataclass(frozen=True)
class FiberTable:
    """Factored scoring table of a grid whose rotation i F + f is
    A_i Rz(2 pi f / F): psi(A_i) with its columns in |n|-class order, and
    the trig basis at the F fiber angles (see the module docstring)."""

    base_psi: np.ndarray           # (N, M) harmonic vectors of the A_i, columns in ``order``
    order: np.ndarray              # (M,) column at each class position, |n| ascending
    partner: np.ndarray            # (M,) column (l, m, -n) of that (l, m, n)
    order_inverse: np.ndarray      # (M,) class position of each column: argsort(order)
    partner_inverse: np.ndarray    # (M,) argsort(partner)
    sign: np.ndarray               # (M,) its sin(k psi) coefficient in D^l(Rz(psi))
    bounds: tuple[int, ...]        # class k holds positions bounds[k]:bounds[k + 1]
    trig: np.ndarray               # (J, F) trig basis at the fiber angles

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """<psi(R), p> for every grid rotation R and row p of (B, M): (B, N F)."""
        return self.synthesize(self.coefficients(rows))

    def coefficients(self, rows: np.ndarray) -> np.ndarray:
        """The fiber coefficients (J, B, N) of rows (B, M): per class, one
        GEMM of the rows and their signed partners against its columns of
        ``base_psi``."""
        b, (nbase, m) = len(rows), self.base_psi.shape
        z = np.empty((2, b, m))  # the rows in class order, then their signed partners
        z[0] = rows[:, self.order]
        z[1] = rows[:, self.partner]
        z[1] *= self.sign
        x = np.empty((len(self.trig), b, nbase))
        for h, j, cols in _classes(self.bounds):
            np.matmul(z[:h, :, cols].reshape(h * b, -1), self.base_psi[:, cols].T,
                      out=x[j:j + h].reshape(h * b, nbase))
        return x

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
        dz = np.empty((2, b, m))
        dz[1, :, :self.bounds[1]] = 0.0  # class 0 has no partner block
        for h, j, cols in _classes(self.bounds):
            np.matmul(y[j:j + h].reshape(h * b, nbase), self.base_psi[:, cols],
                      out=dz[:h, :, cols].reshape(h * b, -1))
        dz[1] *= self.sign
        out = dz[0][:, self.order_inverse]
        out += dz[1][:, self.partner_inverse]
        return out


def _fiber_classes(bandlimit: int):
    """(order, partner, sign, bounds) of ``FiberTable`` at a band limit:
    the columns sorted by |n|, each column's partner (l, m, -n) and its
    sign J_z[n, -n] / k (see the module docstring)."""
    offs = np.array(wigner.block_offsets(bandlimit))
    degree = np.repeat(np.arange(bandlimit + 1),
                       (2 * np.arange(bandlimit + 1) + 1) ** 2)
    n = (np.arange(offs[-1]) - offs[degree]) % (2 * degree + 1) - degree
    sign = np.concatenate([
        np.tile(np.fliplr(wigner.generators_real(l)[2]).diagonal()
                / np.maximum(np.abs(np.arange(-l, l + 1)), 1), 2 * l + 1)
        for l in range(bandlimit + 1)])
    order = np.argsort(np.abs(n), kind="stable")
    bounds = np.searchsorted(np.abs(n)[order], np.arange(bandlimit + 2))
    return (order, (np.arange(offs[-1]) - 2 * n)[order], sign[order],
            tuple(int(i) for i in bounds))


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
    order, partner, sign, bounds = _fiber_classes(bandlimit)
    base_psi = wigner.rotations_to_psi(rots[:, 0], bandlimit)[:, order]
    return FiberTable(base_psi, order, partner, np.argsort(order),
                      np.argsort(partner), sign, bounds, trig)


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
    the module docstring).  The forward is one pass, per class k:

        x_k U_k^T -> trig product -> mask, ReLU -> transposed trig
        product -> y_k G_k

    and the backward is the same pass with G_k^T in, the mask multiply,
    and U_k out.  No (M, M) product, partner gather or whole (rows, Q)
    float sample array is made.
    """

    order: np.ndarray          # (M,) column at each class position
    order_inverse: np.ndarray  # (M,) class position of each column
    trig: np.ndarray           # (J, F) trig basis at the fiber angles
    bounds: tuple[int, ...]    # class k holds positions bounds[k]:bounds[k + 1]
    u: tuple                   # per class, U_k (h, N, M_k), see ``_class_tables``
    g: tuple                   # per class, G_k = U_k H_k (h, N, M_k)

    @property
    def size(self) -> int:
        return self.u[0].shape[1] * self.trig.shape[1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(out, mask) of group signals x (..., M): out has x's shape, and
        mask (..., Q) marks the grid samples the ReLU keeps.  The leading
        dimensions fold into rows, each pass a 2-D GEMM: a stacked
        (B, C, M) product would run as B GEMMs of C rows."""
        rows = x.reshape(-1, x.shape[-1])
        mask = np.empty((len(rows), self.size), dtype=bool)
        out = self._pass(rows, mask, self.u, self.g, True)
        return out.reshape(x.shape), mask.reshape(x.shape[:-1] + (self.size,))

    def backward(self, d_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """d(x) (..., M) given d(out) (..., M) and ``forward``'s mask."""
        rows = d_out.reshape(-1, d_out.shape[-1])
        back = self._pass(rows, mask.reshape(len(rows), -1), self.g, self.u, False)
        return back.reshape(d_out.shape)

    def _pass(self, rows, mask, first, last, forward: bool) -> np.ndarray:
        """The rows gathered into class order once, run in row chunks of
        ``_RELU_CHUNK_BYTES`` of their J N fiber coefficients, the result
        written back over them and un-gathered once."""
        x = rows[:, self.order]
        (j_count, nfiber), nbase = self.trig.shape, self.u[0].shape[1]
        chunk = max(1, _RELU_CHUNK_BYTES // (8 * j_count * nbase))
        step = max(1, _TRIG_CHUNK_BYTES // (8 * nfiber))
        buf = np.empty((j_count, min(len(x), chunk), nbase))
        for r in range(0, len(x), chunk):
            xr = x[r:r + chunk]
            c = buf[:, :len(xr)]
            for (_, j, cols), f in zip(_classes(self.bounds), first):
                for t, ft in enumerate(f):
                    np.matmul(xr[:, cols], ft.T, out=c[j + t])
            flat = c.reshape(j_count, -1)           # (J, fibers of the chunk)
            m = mask[r:r + chunk].reshape(-1, nfiber)  # (fibers of the chunk, F)
            for i in range(0, flat.shape[1], step):
                s = flat[:, i:i + step].T @ self.trig
                if forward:
                    np.greater(s, 0, out=m[i:i + step])
                    np.maximum(s, 0, out=s)
                else:
                    s *= m[i:i + step]
                np.matmul(self.trig, s.T, out=flat[:, i:i + step])
            for (_, j, cols), f in zip(_classes(self.bounds), last):
                np.matmul(c[j], f[0], out=xr[:, cols])
                for t in range(1, len(f)):
                    xr[:, cols] += c[j + t] @ f[t]
        return x[:, self.order_inverse]


def _class_tables(table: FiberTable) -> list[np.ndarray]:
    """Per class k, U_k (h, N, M_k): the class's slice of ``base_psi``
    and, for k > 0, its copy with each column moved to its partner's
    position and signed.  Rows x in class order then give the class's
    cos and sin fiber coefficients as x[:, cols] @ U_k[t].T, with the
    partner gather and sign folded into U_k."""
    partner_pos = table.order_inverse[table.partner]
    tables = []
    for h, _, cols in _classes(table.bounds):
        base = table.base_psi[:, cols]
        u = np.zeros((h,) + base.shape)
        u[0] = base
        if h == 2:
            u[1][:, partner_pos[cols] - cols.start] = base * table.sign[cols]
        tables.append(u)
    return tables


def _class_grams(t: np.ndarray, table: FiberTable,
                 tables: list[np.ndarray]) -> list[np.ndarray]:
    """Class k's diagonal block of A^T A, columns in class order, from
    T = trig trig^T and ``tables = _class_tables(table)``: U_j is U_k[t]
    for the trig row j = j_k + t, so the block is sum_{t, t'}
    T[j_k + t, j_k + t'] U_k[t]^T U_k[t']."""
    grams = []
    for (h, j, _), u in zip(_classes(table.bounds), tables):
        _, nbase, width = u.shape
        tu = np.tensordot(t[j:j + h, j:j + h], u, axes=1)
        grams.append(u.reshape(h * nbase, width).T @ tu.reshape(h * nbase, width))
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
    t = table.trig @ table.trig.T
    u = _class_tables(table)
    h = gram_ridge_inverse(_class_grams(t, table, u))
    if h is None:
        raise IllConditionedError(
            f"the Gram matrix of the {grid.size}-rotation grid at "
            f"M = {table.base_psi.shape[1]} does not certify kappa <= "
            f"{GRAM_MAX_CONDITION:g}")
    _raise_mmap_threshold()
    return FiberRelu(table.order, table.order_inverse, table.trig, table.bounds,
                     tuple(u), tuple(uk @ hk for uk, hk in zip(u, h)))
