"""Greedy embedding initialization: GreedyInit (Alg. 3) / SMGreedyInit (Alg. 7).

The key idea of the paper's solver: seed CCD with ``Xf = UΣ, Y = V``
from a rank-k/2 randomized SVD of ``F'`` (so ``Xf·Y^T ≈ F'`` instantly)
and exploit ``Y``'s near-orthonormality to seed ``Xb = B'·Y`` (so
``Xb·Y^T ≈ B'Y Y^T ≈ B'``). SMGreedyInit distributes this with the
split-merge trick: one local RandSVD per node block, then a small
driver-side RandSVD of the stacked right factors ``V = [V1 … Vnb]^T``
(that merge matrix is (nb·k/2)×d — tiny by construction, exactly the
single-thread step of Algorithm 7 Lines 4–6).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.linalg.randsvd import rand_svd

# Combined per-node solver state used by SMGreedyInit → PSVDCCD:
# the node's affinity rows (f, b) and its embedding rows (xf, xb).
CCD_STATE_SCHEMA = (
    "block int, node long, f array<double>, b array<double>, "
    "xf array<double>, xb array<double>"
)


def greedy_init_numpy(
    f: np.ndarray, b: np.ndarray, k2: int, t: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 3: returns ``(Xf, Xb, Y)`` (residuals are derived by CCD)."""
    u, s, v = rand_svd(f, k2, t, seed)
    return u @ s, b @ v, v


def random_init_numpy(
    n: int, d: int, k2: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PANE-R's random initialization (Section 5.7 ablation baseline)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k2)
    return (
        rng.standard_normal((n, k2)) * scale,
        rng.standard_normal((n, k2)) * scale,
        rng.standard_normal((d, k2)) * scale,
    )


def sm_greedy_init_spark(
    f_state: DataFrame,
    b_state: DataFrame,
    d: int,
    k2: int,
    t: int,
    seed: int = 0,
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 7 (SMGreedyInit): returns the combined CCD state and ``Y``.

    The returned DataFrame has one row per node that has an ``F'`` or a
    ``B'`` row, with columns ``(block, node, f, b, xf, xb)``; ``Y`` lives
    on the driver (it is d×k/2 and is broadcast into every CCD phase).
    Every per-node step is local to the node's block (Alg. 7 Lines 1-3
    and 7-11 run on each thread's own node subset), so no step joins by
    node.
    """
    # -- Split phase (Alg. 7 Lines 1-3): each block task aligns its F' and
    # B' rows on the union of their node ids (a missing row is zero, as
    # Alg. 3 sees it) and runs the block's RandSVD. Node rows carry
    # U_i = ΦΣ in ``xf``; the V_i^T rows go in ``f`` under sentinel node ids
    # -(1..k2) and are collected: [V1 … Vnb]^T is small by construction.
    def split(key, fp: pd.DataFrame, bp: pd.DataFrame) -> pd.DataFrame:
        blk = np.int32(key[0])
        nodes = np.union1d(fp["node"], bp["node"])
        fi, bi = np.zeros((2, len(nodes), d))
        for mat, pdf in ((fi, fp), (bi, bp)):
            if len(pdf):
                mat[np.searchsorted(nodes, pdf["node"])] = np.stack(pdf["vec"])
        u, s, v = rand_svd(fi, k2, t, seed=seed + 17 * int(blk))
        empty = [np.empty(0)]
        rows = pd.DataFrame({
            "block": blk, "node": nodes, "f": list(fi), "b": list(bi),
            "xf": list(u @ s), "xb": empty * len(nodes),
        })
        vrows = pd.DataFrame({
            "block": blk, "node": -(np.arange(k2, dtype=np.int64) + 1),
            "f": list(v.T), "b": empty * k2, "xf": empty * k2, "xb": empty * k2,
        })
        return pd.concat([rows, vrows], ignore_index=True)

    mixed = (
        f_state.groupBy("block")
        .cogroup(b_state.groupBy("block"))
        .applyInPandas(split, CCD_STATE_SCHEMA)
        .localCheckpoint(eager=True)
    )
    v_pdf = mixed.filter("node < 0").select("block", "node", "f").toPandas()

    # -- Merge phase (Alg. 7 Lines 4-6), on the driver: V ∈ R^{nb·k2 × d}.
    v_pdf = v_pdf.sort_values(["block", "node"], ascending=[True, False])
    v_stack = np.stack(v_pdf["f"].to_numpy())
    phi, sig, y = rand_svd(v_stack, k2, t, seed=seed + 1009)
    # ΦΣ is (nb·k2, k2); the i-th block in order owns rows [i·k2, (i+1)·k2).
    blocks = v_pdf["block"].unique()
    w = dict(zip(blocks, np.split(phi @ sig, len(blocks))))

    # -- Assemble phase (Alg. 7 Lines 7-11): Xf[Vi] = Ui · W_i, Xb[Vi] = B'[Vi]·Y.
    # A partition may hold several blocks.
    def assemble(batches):
        for pdf in batches:
            if not len(pdf):
                continue
            row_blocks = pdf["block"].to_numpy()
            ui = np.stack(pdf["xf"].to_numpy())
            xf = np.empty_like(ui)
            for blk in np.unique(row_blocks):
                rows = row_blocks == blk
                xf[rows] = ui[rows] @ w[blk]
            xb = np.stack(pdf["b"].to_numpy()) @ y
            yield pdf.assign(xf=list(xf), xb=list(xb))

    state = (
        mixed.filter("node >= 0")
        .mapInPandas(assemble, CCD_STATE_SCHEMA)
        .localCheckpoint(eager=True)
    )
    return state, y
