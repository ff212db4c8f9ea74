"""Distributed linear-algebra substrate for the PANE reproduction.

Two data layouts are used throughout:

* **Sparse graph matrices** (the random-walk matrix ``P``, the attribute
  matrix ``R``) live as COO DataFrames — ``(src, dst, w)`` / ``(node,
  attr, weight)`` rows.
* **Dense node-indexed matrices** (the propagated probability matrices
  ``Pf/Pb``, the affinity matrices ``F'/B'``, embeddings) live as *state
  DataFrames*: one row per node with an ``array<double>`` vector column,
  plus a ``block`` column that maps the paper's ``nb`` threads onto Spark
  partitions.

PAPMI advances each direction with one ``spmm`` per iteration: the walk
messages and the α-weighted restart rows are summed in one aggregation.
Its per-block kernel ``sum_by_key`` is also the NumPy paths' SpMM
(``spmv_coo``, used by APMI and the baselines).
"""
from repro.linalg.matrix import (  # noqa: F401
    STATE_SCHEMA,
    attrs_df,
    edges_df,
    make_state,
    state_to_numpy,
    walk_edges,
)
from repro.linalg.ops import (  # noqa: F401
    col_normalize,
    col_sums,
    elementwise,
    l2_normalize_rows,
    row_normalize,
    spmm,
    spmv_coo,
    sum_by_key,
)
from repro.linalg.randsvd import rand_svd  # noqa: F401
