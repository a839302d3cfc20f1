"""The dense Choi matrix, built from its definition: the oracle for ``classify``'s Choi spectrum."""

import numpy as np

from retrodict.channels import QuantumMap, apply


def dense_choi(qmap: QuantumMap) -> np.ndarray:
    """sum_ij E_ij (x) map[E_ij], input side leftmost, from the map's action on each matrix unit E_ij."""
    d_in = qmap.dim_in
    choi = np.zeros((d_in * qmap.dim_out,) * 2, dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in))
            unit[i, j] = 1.0
            choi += np.kron(unit, apply(qmap, unit))
    return choi


def dense_choi_min_eigenvalue(qmap: QuantumMap) -> float:
    return float(np.linalg.eigvalsh(dense_choi(qmap)).min())
