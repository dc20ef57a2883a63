"""Dense reference for the oracle's grid phase: the whole (n, m) grid channel.

`tdesigncap.oracle` never forms the channel P_xy = max(d q_y <phi_x|chi_y|phi_x>, 0)
of its state grid: it prices the grid with one d x d operator per output and one
blocked pass for the row terms. The tests keep the dense construction that the
oracle used before, so that the two can be compared: `povm_channel` over the
whole grid, its row terms sum_y P ln P, the flat grid prior's rate, the first
prices against the maximally mixed input's output q, and the KL objective's grid
values ln d - d sum_y q_y eta(<phi_x|chi_y|phi_x>). `floored_row_terms` is the row-term
pass as it was before it floored only the rows holding a P <= 0.

`former_haar_random_states` and `former_compact_projector_view` are the grid's two
kernels as they were written before `tdesigncap.core` built them in whole-column passes:
the sampled states and their compact projector view must stay bit for bit the same.
"""

import math
from dataclasses import dataclass

import numpy as np

from tdesigncap.core import eta_array, overlaps
from tdesigncap.oracle import _masked_log, povm_channel


@dataclass(frozen=True)
class DenseGridPhase:
    channel: np.ndarray  # (n, m) P_xy
    row_terms: np.ndarray  # sum_y P ln P per grid state
    flat_rate: float  # I(r) of the flat prior over the grid
    first_prices: np.ndarray  # D(p(.|phi_x) || q) against the maximally mixed input's output
    kl_values: np.ndarray  # kl_objective at every grid state

    def prices(self, lnout: np.ndarray) -> np.ndarray:
        return self.row_terms - self.channel @ lnout


def dense_grid_phase(eset, states: np.ndarray) -> DenseGridPhase:
    channel = povm_channel(eset, states)
    row_terms = np.einsum("xy,xy->x", channel, _masked_log(channel))
    prior = np.full(len(channel), 1.0 / len(channel))
    flat_rate = float(prior @ (row_terms - channel @ _masked_log(prior @ channel)))
    first_prices = row_terms - channel @ _masked_log(eset.weights)
    ov = overlaps(states, eset.ops)
    kl_values = math.log(eset.dim) - eset.dim * (eta_array(ov) @ eset.weights)
    return DenseGridPhase(channel, row_terms, flat_rate, first_prices, kl_values)


def floored_row_terms(pricing, rows: int) -> np.ndarray:
    """sum_y P ln P per grid row with every P floored at the smallest normal float, in the
    row blocks of ``rows`` rows that `oracle._GridPricing` uses, so it rounds the same."""
    twin_t = np.ascontiguousarray(pricing.twin.T * pricing.a)
    terms = []
    for lo in range(0, len(pricing.proj), rows):
        p = np.maximum(pricing.proj[lo:lo + rows] @ twin_t, np.finfo(float).tiny)
        terms.append(np.einsum("xy,xy->x", p, np.log(p)))
    return np.concatenate(terms)


def former_haar_random_states(dim: int, count: int, seed: int) -> np.ndarray:
    """`core.haar_random_states` as one complex sum divided by the row norms."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def former_compact_projector_view(states: np.ndarray) -> np.ndarray:
    """`core.compact_projector_view` as one broadcast multiply per row index i of A_ij."""
    states = np.asarray(states, dtype=complex)
    n, d = states.shape
    conj = states.conj()
    out = np.empty((n, d * (d + 1) // 2), dtype=complex)
    lo = 0
    for i in range(d):
        np.multiply(states[:, i, None], conj[:, i:], out=out[:, lo:lo + d - i])
        lo += d - i
    return out.view(float)
