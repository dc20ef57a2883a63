"""Brute-force capacity route: column generation over pure-state ensembles, priced on a
state grid and refined off it by an L-BFGS ascent with analytic gradients, plus the KL
upper-bound objective (maximized by the same ascent) and its tightness certificate. Each
pricing round climbs from the grid states of its top max(32, d^2) prices in one stacked
L-BFGS solve, in the KL form, stopped at the rounding floor of its gradient. The first
round's climb is the KL search's, and the KL value is the best of its climbs.

The grid is priced without forming its (n, m) channel: each linear term is one d x d operator
applied to the grid's projectors, and the one nonlinear term, sum_y p ln p per grid state, is
one pass in cache-sized row blocks that floors p only in the rows holding a p <= 0. That pass
and the first climb run once per (POVM, grid) pair for both searches: every pricing round of
:func:`informational_power`, and :func:`kl_maximize`. The projectors are read from one view
per grid (:attr:`StateGrid.compact_view`), in the compact Hermitian layout of d (d + 1) reals
per state, built on its first read and shared by every pricing of the grid: each lambda of a
sweep, and both searches. Each round's starts are its top prices, picked by one partition.
The stacked ascent builds one evaluator per climb and makes 8 passes over its (K, m)
overlaps (7 in the KL form), in cache-sized row blocks too.

The oracle lower-bounds capacity by construction (it exhibits an achievable
ensemble); the KL route upper-bounds it. Together they bracket the closed
forms they are meant to check. Its solvers are numpy code (L-BFGS climbs, a log-barrier
master solve, Lawson-Hanson NNLS for the tightness check): no CLI path loads scipy.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import (GRID_BLOCK, WeightedElementSet, compact_operator_view,
                   compact_projector_view, haar_random_states, overlaps, projector_view,
                   pure_ensemble)

DEFAULT_GRID_SIZES = {2: 4096, 3: 20000, 8: 60000}
TIGHTNESS_RESIDUAL_TOL = 1e-6
REFINE_TOL = 1e-9  # bracket each refinement solve aims for (or the caller's tol, if smaller)
REFINE_BARRIER_STEPS = 100  # barrier Newton step cap of each refinement solve
REFINE_NEWTON_STEPS = 8  # KKT Newton step cap of each refinement solve after the barrier path
PRICING_MAX_ROUNDS = 32  # column-generation round cap of informational_power
ASCENT_MAX_ITER = 500  # L-BFGS iteration cap of each local ascent over pure states
_TINY = np.finfo(float).tiny  # the smallest normal float: the floor of a value before its log


@dataclass(frozen=True)
class StateGrid:
    """A finite set of pure probe states standing in for the continuum.

    ``seeded`` counts candidate-optimizer states prepended to the sampled grid (used in d =
    8, where blind sampling is too coarse to find the optimizers on its own). ``states`` is
    read-only, as an element set's arrays are, so a grid keeps its content: the grid
    pricing's row terms are reused for the same (element set, grid) pair on that promise. A
    view is copied, so no write through its base reaches the grid; an array that owns its
    data is taken over as is (made read-only in place) and must not be changed, or made
    writable again, through any other reference.

    ``compact_view`` is the grid's read-only projector view in the compact Hermitian
    layout (:func:`core.compact_projector_view`), d (d + 1) reals per state, built on its
    first read and kept: every pricing on the grid reads it, and none builds its own.
    """

    dim: int
    states: np.ndarray  # (n, dim) unit amplitudes
    provenance: str  # "fibonacci-sphere" | "haar-sample"
    resolution: int
    seeded: int = 0

    def __post_init__(self):
        if self.resolution < 100:
            raise ValueError("state grids need at least 100 points")
        states = np.asarray(self.states, dtype=complex)
        if states.base is not None:
            states = states.copy()
        if states.shape != (self.resolution + self.seeded, self.dim):
            raise ValueError("states array shape mismatch")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @functools.cached_property
    def compact_view(self) -> np.ndarray:
        view = compact_projector_view(self.states)
        view.setflags(write=False)
        return view


def fibonacci_bloch_states(count: int) -> np.ndarray:
    """Qubit amplitudes on a Fibonacci spiral covering the Bloch sphere."""
    i = np.arange(count) + 0.5
    golden = math.pi * (1 + math.sqrt(5))
    z = 1 - 2 * i / count
    theta = np.arccos(np.clip(z, -1, 1))
    phi = golden * i
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)


def default_grid(dim: int, seed: int, extra_states: np.ndarray | None = None,
                 resolution: int | None = None) -> StateGrid:
    """The grid sizes the package is calibrated for: 4096 Fibonacci points in
    d=2, 20000 Haar samples in d=3, 60000 in d=8 (plus seeded candidates)."""
    n = resolution if resolution is not None else DEFAULT_GRID_SIZES.get(dim, 20000)
    if dim == 2:
        sampled = fibonacci_bloch_states(n)
        provenance = "fibonacci-sphere"
    else:
        sampled = haar_random_states(dim, n, seed)
        provenance = "haar-sample"
    if extra_states is not None and len(extra_states):
        extra = np.asarray(extra_states, dtype=complex)
        states = np.vstack([extra, sampled])
        return StateGrid(dim, states, provenance, n, seeded=extra.shape[0])
    return StateGrid(dim, sampled, provenance, n)


def povm_channel(eset: WeightedElementSet, states: np.ndarray) -> np.ndarray:
    """Conditional distribution p(y|x) = d q_y <phi_x|chi_y|phi_x>; rows sum to 1.

    The overlaps come from one :func:`core.overlaps` matmul. The oracle forms this
    dense (n, m) array only for its small support; the grid is priced by
    :class:`_GridPricing`, which never forms it.
    """
    ov = overlaps(states, eset.ops)
    return np.clip(eset.dim * eset.weights[None, :] * ov, 0.0, None)


class _GridPricing:
    """The grid channel P_xy = max(d q_y <phi_x|chi_y|phi_x>, 0) of a POVM, never formed.

    Every linear term of P is one d x d operator: P v = <phi_x|B_v|phi_x> with
    B_v = sum_y d q_y v_y chi_y (the clip only removes rounding below 0), so it costs one
    (n, d (d + 1)) matvec over the grid's compact projector view (:attr:`StateGrid.compact_view`,
    built by the grid's first pricing and read by the others) and the element set's twin
    (:func:`core.compact_operator_view`), built on a pricing's first use of it: one that finds
    its pair's row terms and first climb kept builds none. The one nonlinear term, the row
    terms H_x = sum_y P ln P, is one pass in row blocks of about ``GRID_BLOCK`` entries that
    stay in cache. A row holding an exact-zero or a rounding-negative P sums to nan there and
    is summed again with P floored at the smallest normal float, which adds at most
    m * 1.6e-305; the other rows skip that floor. The pass runs once per (POVM, grid)
    pair, and so does the first pricing round's climb (:meth:`first_climb`): H and that
    climb of the last pair are kept, under weak references to the pair, so the KL search
    after :func:`informational_power` (or the other way round) reuses both, and the memo
    keeps neither the pair nor the grid's view alive. It checks both searches' inputs: a
    POVM-role set of the grid's dimension.
    """

    _last: tuple = (None, None, None)  # (weakref to eset, weakref to grid, [H, first climb])

    def __init__(self, eset: WeightedElementSet, grid: StateGrid):
        if eset.role != "povm":
            raise ValueError("the oracle expects a POVM-role set")
        if eset.dim != grid.dim:
            raise ValueError("grid and element set dimensions differ")
        m = len(eset.weights)
        self.a = grid.dim * eset.weights
        self.lnq = _masked_log(eset.weights)  # the maximally mixed input's output (unit trace)
        self.ops = np.ascontiguousarray(eset.ops).reshape(m, grid.dim ** 2)
        self.states, self.proj = grid.states, grid.compact_view
        eset_ref, grid_ref, self._shared = _GridPricing._last
        if eset_ref is None or eset_ref() is not eset or grid_ref() is not grid:
            row_terms = self._row_term_pass()
            row_terms.setflags(write=False)
            self._shared = [row_terms, None]
            _GridPricing._last = (weakref.ref(eset), weakref.ref(grid), self._shared)
        self.row_terms = self._shared[0]

    @functools.cached_property
    def twin(self) -> np.ndarray:
        """The element set's operators in the compact layout: P = a (proj @ twin^T)."""
        d = self.states.shape[1]
        return compact_operator_view(self.ops.reshape(-1, d, d))

    def _row_term_pass(self) -> np.ndarray:
        """H_x = sum_y P_xy ln P_xy for every grid row, in cache-sized row blocks; only the
        rows whose sum is not finite are redone with P floored at the smallest normal float."""
        n, m = len(self.proj), len(self.a)
        twin_t = np.ascontiguousarray(self.twin.T * self.a)  # P = proj @ twin_t
        rows = min(n, max(1, GRID_BLOCK // m))
        p_buf, lnp_buf = np.empty((rows, m)), np.empty((rows, m))
        row_terms = np.empty(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, n, rows):
                block = self.proj[lo:lo + rows]
                p = np.matmul(block, twin_t, out=p_buf[:len(block)])
                h = row_terms[lo:lo + len(block)]
                np.einsum("xy,xy->x", p, np.log(p, out=lnp_buf[:len(block)]), out=h)
                bad = np.flatnonzero(~np.isfinite(h))  # a P <= 0 gives nan: floor those rows
                if len(bad):
                    p = np.maximum(p[bad], _TINY)
                    h[bad] = np.einsum("xy,xy->x", p, np.log(p))
        return row_terms

    def flat_rate(self) -> float:
        """I(r) of the flat prior r over the grid: mean_x H_x - out . ln out, where
        out = r P = d q_y <chi_y, mean_x |phi_x><phi_x|> is linear too: the mean projector
        is one matvec of the flat weights over the projector view."""
        mean_proj = np.full(len(self.proj), 1.0 / len(self.proj)) @ self.proj
        out = np.maximum(self.a * (self.twin @ mean_proj), 0.0)
        return float(self.row_terms.mean() - out @ _masked_log(out))

    def prices(self, lnout: np.ndarray) -> np.ndarray:
        """D(p(.|phi_x) || out) = H_x - P_x . ln out at every grid state.

        Against ln q, the maximally mixed input's output, this is the KL objective
        ln d - d sum_y q_y eta(<phi_x|chi_y|phi_x>), because sum_y d q_y chi_y = 1.
        """
        return self.row_terms - self.proj @ ((self.a * lnout) @ self.twin)

    def first_climb(self):
        """The first pricing round's climb, against q (b = 0), which is the KL search's, from
        the grid states of the top max(32, d^2) first prices, as every round climbs. Returns
        :func:`_ascend`'s result, read-only."""
        if self._shared[1] is None:
            top = _top_k(self.prices(self.lnq), max(32, self.states.shape[1] ** 2))
            climbed, vals, capped = _ascend(self.ops, self.a, np.zeros_like(self.a),
                                            self.states[top])
            for arr in (climbed, vals):
                arr.setflags(write=False)
            self._shared[1] = (climbed, vals, capped)
        return self._shared[1]


@dataclass(frozen=True)
class BAResult:
    capacity: float
    prior: np.ndarray
    iterations: int
    bracket_width: float


def _refine_solve(channel: np.ndarray, tol: float, prior: np.ndarray | None = None) -> BAResult:
    """Capacity of a channel with few rows by a direct convex solve.

    Maximizes I(r) = sum_x r_x D(P_x || rP) over the simplex by a log-barrier Newton path
    (Boyd & Vandenberghe, Convex Optimization, sec. 11.3) from halfway between ``prior``
    (else the flat prior) and the flat prior: each step solves the KKT system of
    I + mu sum_x ln r_x on sum_x r_x = 1, with K + diag(mu / r^2) and K = P diag(1/rP) P^T,
    backtracked on that objective inside the simplex; mu starts at the bracket over n and
    shrinks 100x per centring. The barrier holds a state off the support at about mu over
    its gap to max_x D, so each iterate is scored with the weights below that gap zeroed.
    Newton steps on D_x(r) = C over the support (least squares: the system is singular when
    the optimal prior is not unique) then polish the best. Each scored r is a valid prior:
    I(r) is achievable, max_x D(P_x || rP) bounds the capacity above. The narrowest bracket
    is returned, wider than ``tol`` only if the step caps ``REFINE_BARRIER_STEPS`` and
    ``REFINE_NEWTON_STEPS`` stopped it.
    """
    P = np.asarray(channel, dtype=float)
    n = P.shape[0]
    if n == 1:  # one input carries no information
        return BAResult(capacity=0.0, prior=np.ones(1), iterations=0, bracket_width=0.0)
    H = np.einsum("xy,xy->x", P, _masked_log(P))

    def divergences(r):
        out = np.maximum(r @ P, _TINY)  # an unreached output makes D huge
        return H - np.einsum("xy,y->x", P, np.log(out)), out

    def iterate(r):  # r clipped to a valid prior, with D(P_x || rP), rP, I(r) and the bracket
        r = np.clip(r, 0.0, None)
        r /= r.sum()
        D, out = divergences(r)
        lower = float(r @ D)
        return r, D, out, lower, max(float(D.max()) - lower, 0.0)

    def barrier(r, mu):
        D, out = divergences(r)
        return float(r @ D + mu * np.log(r).sum()), D, out

    best = iterate(np.full(n, 1.0 / n) if prior is None else prior)
    r, mu, steps = 0.5 * best[0] + 0.5 / n, best[4] / n, 0
    phi, D, out = barrier(r, mu)
    while best[4] > tol and steps < REFINE_BARRIER_STEPS:
        # dr = r u: (R K R + mu I) u + nu r = r (D - 1) + mu, r . u = 0
        scaled = r[:, None] * P / np.sqrt(out)
        rhs = r * (D - 1.0) + mu
        sol = np.linalg.solve(scaled @ scaled.T + mu * np.eye(n), np.stack([rhs, r], axis=1))
        u = sol[:, 0] - (r @ sol[:, 0]) / (r @ sol[:, 1]) * sol[:, 1]
        decrement, t = float(rhs @ u), min(1.0, 0.99 / max(-u.min(), 1e-300))
        if decrement <= 1e-15 * abs(phi):  # phi's rounding hides any gain: the polish takes over
            break
        while (trial := barrier(r * (1.0 + t * u), mu))[0] < phi + 1e-4 * t * decrement:
            if t < 1e-12:
                break
            t *= 0.5
        r, (phi, D, out), steps = r * (1.0 + t * u), trial, steps + 1
        best = min(best, iterate(np.where(r > D.max() - D, r, 0.0)), key=lambda it: it[4])
        if decrement <= mu:  # centred: shrink the barrier
            mu *= 0.01
            phi = barrier(r, mu)[0]
    cur = best
    for _ in range(REFINE_NEWTON_STEPS):
        if best[4] <= tol:
            break
        r, D, out = cur[:3]
        s = np.flatnonzero(r > 1e-12 * r.max())
        k = len(s)
        # D_s(r + dr) ~ D_s - K dr with K = P_s diag(1/out) P_s^T; solve for dr and C
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = (P[s] / out) @ P[s].T
        kkt[k, k] = 0.0
        dr = np.zeros(n)
        dr[s] = np.linalg.lstsq(kkt, np.append(D[s], 0.0), rcond=None)[0][:k]
        cur = iterate(r + dr)
        best = min(best, cur, key=lambda it: it[4])
        steps += 1
    r, _, _, lower, width = best
    return BAResult(capacity=lower, prior=r, iterations=steps, bracket_width=width)


def _masked_log(a: np.ndarray) -> np.ndarray:
    return np.log(a, out=np.zeros_like(a), where=a > 0)


def _top_k(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of v, largest first: np.argsort(v)[::-1][:k], with
    only those k sorted after one partition."""
    if k >= len(v):
        return np.argsort(v)[::-1]
    top = np.argpartition(v, len(v) - k)[len(v) - k:]
    return top[np.argsort(v[top])[::-1]]


# ---------------------------------------------------------------------------
# KL upper-bound objective and its maximizer search

class _AscentTerms:
    """F and its gradient at each row of a (K, d) stack z, for one climb; see :func:`_ascend`.

    Built once per climb: the operators' (re, im) view and its C-contiguous transpose, S_a =
    sum_y a_y chi_y, an x buffer of one row block and the (K, m) array g. A call folds 1 /
    |phi|^2 into the (K, 2 d^2) projector rows and makes 8 passes over the (K, m) block: x by
    one matmul, its clamp, ln x, three in-place steps to g = a (ln x + 1) + b (two when b = 0,
    the KL form), g . x and B. F = g . x - <phi|S_a|phi> / |phi|^2 takes no pass. g is kept,
    not folded into B = ln x @ (a chi) + (a + b) @ chi: the gradient nearly cancels, and that
    form rounds it up to 7e-13 of its size away from the one-pass form. Row blocks of about
    ``GRID_BLOCK / 2`` entries keep x and g in cache for any K, and B comes from one matmul
    over the stack. A block is a multiple of 4 rows (2 when m > GRID_BLOCK / 8): OpenBLAS then
    splits each block as it splits the whole stack, and only a remainder block of 1 row rounds
    differently, by a few ulps.
    """

    def __init__(self, ops: np.ndarray, a: np.ndarray, b: np.ndarray, k: int):
        m = len(a)
        self.ops = np.ascontiguousarray(ops, dtype=complex).reshape(m, -1).view(float)
        self.ops_t = np.ascontiguousarray(self.ops.T)  # x = proj @ ops_t, as in core.overlaps
        self.a, self.b, self.s_a, self.add_b = a, b, a @ self.ops, bool(b.any())
        self.rows = min(k, max(2, GRID_BLOCK // (2 * m) // 4 * 4))
        self.x, self.g = np.empty((self.rows, m)), np.empty((k, m))

    def __call__(self, z: np.ndarray):
        k, d = z.shape
        norm2 = np.einsum("ki,ki->k", z, z.conj()).real
        proj = projector_view(z) / norm2[:, None]
        gx = np.empty(k)
        for lo in range(0, k, self.rows):
            hi = min(lo + self.rows, k)
            x = np.matmul(proj[lo:hi], self.ops_t, out=self.x[:hi - lo])
            np.maximum(x, _TINY, out=x)
            gb = np.log(x, out=self.g[lo:hi])
            gb += 1.0
            gb *= self.a
            if self.add_b:
                gb += self.b  # g = a (ln x + 1) + b
            np.einsum("ky,ky->k", gb, x, out=gx[lo:hi])
        # B_k = sum_y g_ky chi_y from the (re, im) view of the operators
        bk = (self.g @ self.ops).view(complex)
        bz = np.einsum("kij,kj->ki", bk.reshape(k, d, d), z)
        grad = (2.0 / norm2)[:, None] * (bz - gx[:, None] * z)
        return gx - proj @ self.s_a, grad


def _lbfgs(fun, x0: np.ndarray, max_iter: int, gtol: float, ftol: float):
    """Minimize ``fun(x) -> (f, gradient)`` from ``x0`` by L-BFGS with Armijo backtracking.

    Directions come from the two-loop recursion over the last 10 pairs (s, y) of positive
    curvature, scaled by s . y / y . y (Nocedal & Wright, Numerical Optimization, alg. 7.4);
    the first is a steepest-descent step of length 1, as in L-BFGS-B. A step is cut by
    quadratic interpolation, to 0.1-0.5 of itself, until f falls by 1e-4 of its predicted
    fall; 20 cuts fail the line search. It stops at a largest gradient entry <= ``gtol``, at a
    step lowering f by <= ``ftol`` max(|f|, |f_new|, 1), at a failed line search or after
    ``max_iter`` iterations. Returns the last accepted x (``fun`` saw it last unless a line
    search failed), the evaluation count and whether ``max_iter`` ended the solve.
    """
    x, (f, g), nfev, pairs = x0, fun(x0), 1, []  # pairs (s, y, 1 / s . y), oldest first
    for it in range(max_iter + 1):
        g_max = np.abs(g).max()
        if g_max <= gtol or it == max_iter:
            return x, nfev, bool(g_max > gtol)
        p, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ p))
            p = p - alphas[-1] * y
        p = p / (pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1]) if pairs else np.linalg.norm(g))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            p = p + (alpha - rho * (y @ p)) * s
        slope, t = float(g @ p), 1.0
        for _ in range(20):
            x_new = x + t * p
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + 1e-4 * t * slope:
                break
            cut = -slope * t / (2.0 * (f_new - f - slope * t))  # the quadratic's minimum
            t *= min(max(cut, 0.1), 0.5) if math.isfinite(cut) else 0.1
        else:
            return x, nfev, False
        s, y = x_new - x, g_new - g
        if s @ y > 1e-12 * (y @ y):
            pairs = [*pairs[-9:], (s, y, 1.0 / (s @ y))]
        if f - f_new <= ftol * max(abs(f), abs(f_new), 1.0):
            return x_new, nfev, False
        x, f, g = x_new, f_new, g_new


def _ascend(ops: np.ndarray, a: np.ndarray, b: np.ndarray, phis: np.ndarray):
    """Maximize F(phi) = sum_y a_y x_y ln x_y + b_y x_y, x_y = <phi|chi_y|phi> / <phi|phi>,
    from every row of the (K, d) stack ``phis`` at once.

    One L-BFGS solve (:func:`_lbfgs`) on the separable sum sum_k F(phi_k) over (Re phi_k,
    Im phi_k) climbs all K starts, with the analytic gradient 2 / |phi|^2 (B phi - (g . x)
    phi), g = a (ln x + 1) + b and B = sum_y g_y chi_y, formed by one evaluator per climb
    (:class:`_AscentTerms`) in 8 passes over each cache-sized row block of the (K, m) overlaps.
    x is clamped at the smallest normal float before the log, since an optimal state may have
    zero overlaps. The stopping rules are global: ftol = 1e-15 applies relative to |sum_k F|,
    and a failed line search ends every start. So the oracle climbs D(p(.|phi) || out) - ln d,
    b = a (ln q - ln out), as sum_y a_y x_y = 1: D itself, b = a (ln a - ln out), is two nearly
    cancelling O(1) sums whose rounding the relative ftol test would chase. The stack stops at
    gtol = 1e-9 on its largest gradient entry. The computed gradient has a rounding floor of
    about 2e-11, so a gtol below it never fires: the ftol test or a failed line search then
    ends the stack, after extra steps whose sum_k F moves by +-1 ulp. A gradient of size g
    leaves F within about g^2 / (2 kappa) of its local maximum, kappa the curvature there; for
    g = 1e-9 and kappa of order 1 that is 5e-19, far below F's last bit. Returns the
    (K, d) normalized maximizers, F at each and whether the stack stopped at
    ``ASCENT_MAX_ITER``. F is the solver's last evaluation when that was at the returned
    point; the stack is evaluated once more after a failed line search.
    """
    shape, last = np.shape(phis), None  # last: (v, F at each row) of the last evaluation
    terms = _AscentTerms(ops, a, b, shape[0])

    def objective(v):
        nonlocal last
        vals, grad = terms(v.view(complex).reshape(shape))
        last = (v, vals)
        return -float(vals.sum()), -grad.view(float).ravel()

    v, _, capped = _lbfgs(objective, np.ascontiguousarray(phis, dtype=complex).view(float).ravel(),
                          ASCENT_MAX_ITER, gtol=1e-9, ftol=1e-15)
    z = v.view(complex).reshape(shape)
    vals = last[1] if last[0] is v else terms(z)[0]
    return z / np.linalg.norm(z, axis=1, keepdims=True), vals, capped


def kl_maximize(eset: WeightedElementSet, grid: StateGrid) -> tuple[float, np.ndarray]:
    """Grid search plus local refinement of ln d - d sum_y q_y eta(<phi|chi_y|phi>).

    That KL objective is D(p(.|phi) || q) = ln d + F (b = 0 in :func:`_ascend`), so it is
    the first pricing round of :func:`informational_power`: the grid values are that
    round's prices, and the refinement is its climb (:meth:`_GridPricing.first_climb`) from
    the top max(32, d^2) of them, run once per (POVM, grid) pair by whichever search comes
    first. Every climb is scored, ln d + F at its end, so the value is the best of them.
    Returns it and every climb within 1e-8 of it (deduplicated by projector overlap): the
    KL maximisers, for the tests and callers that want them. Nothing in the package reads
    them; an :class:`OracleResult` certifies tightness on its own support.
    """
    climbed, vals, _ = _GridPricing(eset, grid).first_climb()
    scores = math.log(eset.dim) + vals
    best_val = float(scores.max())
    return best_val, _dedupe_states(climbed[scores >= best_val - 1e-8], 1e-6)


# ---------------------------------------------------------------------------
# informational power (oracle)

@dataclass(frozen=True)
class OracleResult:
    """The estimate and its read-only ensemble; the properties below are computed on first read."""

    capacity_estimate: float
    optimizer_states: np.ndarray
    optimizer_weights: np.ndarray
    refinement_rounds: int
    bracket_width: float
    diagnostics: dict = field(default_factory=dict)

    @functools.cached_property
    def average_state(self) -> np.ndarray:
        states = self.optimizer_states
        return np.einsum("x,xi,xj->ij", self.optimizer_weights, states, states.conj())

    @functools.cached_property
    def tightness_residual(self) -> float:
        return _identity_hull_residual(self.optimizer_states, self.optimizer_states.shape[1])

    @property
    def tightness(self) -> bool:
        return self.tightness_residual <= TIGHTNESS_RESIDUAL_TOL


def informational_power(eset: WeightedElementSet, grid: StateGrid,
                        tol: float = 1e-6) -> OracleResult:
    """Maximize mutual information by column generation, with the grid as the pricing set.

    Capacity is max_r I(r) = min_q max_phi D(p(.|phi) || q) (Csiszar-Korner), so the largest
    price of a grid state against an output q bounds the grid's capacity.
    :class:`_GridPricing` prices every grid state with one d x d operator per q, after one
    blocked pass for the row terms sum_y p ln p (shared with :func:`kl_maximize` on the same
    pair); the (n, m) grid channel is never formed. The value starts as the flat grid
    prior's rate, and the first q is the maximally mixed input's output. Each round climbs
    from the top max(32, d^2) grid states by one stacked L-BFGS ascent of D(p(.|phi) || q)
    in the KL form ln d + F (:func:`_ascend`); the first round's is the KL search's climb,
    shared with :func:`kl_maximize` on the same pair. Climbs that end above value + tol join
    the support, whose capacity a small convex solve, warm-started from the last prior,
    gives as the new value, its output as the next q; states of zero weight leave. No round
    runs if no grid state beats the flat rate by more than ``tol`` (finite and > 0). By the
    minimax, the max of D(p(.|phi) || out) over the states bounds the capacity above for
    every out, so each climb's best end estimates such a bound; ``upper`` is the least of
    them, the KL value first. The loop stops at a climb that ends nothing above value + tol,
    at a solve whose value comes within tol of ``upper`` (before the next climb), or after
    ``PRICING_MAX_ROUNDS`` rounds. The solve's bracket is certified: I(r) of a valid prior r
    below, max_x D(p(.|x) || rP) above. The estimate is the rate of the returned ensemble
    (the flat grid if no round ran), a lower bound. :class:`OracleResult` computes its
    tightness certificate on first read.

    ``diagnostics["grid_gap"]`` is the last largest price minus the value (negative when the
    support beats every grid state); ``"upper"`` is the least climbed estimate, or None when
    no round climbed: a numerical estimate, an upper bound only where the climbs reach the
    global maximum; ``"stop"`` says why the loop ended: ``"flat"`` (no round ran),
    ``"climb"`` (the last climb ended nothing above value + tol), ``"upper"`` (the value
    came within tol of ``upper``) or ``"cap"`` (``PRICING_MAX_ROUNDS`` rounds ran). Each
    test runs as soon as its step ends and the first that holds names the stop, so a last
    round whose solve meets ``upper`` reads ``"upper"``, not ``"cap"``; ``"pricing_capped"``
    says the round cap stopped the loop (``stop == "cap"``); ``"bracket_met"`` says the
    reported bracket is within ``tol``; ``"refine_capped"`` counts the solves that ended at
    their step cap without closing their bracket to min(tol, ``REFINE_TOL``), and
    ``"ascent_capped"`` the ascents that stopped at ``ASCENT_MAX_ITER``: every start of a
    round whose stacked solve hit the cap.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"oracle tolerance must be finite and positive, got {tol!r}")
    d = eset.dim
    pricing = _GridPricing(eset, grid)
    states, prior = grid.states, np.full(len(grid.states), 1.0 / len(grid.states))
    value = pricing.flat_rate()
    lnout = pricing.lnq
    priced = pricing.prices(lnout)
    bracket = max(float(priced.max()) - value, 0.0)

    refine_tol = min(tol, REFINE_TOL)
    rounds = refine_capped = ascent_capped = 0
    upper, stop = math.inf, "flat"  # upper: the least climbed max of D(p(.|phi) || out)
    while rounds < PRICING_MAX_ROUNDS and (rounds or priced.max() > value + tol):
        if rounds:  # D(p(.|phi) || out) = ln d + F with b = a (ln q - ln out), p_y = a_y x_y
            top = grid.states[_top_k(priced, max(32, d * d))]
            climb = _ascend(pricing.ops, pricing.a, pricing.a * (pricing.lnq - lnout), top)
        else:  # out = q, so b = 0: the KL search's climb
            climb = pricing.first_climb()
        climbed, prices, capped = climb[0], math.log(d) + climb[1], climb[2]
        ascent_capped += len(climbed) if capped else 0
        upper = min(upper, float(prices.max()))
        # the climbs start at the best grid prices: none above value + tol, no grid state either
        if prices.max() <= value + tol:
            stop = "climb"
            break
        kept = len(states) if rounds else 0  # before round 1, states is the flat grid
        states = _dedupe_states([*states[:kept], *climbed[prices > value + tol]])
        sub = povm_channel(eset, states)
        res = _refine_solve(sub, refine_tol, np.append(prior, np.zeros(len(states) - kept))
                            if kept else None)
        rounds += 1
        refine_capped += res.bracket_width > refine_tol
        keep = res.prior > 0.0
        states, prior = states[keep], res.prior[keep]
        value, bracket = res.capacity, res.bracket_width
        # floored: an outcome the support never reaches prices the states reaching it high
        lnout = np.log(np.maximum(prior @ sub[keep], _TINY))
        priced = pricing.prices(lnout)
        if value + tol >= upper:  # a climb already paid for bounds C within tol of the value
            stop = "upper"
            break
    else:
        if rounds:
            stop = "cap"

    if value > math.log(d) + 1e-9:
        raise ArithmeticError(f"oracle capacity {value!r} exceeds ln d = {math.log(d)!r}")
    for arr in (states, prior):
        arr.setflags(write=False)
    return OracleResult(capacity_estimate=float(value), optimizer_states=states,
                        optimizer_weights=prior, refinement_rounds=rounds,
                        bracket_width=float(bracket),
                        diagnostics={"grid": grid.provenance, "grid_points": grid.resolution,
                                     "seeded": grid.seeded, "bracket_met": bool(bracket <= tol),
                                     "refine_capped": refine_capped, "ascent_capped": ascent_capped,
                                     "grid_gap": float(priced.max()) - value,
                                     "pricing_capped": stop == "cap", "stop": stop,
                                     "upper": None if upper == math.inf else upper})


def _dedupe_states(states, tol: float = 1e-8) -> np.ndarray:
    """The states in order, each dropped if |<kept|phi>|^2 > 1 - tol for an earlier kept one.

    One Gram matrix of the (a few hundred) inputs decides every pair; the walk
    keeps the first of each cluster and retires the rest of its row.
    """
    states = np.asarray(states)
    if len(states) == 0:
        return np.array([])
    close = np.abs(states @ states.conj().T) ** 2 > 1 - tol
    alive = np.ones(len(states), dtype=bool)
    keep = np.zeros(len(states), dtype=bool)
    for i in range(len(states)):
        if alive[i]:
            keep[i] = True
            alive &= ~close[i]
    return states[keep]


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """argmin ||a x - b|| over x >= 0 and its residual, by the active-set method of Lawson &
    Hanson, Solving Least Squares Problems (1974), ch. 23.

    With no more columns than rows, one least-squares solve is tried first: nonnegative, it
    is the answer. The passive set grows by the column of largest gradient a^T (b - a x) and
    shrinks along the segment to each least-squares solve on it: no n x n matrix is formed.
    """
    m, n = a.shape
    if n <= m:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        if x.min() >= 0.0:
            return x, float(np.linalg.norm(a @ x - b))
    x, passive, barred = np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    tol = 10 * max(m, n) * np.finfo(float).eps * np.abs(a).max() * np.abs(b).sum()
    for _ in range(3 * n):
        free = np.where(passive | barred, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(free))
        if free[j] <= tol:
            break
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            z = np.linalg.lstsq(a[:, idx], b, rcond=None)[0]
            if z.min() > 0.0:
                x[idx], barred[:] = z, False
                break
            if x[j] == 0.0 and z[np.searchsorted(idx, j)] <= 0.0:
                passive[j], barred[j] = False, True  # w_j > 0 by rounding: barred till x moves
                break
            neg = np.flatnonzero(z <= 0.0)
            ratios = x[idx[neg]] / (x[idx[neg]] - z[neg])
            x[idx] += ratios.min() * (z - x[idx])
            x[idx[neg[np.argmin(ratios)]]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    return x, float(np.linalg.norm(a @ x - b))


def _identity_hull_residual(states: np.ndarray, d: int) -> float:
    """Distance of 1/d from the convex hull of the state projectors.

    Solved as a nonnegative least squares in the real embedding of Hermitian
    matrices; the simplex constraint is implied because every projector has
    unit trace. An evenly spaced subset of about 8 d^2 states is solved first: its
    residual bounds the full one and is returned if it meets the tolerance,
    which spares the full solve, and the projectors of the other states, on a
    grid-sized ensemble. A subset that is the whole set is solved once.
    """
    def columns(states):
        projs = np.einsum("xi,xj->xij", states, states.conj()).reshape(len(states), -1)
        return np.concatenate([projs.real, projs.imag], axis=1).T

    target = np.concatenate([(np.eye(d) / d).ravel(), np.zeros(d * d)])
    stride = max(1, len(states) // (8 * d * d))
    _, resid = _nnls(columns(states[::stride]), target)
    if resid > TIGHTNESS_RESIDUAL_TOL and stride > 1:
        _, resid = _nnls(columns(states), target)
    return float(resid)


def discretized_uniform_povm(dim: int, n_effects: int | None = None,
                             seed: int = 0) -> WeightedElementSet:
    """An exact finite POVM approximating the uniform rank-one POVM.

    Sampled directions (Fibonacci for qubits, Haar otherwise) are tightened
    into an exact resolution of the identity: with S = (d/M) sum |psi><psi|,
    the states S^{-1/2}|psi> with weights |S^{-1/2}psi|^2 / M form a rank-one
    POVM whose capacity converges to the uniform one as M grows.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    m = n_effects if n_effects is not None else max(2048, 32 * dim * dim)
    if m < dim:
        raise ValueError(f"n_effects must be >= dim = {dim} to resolve the identity, got {m}")
    raw = fibonacci_bloch_states(m) if dim == 2 else haar_random_states(dim, m, seed)
    s = (dim / m) * np.einsum("mi,mj->ij", raw, raw.conj())
    w, v = np.linalg.eigh(s)
    s_inv_half = (v * (w ** -0.5)) @ v.conj().T
    tightened = raw @ s_inv_half.T
    norms2 = np.einsum("mi,mi->m", tightened, tightened.conj()).real
    states = tightened / np.sqrt(norms2)[:, None]
    return pure_ensemble(dim, states, norms2 / m, role="povm", label=f"uniform_d{dim}_M{m}")
