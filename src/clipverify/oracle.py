"""Exhaustive ground-truth oracles for small verification problems.

Deliberately brute-force and budget-gated: these routines exist to check
the fast engine, so they share no bounding or clipping code with it.

* :func:`lp_box_oracle` solves a linear program over a box intersected with
  a few half-spaces by enumerating every candidate vertex (each choice of n
  active facets among the 2n box faces and the constraint planes).
* :func:`exact_verify` minimizes a ReLU network over a box exactly by
  enumerating activation patterns of the unstable neurons and solving one
  LP per pattern cell.
* :func:`sample_attack` is a cheap randomized falsifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import BoxDomain
from .network import CanonicalProblem

# Absolute slack used when filtering candidate vertices for feasibility.
FEAS_TOL = 1e-9

# Enumeration budgets for the public entry points.
MAX_LP_DIM = 10
MAX_LP_CONS = 6
MAX_VERIFY_DIM = 6
MAX_VERIFY_UNSTABLE = 14


class BudgetError(ValueError):
    """The requested instance exceeds the oracle's enumeration budget."""


@dataclass
class OracleResult:
    value: float
    witness: np.ndarray | None
    status: str  # "optimal" | "infeasible"


@dataclass
class ExactResult:
    min_value: float
    witness: np.ndarray | None
    patterns: int


@dataclass
class PatternRegion:
    """One activation-pattern cell: sign assignment, region, induced map.

    ``assignments`` maps (layer, neuron) to +-1 for every sign that is not
    already decided by the box.  The region is ``normals @ x + offsets <=
    0`` inside the box, and on it the network output equals the affine map
    ``row_weights @ x + row_bias`` exactly.
    """

    assignments: dict
    normals: np.ndarray
    offsets: np.ndarray
    row_weights: np.ndarray
    row_bias: np.ndarray


def _corners(box: BoxDomain, dims=None) -> np.ndarray:
    dims = np.arange(box.dim) if dims is None else np.asarray(dims, dtype=int)
    k = dims.size
    if k == 0:
        return np.zeros((1, 0))
    bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    lo = box.lower[dims]
    hi = box.upper[dims]
    return lo + bits * (hi - lo)


def _batched_solve(mats: np.ndarray, rhs: np.ndarray):
    """Solve a stack of square systems, skipping singular ones.

    Returns (solutions, valid_mask); invalid entries are zero-filled.
    Filtering is by determinant magnitude plus a residual check, so
    near-singular active sets are dropped rather than trusted.
    """
    P, s, _ = mats.shape
    valid = np.abs(np.linalg.det(mats)) > 1e-12
    sols = np.zeros_like(rhs)
    if valid.any():
        try:
            sols[valid] = np.linalg.solve(mats[valid], rhs[valid])
        except np.linalg.LinAlgError:
            for p in np.flatnonzero(valid):
                try:
                    sols[p] = np.linalg.solve(mats[p], rhs[p])
                except np.linalg.LinAlgError:
                    valid[p] = False
        resid = np.abs(mats @ sols - rhs).max(axis=(1, 2))
        scale = 1.0 + np.abs(rhs).max(axis=(1, 2))
        valid &= resid <= 1e-7 * scale
    return sols, valid


def _vertex_candidates(box: BoxDomain, G: np.ndarray, h: np.ndarray):
    """Yield candidate-vertex batches for the LP over box intersect
    ``G @ x + h <= 0``.

    Every vertex of the feasible polytope makes n facets active; s of them
    constraint planes (solved as equalities on s free coordinates) and the
    remaining n - s box faces (coordinates pinned to a bound).  For each
    (s, free-coordinate set) pair, all C(m, s) constraint choices and all
    2^(n-s) pinned corners are solved in one batched call.
    """
    n = box.dim
    m = G.shape[0]
    yield _corners(box)
    all_dims = np.arange(n)
    for s in range(1, min(m, n) + 1):
        subs = np.array(list(combinations(range(m), s)), dtype=int)  # (A, s)
        Gsub = G[subs]  # (A, s, n)
        hsub = h[subs]  # (A, s)
        A = subs.shape[0]
        for free in combinations(range(n), s):
            free = np.asarray(free, dtype=int)
            pinned = np.setdiff1d(all_dims, free)
            corners = _corners(box, pinned)  # (K, n-s)
            K = corners.shape[0]
            # rhs[a, k, :] = -h[subs[a]] - G[subs[a]][:, pinned] @ corners[k]
            rhs = -hsub[:, None, :] - np.einsum(
                "asp,kp->aks", Gsub[:, :, pinned], corners
            )  # (A, K, s)
            mats = np.repeat(Gsub[:, :, free], K, axis=0)  # (A*K, s, s)
            sols, valid = _batched_solve(mats, rhs.reshape(A * K, s, 1))
            if not valid.any():
                continue
            pts = np.empty((A * K, n))
            pts[:, pinned] = np.tile(corners, (A, 1))
            pts[:, free] = sols[:, :, 0]
            yield pts[valid]


def _vertex_optimize(a, c, box: BoxDomain, G, h, direction: str = "min") -> OracleResult:
    a = np.asarray(a, dtype=float)
    G = np.asarray(G, dtype=float).reshape(-1, box.dim)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if box.is_empty:
        inf = np.inf if direction == "min" else -np.inf
        return OracleResult(inf, None, "infeasible")
    best_val = None
    best_pt = None
    sign = 1.0 if direction == "min" else -1.0
    for pts in _vertex_candidates(box, G, h):
        if pts.size == 0:
            continue
        ok = np.all(pts >= box.lower - FEAS_TOL, axis=1)
        ok &= np.all(pts <= box.upper + FEAS_TOL, axis=1)
        if G.shape[0]:
            ok &= np.all(pts @ G.T + h <= FEAS_TOL, axis=1)
        if not ok.any():
            continue
        feas = pts[ok]
        vals = sign * (feas @ a)
        j = int(np.argmin(vals))
        if best_val is None or vals[j] < best_val:
            best_val = float(vals[j])
            best_pt = feas[j].copy()
    if best_val is None:
        if _sampling_feasible(box, G, h):
            raise RuntimeError("vertex enumeration found no candidate on a feasible region")
        inf = np.inf if direction == "min" else -np.inf
        return OracleResult(inf, None, "infeasible")
    value = sign * best_val + float(c)
    return OracleResult(value, best_pt, "optimal")


def _sampling_feasible(box: BoxDomain, G: np.ndarray, h: np.ndarray) -> bool:
    """Phase-1 style sanity sweep: does any sampled point satisfy all rows?"""
    if G.shape[0] == 0:
        return True
    rng = np.random.default_rng(0)
    pts = np.vstack(
        [box.center[None, :], rng.uniform(box.lower, box.upper, size=(512, box.dim))]
    )
    margins = pts @ G.T + h
    return bool(np.any(np.all(margins <= -1e-7, axis=1)))


def lp_box_oracle(a, c, box: BoxDomain, cset=None, direction: str = "min") -> OracleResult:
    """Exact optimum of ``a . x + c`` over box intersect half-spaces.

    ``cset`` may be None, a ConstraintSet-like object with ``normals`` /
    ``offsets``, or a pair of arrays.  Refuses instances beyond n=10
    dimensions or m=6 constraints; the cost is exponential by design.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    a = np.asarray(a, dtype=float)
    if a.shape != (box.dim,):
        raise ValueError("objective dimension does not match box")
    if cset is None:
        G = np.zeros((0, box.dim))
        h = np.zeros(0)
    elif hasattr(cset, "normals"):
        G = np.asarray(cset.normals, dtype=float)
        h = np.asarray(cset.offsets, dtype=float)
    else:
        G, h = cset
        G = np.asarray(G, dtype=float).reshape(-1, box.dim)
        h = np.atleast_1d(np.asarray(h, dtype=float))
    if box.dim > MAX_LP_DIM:
        raise BudgetError(f"lp oracle limited to {MAX_LP_DIM} dimensions, got {box.dim}")
    if G.shape[0] > MAX_LP_CONS:
        raise BudgetError(f"lp oracle limited to {MAX_LP_CONS} constraints, got {G.shape[0]}")
    return _vertex_optimize(a, c, box, G, h, direction)


def _forced_by_layer(model, forced) -> dict:
    """``forced`` ((layer, neuron) -> +-1, or None) as one sign array per
    layer that has a forced neuron."""
    by_layer = {}
    for (li, j), pol in dict(forced or {}).items():
        by_layer.setdefault(li, np.zeros(model.layers[li].out_dim, dtype=int))
        by_layer[li][j] = pol
    return by_layer


def _interval_forward(model, box: BoxDomain, forced_by_layer):
    """Interval-arithmetic pre-activation bounds, respecting forced signs."""
    lo, hi = box.lower, box.upper
    pre = []
    for i, layer in enumerate(model.layers):
        Wp = np.maximum(layer.weights, 0.0)
        Wn = np.minimum(layer.weights, 0.0)
        l = Wp @ lo + Wn @ hi + layer.bias
        u = Wp @ hi + Wn @ lo + layer.bias
        pre.append((l, u))
        if i == model.num_layers - 1:
            break
        lo = np.maximum(l, 0.0)
        hi = np.maximum(u, 0.0)
        forced = forced_by_layer.get(i)
        if forced is not None:
            inactive = forced < 0
            lo = np.where(inactive, 0.0, lo)
            hi = np.where(inactive, 0.0, hi)
    return pre


def enumerate_pattern_regions(problem: CanonicalProblem, box=None, forced=None):
    """Generate the activation-pattern cells of a network over a box.

    Yields one :class:`PatternRegion` per sign assignment of the
    enumerated neurons that survives cheap emptiness pruning (single
    constraint against the box, plus an exact feasibility check at each
    layer boundary).  Neurons whose sign the box already decides are fixed
    silently; ``forced`` entries ((layer, neuron) -> +-1) are fixed with
    their half-space added to the region.
    """
    model = problem.model
    box = box or problem.box
    forced_by_layer = _forced_by_layer(model, forced)
    pre_bounds = _interval_forward(model, box, forced_by_layer)

    center, radius = box.center, box.radius
    n_layers = model.num_layers

    def region_empty_quick(w, b) -> bool:
        # Minimum of w . x + b over the box is positive: the half-space
        # w . x + b <= 0 misses the box entirely.
        return float(w @ center) - float(np.abs(w) @ radius) + b > 0.0

    def recurse(layer_idx, post_W, post_b, cons_G, cons_h, assignment):
        W = model.layers[layer_idx].weights
        b = model.layers[layer_idx].bias
        pre_W = W @ post_W
        pre_b = W @ post_b + b
        if layer_idx == n_layers - 1:
            yield PatternRegion(
                dict(assignment),
                np.array(cons_G).reshape(-1, box.dim),
                np.asarray(cons_h, dtype=float),
                pre_W,
                pre_b,
            )
            return
        l_ibp, u_ibp = pre_bounds[layer_idx]
        forced_layer = forced_by_layer.get(layer_idx)
        width = pre_W.shape[0]

        def assign(j, signs, G_acc, h_acc, assigned):
            if j == width:
                mask = np.asarray(signs, dtype=float) > 0
                next_W = pre_W * mask[:, None]
                next_b = pre_b * mask
                if len(G_acc) > len(cons_G):
                    feas = _vertex_optimize(
                        np.zeros(box.dim), 0.0, box,
                        np.array(G_acc).reshape(-1, box.dim),
                        np.asarray(h_acc, dtype=float),
                    )
                    if feas.status == "infeasible":
                        return
                yield from recurse(layer_idx + 1, next_W, next_b, G_acc, h_acc, assigned)
                return
            w_row, b_row = pre_W[j], pre_b[j]
            if forced_layer is not None and forced_layer[j] != 0:
                sign = int(forced_layer[j])
                g, off = (-w_row, -b_row) if sign > 0 else (w_row, b_row)
                if region_empty_quick(g, off):
                    return
                yield from assign(
                    j + 1,
                    signs + [sign],
                    G_acc + [g],
                    h_acc + [off],
                    assigned | {(layer_idx, j): sign},
                )
                return
            if l_ibp[j] >= 0.0:
                yield from assign(j + 1, signs + [1], G_acc, h_acc, assigned)
                return
            if u_ibp[j] <= 0.0:
                yield from assign(j + 1, signs + [-1], G_acc, h_acc, assigned)
                return
            for sign in (1, -1):
                g, off = (-w_row, -b_row) if sign > 0 else (w_row, b_row)
                if region_empty_quick(g, off):
                    continue
                yield from assign(
                    j + 1,
                    signs + [sign],
                    G_acc + [g],
                    h_acc + [off],
                    assigned | {(layer_idx, j): sign},
                )

        yield from assign(0, [], list(cons_G), list(cons_h), assignment)

    eye = np.eye(model.input_dim)
    zero = np.zeros(model.input_dim)
    yield from recurse(0, eye, zero, [], np.zeros(0), {})


def count_unstable(problem: CanonicalProblem, box=None, forced=None) -> int:
    """Number of neurons whose sign neither the box nor ``forced`` decides."""
    model = problem.model
    box = box or problem.box
    forced_by_layer = _forced_by_layer(model, forced)
    pre = _interval_forward(model, box, forced_by_layer)
    total = 0
    for i in range(model.num_layers - 1):
        l, u = pre[i]
        free = (l < 0.0) & (u > 0.0)
        forced_layer = forced_by_layer.get(i)
        if forced_layer is not None:
            free &= forced_layer == 0
        total += int(free.sum())
    return total


def exact_verify(problem: CanonicalProblem, box=None, forced=None) -> ExactResult:
    """Exact minimum of the worst property row over a box.

    Enumerates every activation pattern consistent with ``forced`` and
    minimizes each row's induced affine function over the pattern's cell.
    ``min_value >= 0`` iff the property holds on the box (+inf when the
    forced region is empty).  The returned witness attains the minimum.
    """
    box = box or problem.box
    if box.dim > MAX_VERIFY_DIM:
        raise BudgetError(f"exact verification limited to {MAX_VERIFY_DIM} input dims")
    n_unstable = count_unstable(problem, box, forced)
    if n_unstable > MAX_VERIFY_UNSTABLE:
        raise BudgetError(
            f"exact verification limited to {MAX_VERIFY_UNSTABLE} unstable neurons, "
            f"got {n_unstable}"
        )
    best = np.inf
    witness = None
    patterns = 0
    for region in enumerate_pattern_regions(problem, box, forced):
        patterns += 1
        for r in range(region.row_weights.shape[0]):
            res = _vertex_optimize(
                region.row_weights[r],
                float(region.row_bias[r]),
                box,
                region.normals,
                region.offsets,
            )
            if res.status == "optimal" and res.value < best:
                best = res.value
                witness = res.witness
    return ExactResult(float(best), witness, patterns)


def sample_attack(problem: CanonicalProblem, box=None, count: int = 1000, seed: int = 0):
    """Randomized counterexample search: box center plus uniform samples.

    Returns ``(value, point)`` for the sampled point with the worst
    (lowest) property-row value.  A negative value is a certified
    counterexample; a nonnegative one proves nothing.
    """
    box = box or problem.box
    rng = np.random.default_rng(seed)
    # The samples are drawn in place, as rng.uniform draws them
    # (lower + width * u, same numbers): one array of the batch's size and
    # no temporaries.  Unlike rng.uniform, this also accepts the coordinate
    # interval [0.0, -0.0] (negative zero width).
    pts = np.empty((1 + max(count, 0), box.dim))
    pts[0] = box.center
    samples = pts[1:]
    rng.random(out=samples)
    samples *= box.upper - box.lower
    samples += box.lower
    vals = problem.model.evaluate(pts).min(axis=1)
    j = int(np.argmin(vals))
    return float(vals[j]), pts[j].copy()
