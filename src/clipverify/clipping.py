"""Constraint-driven tightening of linear bounds and boxes.

Two mechanisms, both driven by half-space constraints ``g . x + h <= 0``
known to hold on the region of interest:

* Complete clipping: sharpen the minimum of an affine objective over
  box-and-constraints by Lagrangian duality.  For a single constraint the
  dual is an exactly solvable concave piecewise-linear line search; several
  constraints are handled by coordinate ascent over their multipliers.
  :func:`dual_ascent_batch` runs that ascent for B domains at once, each
  with its own box, constraint stack (padded to the largest by
  :func:`stack_constraints`) and K objectives: one sorted kink walk per
  constraint row covers every objective of every domain where the row is
  active, as screened once per domain by :func:`screen_rows`.  So one
  solve serves a layer's critical neurons in every domain of a bounding
  pass.  :func:`dual_ascent` is its one-box case and
  :func:`coordinate_ascent` its one-objective case.  The single-constraint
  solve is equivalent to a continuous knapsack problem, exposed through
  :func:`to_knapsack` / :func:`greedy_knapsack`.

* Relaxed clipping: shrink the box itself.  For one constraint the tightest
  axis-aligned enclosure of box-intersect-half-space has a closed form, one
  independent clip per coordinate.  Multiple constraints are applied either
  in parallel against the original box (:func:`relaxed_clip_batch`: one
  array expression over the constraints and coordinates of D domains;
  :func:`relaxed_clip_parallel` is its one-box case) or sequentially with
  recomputed centers (order-dependent, usually tighter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    ZERO_COEFF_TOL,
    BoxDomain,
    EmptyBoxError,
    FeasibilityStatus,
    GeometryError,
    LinearConstraint,
    classify_constraint,
)


class DualStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE_PRIMAL = "infeasible_primal"


@dataclass
class DualSolution:
    """Outcome of a dual bound-tightening solve.

    ``bound`` is a valid bound on the constrained optimum (exact for a
    single constraint; a lower bound of the constrained minimum otherwise).
    ``beta`` holds the multiplier(s).  ``INFEASIBLE_PRIMAL`` means some
    constraint excludes the whole box, i.e. the subproblem is vacuous; the
    bound is then +inf for minima (-inf for maxima).  ``trace`` records the
    dual objective after every multiplier update.
    """

    bound: float
    beta: float | np.ndarray
    status: DualStatus
    trace: list = field(default_factory=list)


@dataclass
class ConstraintSet:
    """Stacked half-spaces ``normals @ x + offsets <= 0`` (conjunction)."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=float)
        self.offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if self.normals.ndim == 1 and self.normals.size == 0:
            self.normals = self.normals.reshape(0, 1)
        if self.normals.ndim != 2:
            raise GeometryError("constraint normals must form a 2-D array")
        if self.offsets.shape != (self.normals.shape[0],):
            raise GeometryError("offsets length does not match constraint count")
        if self.normals.size and not np.isfinite(self.normals).all():
            raise GeometryError("constraint normals must be finite")
        if self.offsets.size and not np.isfinite(self.offsets).all():
            raise GeometryError("constraint offsets must be finite")

    @classmethod
    def empty(cls, dim: int) -> "ConstraintSet":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @classmethod
    def from_constraints(cls, constraints, dim: int | None = None) -> "ConstraintSet":
        constraints = list(constraints)
        if not constraints:
            if dim is None:
                raise GeometryError("cannot infer dimension of an empty set")
            return cls.empty(dim)
        return cls(
            np.stack([c.normal for c in constraints]),
            np.array([c.offset for c in constraints]),
        )

    @property
    def size(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def row(self, k: int) -> LinearConstraint:
        return LinearConstraint(self.normals[k], self.offsets[k])

    def __iter__(self):
        return (self.row(k) for k in range(self.size))

    def appended(self, cons: LinearConstraint, budget: int | None = None) -> "ConstraintSet":
        """New set with ``cons`` added, keeping only the most recent ``budget``."""
        normals = np.vstack([self.normals, cons.normal[None, :]]) if self.size else cons.normal[None, :].copy()
        offsets = np.append(self.offsets, cons.offset)
        if budget is not None and normals.shape[0] > budget:
            normals = normals[-budget:]
            offsets = offsets[-budget:]
        return ConstraintSet(normals, offsets)

    def satisfied(self, x: np.ndarray, tol: float = 0.0) -> bool:
        if self.size == 0:
            return True
        return bool(np.all(self.normals @ np.asarray(x, dtype=float) + self.offsets <= tol))


@dataclass
class KnapsackInstance:
    """Continuous knapsack ``max r . y  s.t.  s . y <= t,  y in [0, 1]^n``."""

    gains: np.ndarray
    loads: np.ndarray
    capacity: float

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        self.loads = np.asarray(self.loads, dtype=float)
        self.capacity = float(self.capacity)
        if self.gains.shape != self.loads.shape or self.gains.ndim != 1:
            raise GeometryError("gains and loads must be matching 1-D arrays")


def _dual_rows(objs, consts, centers, radii, normals, offsets, beta) -> np.ndarray:
    """:func:`dual_value` of every objective row of B domains at once.

    ``objs`` (B, K, n), ``consts`` (B, K), ``centers`` / ``radii`` (B, n),
    ``normals`` (B, M, n), ``offsets`` (B, M) and ``beta`` (B, K, M);
    returns (B, K).
    """
    shifted = objs + beta @ normals
    return (
        (shifted @ centers[..., None])[..., 0]
        - (np.abs(shifted) @ radii[..., None])[..., 0]
        + consts
        + (beta @ offsets[..., None])[..., 0]
    )


def dual_value(a, c, box: BoxDomain, cset: ConstraintSet, beta) -> float:
    """Lagrangian dual objective at multipliers ``beta`` (all >= 0).

    For the constrained minimum of ``a . x + c`` this is the box minimum of
    ``(a + beta @ G) . x + c + beta . h``; any nonnegative beta yields a
    valid lower bound of the constrained optimum.
    """
    a = np.asarray(a, dtype=float)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    value = _dual_rows(
        a[None, None], np.array([[float(c)]]), box.center[None], box.radius[None],
        cset.normals[None], cset.offsets[None], beta[None, None],
    )
    return float(value[0, 0])


def stack_constraints(csets) -> tuple:
    """Constraint sets of B domains as ``(B, M, n)`` normals and ``(B, M)``
    offsets, M the largest set.  Shorter sets are padded with the row
    ``0 . x + 0 <= 0``, which holds everywhere: :func:`screen_rows` finds it
    neither infeasible nor active, so it never takes part in a solve or a
    clip.  No padding is done when every set has M rows."""
    m = max(cset.size for cset in csets)
    if all(cset.size == m for cset in csets):
        return (
            np.array([cset.normals for cset in csets]),
            np.array([cset.offsets for cset in csets]),
        )
    normals = np.zeros((len(csets), m, csets[0].dim))
    offsets = np.zeros((len(csets), m))
    for b, cset in enumerate(csets):
        normals[b, : cset.size] = cset.normals
        offsets[b, : cset.size] = cset.offsets
    return normals, offsets


def screen_rows(centers, radii, normals, offsets) -> tuple:
    """Screen every constraint row of B domains against its domain's box.

    With boxes given by ``centers`` / ``radii`` (B, n) and constraints by
    ``normals`` (B, M, n) / ``offsets`` (B, M), returns ``(feasible,
    active)``: a (B,) mask of the domains no row excludes entirely, and a
    (B, M) mask of the rows not redundant for their box.  In a feasible
    domain, those are the rows that cut through the box (ACTIVE for
    :func:`classify_constraint`).
    """
    mid = (normals @ centers[..., None])[..., 0] + offsets
    span = (np.abs(normals) @ radii[..., None])[..., 0]
    return ~np.any(mid - span > 0.0, axis=1), mid + span > 0.0


def active_rows(box: BoxDomain, cset: ConstraintSet) -> np.ndarray | None:
    """Screen every row of ``cset`` against the box at once.

    Returns the indices (in stored order) of the rows that cut through the
    box, or None when some row excludes the whole box.  This is the one-box
    case of :func:`screen_rows`: the classification depends only on the
    box and the set, so one screen serves every objective solved against
    them.
    """
    if box.is_empty:
        raise EmptyBoxError("operation requires a nonempty box")
    if cset.dim != box.dim:
        raise GeometryError(f"dimension mismatch: box has {box.dim}, constraints {cset.dim}")
    feasible, active = screen_rows(
        box.center[None], box.radius[None], cset.normals[None], cset.offsets[None]
    )
    return np.flatnonzero(active[0]) if feasible[0] else None


def _line_search(rest: np.ndarray, centers, radii, g: np.ndarray, h) -> np.ndarray:
    """Maximizer of the concave 1-D dual along one constraint's multiplier,
    for each objective row ``rest[b, r]`` of each domain b (shape (B, K, n);
    domain b's box is ``centers[b]`` / ``radii[b]`` and its constraint
    ``g[b] . x + h[b] <= 0``).  Returns (B, K).

    The dual objective ``beta -> min_box (a + beta g) . x + beta h + const``
    is piecewise linear with kinks where a coordinate of ``a + beta g``
    changes sign, i.e. at ``beta = -a_j / g_j``.  Its slope on each piece is
    ``g . center + h`` minus/plus the half-width terms whose sign has
    settled, which decreases monotonically across sorted kinks; the maximum
    sits at the first kink where the slope becomes nonpositive.  The caller
    guarantees the constraint is ACTIVE for every domain's box, which makes
    the start slope positive and the end slope nonpositive.  A zero
    coefficient is a kink at +inf with zero span: it sorts after every real
    kink and leaves the slopes there unchanged, so it is never the maximizer.
    The kinks of all rows of all domains are sorted and walked together.
    """
    b, k, n = rest.shape
    nz = g != 0.0
    q = np.where(nz[:, None, :], -rest / np.where(nz, g, 1.0)[:, None, :], np.inf)
    order = np.argsort(q, axis=2, kind="stable")
    spans = (np.abs(g) * radii)[np.arange(b)[:, None, None], order]
    settled = np.cumsum(spans, axis=2)
    pending = settled[..., -1:] - settled
    slope_base = (g[:, None, :] @ centers[..., None])[:, 0] + h[:, None]
    grads = slope_base[..., None] + pending - settled
    rows = np.arange(b * k)
    first = order.reshape(-1, n)[rows, np.argmax(grads <= 0.0, axis=2).ravel()]
    return np.maximum(q.reshape(-1, n)[rows, first], 0.0).reshape(b, k)


def dual_ascent_batch(objs, consts, centers, radii, normals, offsets, active, passes: int = 1,
                      trace: list | None = None):
    """Coordinate ascent on the duals of K objectives in each of B domains.

    Row r of domain b lower-bounds ``objs[b, r] . x + consts[b, r]`` over
    domain b's box (``centers[b]`` / ``radii[b]``) intersect its half-spaces
    ``normals[b] @ x + offsets[b] <= 0``, exactly as
    :func:`coordinate_ascent` does for one objective.  Each pass visits the
    constraint rows in stored order and re-solves one multiplier's line
    search for every objective of every domain in which that row is
    ``active`` (a (B, M) mask from :func:`screen_rows`, whose domains must
    all be feasible), with the other multipliers fixed.  Rows that are not
    active, padding included, keep multiplier zero and never reach the line
    search.  Objectives and domains never interact.  The dual objective is
    evaluated once, at the end; when ``trace`` is a list, the (B, K) dual
    values are also appended before the first update and after every
    constraint row's update (the last entry equals the returned bounds).
    Returns ``(bounds, beta)`` with shapes (B, K) and (B, K, M).
    """
    objs = np.asarray(objs, dtype=float)
    consts = np.asarray(consts, dtype=float)
    beta = np.zeros(objs.shape[:2] + (normals.shape[1],))

    def value():
        return _dual_rows(objs, consts, centers, radii, normals, offsets, beta)

    if trace is not None:
        trace.append(value())
    for _ in range(passes):
        for k in np.flatnonzero(active.any(axis=0)):
            b = slice(None) if active[:, k].all() else np.flatnonzero(active[:, k])
            g = normals[b, k]
            rest = objs[b] + beta[b] @ normals[b] - beta[b, :, k : k + 1] * g[:, None, :]
            beta[b, :, k] = _line_search(rest, centers[b], radii[b], g, offsets[b, k])
            if trace is not None:
                trace.append(value())
    return value(), beta


def dual_ascent(objs, consts, box: BoxDomain, cset: ConstraintSet, active, passes: int = 1,
                trace: list | None = None):
    """Coordinate ascent on the duals of K objectives over one box: the
    B = 1 case of :func:`dual_ascent_batch`.

    ``active`` lists the rows of ``cset`` that cut through the box, as
    returned by :func:`active_rows`; the others keep multiplier zero.
    ``trace`` receives K-vectors.  Returns ``(bounds, beta)`` with shapes
    (K,) and (K, m).
    """
    objs = np.asarray(objs, dtype=float)
    mask = np.zeros((1, cset.size), dtype=bool)
    mask[0, active] = True
    steps = [] if trace is not None else None
    bounds, beta = dual_ascent_batch(
        objs[None], np.asarray(consts, dtype=float)[None], box.center[None], box.radius[None],
        cset.normals[None], cset.offsets[None], mask, passes, steps,
    )
    if trace is not None:
        trace.extend(step[0] for step in steps)
    return bounds[0], beta[0]


def tighten_lower_single(a, c, box: BoxDomain, cons: LinearConstraint) -> DualSolution:
    """Exact lower bound of ``a . x + c`` over box intersect one half-space.

    Solves the single-multiplier dual to optimality, which by strong duality
    (linear program over a compact box) equals the true constrained minimum.
    A constraint infeasible for the box yields ``INFEASIBLE_PRIMAL`` with a
    +inf bound (minimum over an empty set); a redundant one collapses to the
    plain box minimum at multiplier zero.
    """
    a = np.asarray(a, dtype=float)
    cset = ConstraintSet(cons.normal[None, :], np.array([cons.offset]))
    status = classify_constraint(box, cons)
    if status is FeasibilityStatus.INFEASIBLE:
        return DualSolution(np.inf, np.inf, DualStatus.INFEASIBLE_PRIMAL, [np.inf])
    if status is FeasibilityStatus.REDUNDANT:
        bound = dual_value(a, c, box, cset, 0.0)
        return DualSolution(bound, 0.0, DualStatus.OPTIMAL, [bound])
    beta = float(
        _line_search(
            a[None, None], box.center[None], box.radius[None], cons.normal[None],
            np.array([cons.offset]),
        )[0, 0]
    )
    bound = dual_value(a, c, box, cset, beta)
    return DualSolution(bound, beta, DualStatus.OPTIMAL, [bound])


def tighten_upper_single(a, c, box: BoxDomain, cons: LinearConstraint) -> DualSolution:
    """Exact upper counterpart: max over box intersect one half-space."""
    sol = tighten_lower_single(-np.asarray(a, dtype=float), -float(c), box, cons)
    return DualSolution(-sol.bound, sol.beta, sol.status, [-v for v in sol.trace])


def coordinate_ascent(a, c, box: BoxDomain, cset: ConstraintSet, passes: int = 1) -> DualSolution:
    """Lower-bound ``a . x + c`` over box intersect several half-spaces.

    Cycles over the constraints, solving each multiplier's 1-D dual exactly
    while the others stay fixed (the current multiplier's own contribution
    is removed from the effective objective before its line search).  Every
    update can only raise the concave dual objective, so the result is a
    monotone sequence of valid lower bounds; with one constraint and one
    pass it reproduces :func:`tighten_lower_single`.  This is the one-row
    case of :func:`dual_ascent`, with the dual value after every update
    kept in ``trace``.

    Constraints redundant for the box keep multiplier zero.  Any constraint
    infeasible for the box on its own makes the subproblem vacuous and
    short-circuits to ``INFEASIBLE_PRIMAL``.
    """
    a = np.asarray(a, dtype=float)
    if passes < 1:
        raise ValueError("passes must be at least 1")
    active = active_rows(box, cset)
    if active is None:
        return DualSolution(
            np.inf, np.full(cset.size, np.inf), DualStatus.INFEASIBLE_PRIMAL, [np.inf]
        )
    trace = []
    bounds, beta = dual_ascent(a[None, :], [float(c)], box, cset, active, passes, trace)
    return DualSolution(float(bounds[0]), beta[0], DualStatus.OPTIMAL, [float(t[0]) for t in trace])


def to_knapsack(a, c, box: BoxDomain, cons: LinearConstraint) -> KnapsackInstance:
    """Rewrite the single-constraint minimum as a continuous knapsack.

    Substituting ``x = lower + 2 * radius * y`` with ``y in [0, 1]^n`` turns
    ``min a . x + c`` subject to ``g . x + h <= 0`` into ``a . lower + c -
    max r . y`` subject to ``s . y <= t`` with the returned coefficients.
    The greedy efficiency ratios ``r_j / s_j`` coincide with the kink
    locations of the dual line search.
    """
    a = np.asarray(a, dtype=float)
    if box.is_empty:
        raise GeometryError("knapsack reformulation requires a nonempty box")
    if a.shape != (box.dim,) or cons.dim != box.dim:
        raise GeometryError("dimension mismatch in knapsack reformulation")
    two_radius = 2.0 * box.radius
    gains = -two_radius * a
    loads = two_radius * cons.normal
    capacity = -(float(cons.normal @ box.lower) + cons.offset)
    return KnapsackInstance(gains, loads, capacity)


def greedy_knapsack(inst: KnapsackInstance) -> float:
    """Optimal value of a continuous knapsack with arbitrary-sign data.

    Start from the unconstrained maximizer (pick everything with positive
    gain), then, if the load exceeds capacity, buy back slack from the
    cheapest sources first: fractionally drop picked items with positive
    load, or fractionally add unpicked items with negative load.  Both move
    types cost ``gain / load`` per unit of slack, so one ascending sweep by
    that ratio is optimal.  Returns -inf when no assignment fits.
    """
    gains, loads, capacity = inst.gains, inst.loads, inst.capacity
    picked = gains > 0.0
    value = float(gains[picked].sum())
    load = float(loads[picked].sum())
    if load <= capacity:
        return value
    drop = picked & (loads > 0.0)
    add = ~picked & (loads < 0.0)
    excess = load - capacity
    # The deepest reachable load keeps only the negative-load items, so
    # infeasibility is decided up front rather than by loop fallthrough.
    if float(np.minimum(loads, 0.0).sum()) > capacity:
        return -np.inf
    idx = np.flatnonzero(drop | add)
    ratios = gains[idx] / loads[idx]
    order = idx[np.argsort(ratios, kind="stable")]
    for j in order:
        relief = abs(float(loads[j]))
        # Dropping a picked item loses its gain; adding an unpicked one
        # loses |gain| too (the gain is nonpositive).
        if excess <= relief:
            value -= (excess / relief) * abs(float(gains[j]))
            return value
        value -= abs(float(gains[j]))
        excess -= relief
    return value


def relaxed_clip_single(box: BoxDomain, cons: LinearConstraint) -> BoxDomain:
    """Tightest axis-aligned enclosure of box intersect one half-space.

    Per coordinate i with a nonzero coefficient, the extreme value of x_i
    over the intersection is reached when every other coordinate sits at its
    constraint-friendliest corner; solving ``g . x + h = 0`` there gives the
    clip level ``(-sum_{j != i} (g_j * center_j - |g_j| * radius_j) - h) /
    g_i``, an upper bound for ``g_i > 0`` and a lower bound for ``g_i < 0``.
    Zero coefficients leave their coordinate untouched.  The result can be
    empty; a constraint infeasible for the box always yields an empty box.
    """
    if box.is_empty:
        return box
    if cons.dim != box.dim:
        raise GeometryError("constraint dimension does not match box")
    status = classify_constraint(box, cons)
    if status is FeasibilityStatus.INFEASIBLE:
        return BoxDomain.empty(box.dim)
    if status is FeasibilityStatus.REDUNDANT:
        return box.copy()
    g = cons.normal
    terms = g * box.center - np.abs(g) * box.radius
    total = float(terms.sum())
    lower = box.lower.copy()
    upper = box.upper.copy()
    for i in range(box.dim):
        if abs(g[i]) < ZERO_COEFF_TOL:
            continue
        clip = (-(total - terms[i]) - cons.offset) / g[i]
        if g[i] > 0.0:
            upper[i] = min(upper[i], clip)
        else:
            lower[i] = max(lower[i], clip)
    return BoxDomain(lower, upper)


def relaxed_clip_batch(lowers, uppers, normals, offsets) -> tuple:
    """Every constraint's closed-form clip against its domain's box, for D
    domains at once.

    Boxes are ``lowers`` / ``uppers`` (D, n), constraints ``normals`` (D, M,
    n) / ``offsets`` (D, M) (see :func:`stack_constraints`).  For each
    domain this is the per-coordinate intersection of all its
    single-constraint results (:func:`relaxed_clip_single`), so the outcome
    does not depend on constraint order; all clips are one (D, M, n) array
    expression.  Rows that do not cut through their box leave it as it is.
    Returns the clipped ``(lowers, uppers)`` and a (D,) mask of the domains
    whose result is empty (their rows of the corners are then meaningless).
    """
    centers = 0.5 * (lowers + uppers)
    radii = 0.5 * (uppers - lowers)
    feasible, active = screen_rows(centers, radii, normals, offsets)
    g = normals
    terms = g * centers[:, None, :] - np.abs(g) * radii[:, None, :]
    rest = terms.sum(axis=2, keepdims=True) - terms
    usable = active[..., None] & (np.abs(g) >= ZERO_COEFF_TOL)
    clip = (-rest - offsets[..., None]) / np.where(usable, g, 1.0)
    caps = np.where(usable & (g > 0.0), clip, np.inf)
    floors = np.where(usable & (g < 0.0), clip, -np.inf)
    upper = np.minimum(uppers, caps.min(axis=1, initial=np.inf))
    lower = np.maximum(lowers, floors.max(axis=1, initial=-np.inf))
    return lower, upper, ~feasible | np.any(lower > upper, axis=1)


def relaxed_clip_parallel(box: BoxDomain, cset: ConstraintSet) -> BoxDomain:
    """Apply every constraint's closed-form clip against the original box:
    the one-box case of :func:`relaxed_clip_batch`.

    An empty result is returned as the canonical empty box.
    """
    if box.is_empty or cset.size == 0:
        return box.copy()
    if cset.dim != box.dim:
        raise GeometryError(f"dimension mismatch: box has {box.dim}, constraints {cset.dim}")
    lower, upper, empty = relaxed_clip_batch(
        box.lower[None], box.upper[None], cset.normals[None], cset.offsets[None]
    )
    if empty[0]:
        return BoxDomain.empty(box.dim)
    return BoxDomain(lower[0], upper[0])


def relaxed_clip_sequential(box: BoxDomain, cset: ConstraintSet, order: str = "given") -> BoxDomain:
    """Apply the constraints one at a time, re-centering after each clip.

    Later constraints see the already-shrunk box, so the result depends on
    the processing order and is never looser than the parallel variant on
    the same set.  ``order="given"`` keeps the stored order;
    ``order="centroid"`` sorts by ascending distance between the initial box
    center and each constraint plane (zero-normal rows go last).

    The result equals the chain of :func:`relaxed_clip_single` calls in
    that order, bit for bit, computed on the corner arrays without building
    a box or a constraint per row.
    """
    if order not in ("given", "centroid"):
        raise GeometryError(f"unknown order {order!r}")
    if box.is_empty or cset.size == 0:
        return box.copy()
    if cset.dim != box.dim:
        raise GeometryError("constraint dimension does not match box")
    indices = range(cset.size)
    if order == "centroid":
        center = box.center
        dists = [
            np.inf
            if np.abs(g).max(initial=0.0) <= ZERO_COEFF_TOL
            # centroid_distance, without its per-row checks
            else abs(float(g @ center) + h) / float(np.linalg.norm(g))
            for g, h in zip(cset.normals, cset.offsets.tolist())
        ]
        indices = np.argsort(np.asarray(dists), kind="stable")
    lower, upper = box.lower.copy(), box.upper.copy()
    for k in indices:
        g, h = cset.normals[k], float(cset.offsets[k])
        center, radius = 0.5 * (lower + upper), 0.5 * (upper - lower)
        # classify_constraint: an infeasible row empties the box, a
        # redundant one leaves it as it is
        mid = float(g @ center) + h
        span = float(np.abs(g) @ radius)
        if mid - span > 0.0:
            return BoxDomain.empty(box.dim)
        if mid + span <= 0.0:
            continue
        # relaxed_clip_single, every coordinate at once
        terms = g * center - np.abs(g) * radius
        usable = np.abs(g) >= ZERO_COEFF_TOL
        clip = (-(float(terms.sum()) - terms) - h) / np.where(usable, g, 1.0)
        upper = np.where(usable & (g > 0.0) & (clip < upper), clip, upper)
        lower = np.where(usable & (g < 0.0) & (clip > lower), clip, lower)
        if np.any(lower > upper):
            return BoxDomain.empty(box.dim)
    return BoxDomain(lower, upper)
