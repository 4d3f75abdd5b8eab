"""Branch and bound coupling bound propagation with clipping.

One search loop (:func:`run_bab`) serves both refinement strategies over
the canonical problem "every output row nonnegative over the box".  They
differ only in how a subdomain branches (:func:`_branch`):

* input splitting: bisect the widest box coordinate.  A bounding pass
  leaves behind the final-layer lower planes of the rows it could not
  verify; where such a plane is negative is the only part of the
  subdomain that can still hide a counterexample, so the plane of a lone
  open row is added to the children's constraints.

* activation splitting: pin the unstable ReLU with the highest branching
  score to each of its two sides (bisect when none is left).  Every pin
  yields a sound input-space half-space from the neuron's planes.

Either way the constraints feed the same clipping.  The root is bounded
first.  Then each round pops up to ``cfg.batch`` subdomains, worst bound
first, evaluates point boxes exactly and branches the rest.  Each child
is screened, in this order:

1. relaxed clipping of its box against its constraints (an empty box
   closes it);
2. its parent's final planes over the clipped box (a bound >= 0 closes
   it);
3. a few sampled points, any of which may falsify the problem.

The round's surviving children are bounded in one pass of
:func:`bound_batch`, with complete clipping inside each one's refine
hook; a child whose bound reaches 0 is closed and the others are queued.
The deadline is checked between rounds.  Candidate counterexamples are
checked by exact forward evaluation, so a "falsified" verdict is always
certified.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

import numpy as np

from .clipping import (  # noqa: F401  (coordinate_ascent: patch point for tracers)
    ConstraintSet,
    active_rows,
    coordinate_ascent,
    dual_ascent,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
)
from .crown import (  # noqa: F401  (compute_bounds: patch point for tracers)
    AlphaPolicy,
    BoundingPlanes,
    BoundsResult,
    InfeasibleSplitError,
    bound_batch,
    compute_bounds,
    stack_overrides,
    stack_splits,
)
from .geometry import BoxDomain, LinearConstraint
from .network import CanonicalProblem

# Input-space constraints kept per subdomain, split constraints in activation
# mode and harvested final planes in input mode (most recent win).  Dropping
# old constraints only loosens bounds, and it caps the dual cost per node.
CONSTRAINT_BUDGET = 16
# Random points (plus the center) evaluated per surviving child domain.
FALSIFY_SAMPLES = 8
# Boxes narrower than this in every coordinate are treated as points.
POINT_RADIUS_TOL = 1e-14


@dataclass(frozen=True)
class SplitAssignment:
    """One ReLU pin: neuron (layer, index) forced to a side of zero.

    Polarity +1 keeps the active side (pre-activation >= 0), -1 the
    inactive side.
    """

    layer: int
    neuron: int
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be +1 or -1")


@dataclass
class BabConfig:
    mode: str = "input"  # "input" | "activation"
    clip: str = "both"  # "none" | "relaxed" | "complete" | "both"
    sequential_clip: bool = False
    reorder: bool = False
    topk: int = 20
    batch: int = 8
    passes: int = 1
    timeout: float = 60.0
    alpha: AlphaPolicy = field(default_factory=AlphaPolicy.fixed)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("input", "activation"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.clip not in ("none", "relaxed", "complete", "both"):
            raise ValueError(f"unknown clip setting {self.clip!r}")
        if self.topk < 1 or self.batch < 1 or self.passes < 1:
            raise ValueError("topk, batch and passes must be positive")
        if self.timeout < 0:
            raise ValueError("timeout must be nonnegative")


@dataclass
class Subdomain:
    """One open region of the search: a box plus everything known about it.

    ``splits`` maps (layer, neuron) to the pinned polarity.  ``constraints``
    are input-space half-spaces valid for any counterexample inside the box.
    ``planes`` caches the most recent bounding pass touching this region
    (the parent's until the node is bounded itself).  ``overrides`` carries
    accumulated neuron-interval tightenings (NaN entries mean untouched).
    """

    box: BoxDomain
    splits: dict
    constraints: ConstraintSet
    bound: float
    depth: int = 0
    planes: BoundsResult | None = None
    overrides: list | None = None
    path: tuple = ()


@dataclass
class BabStats:
    domains_visited: int = 0
    max_depth: int = 0
    wall_time: float = 0.0
    bound_history: list = field(default_factory=list)


@dataclass
class VerificationOutcome:
    status: str  # "verified" | "falsified" | "unknown"
    counterexample: np.ndarray | None
    value: float | None
    bound: float | None
    stats: BabStats


@dataclass
class BranchProbe:
    """Test instrumentation: record or replay branching decisions.

    ``decisions`` maps a node's path (tuple of child indices from the root)
    to the branching choice taken there; input mode records the cut as a
    (dimension, coordinate) pair.  ``intervals`` maps paths to the
    per-layer (lower, upper) bound arrays seen when the node was bounded.
    When ``replay`` is set, input-mode runs take the recorded cut instead
    of their own choice wherever the path is present, so two runs explore
    nested regions and their bounds become directly comparable.
    """

    replay: dict | None = None
    decisions: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)

    def record_bounds(self, path, res: BoundsResult):
        self.intervals[path] = [
            (lb.lower.copy(), lb.upper.copy()) for lb in res.layer_bounds
        ]


def babsr_intercept_score(lower, upper, mean_coeff) -> np.ndarray:
    """Branching priority of each neuron in a layer.

    Estimates how much of the relaxation's slack at a neuron the final
    objective actually feels: the upper-envelope intercept ``max(0, -l) *
    max(0, u) / (u - l)`` weighted by the (clamped) mean backward
    coefficient the objective places on the neuron.  Stable neurons and
    zero-width intervals score zero.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if mean_coeff is None:
        mean_coeff = np.zeros_like(lower)
    mean_coeff = np.asarray(mean_coeff, dtype=float)
    width = upper - lower
    safe = np.where(width > 0.0, width, 1.0)
    intercept = np.maximum(0.0, -lower) * np.maximum(0.0, upper) / safe
    score = intercept * np.maximum(0.0, -mean_coeff)
    return np.where(width > 0.0, score, 0.0)


def select_topk(scores: np.ndarray, k: int, eligible=None) -> np.ndarray:
    """Indices of the k best-scoring eligible neurons, ties to lower index."""
    scores = np.asarray(scores, dtype=float)
    idx = np.arange(scores.size) if eligible is None else np.flatnonzero(eligible)
    if idx.size == 0 or k <= 0:
        return np.zeros(0, dtype=int)
    order = idx[np.lexsort((idx, -scores[idx]))]
    return order[: min(k, order.size)]


def final_plane_to_constraint(planes: BoundingPlanes, row: int) -> LinearConstraint:
    """Half-space containing every point where an output row can be negative.

    The row's lower plane satisfies ``plane(x) <= row(x)``, so ``row(x) < 0``
    forces ``plane(x) < 0``; the returned constraint ``plane(x) <= 0`` keeps
    all potential counterexamples of that row.
    """
    return LinearConstraint(planes.a_low[row].copy(), float(planes.c_low[row]))


def split_constraint_to_input(planes: BoundingPlanes, assignment: SplitAssignment) -> LinearConstraint:
    """Sound input-space condition implied by a ReLU pin.

    Pinning active means the pre-activation is >= 0, which its cached upper
    plane must allow; pinning inactive likewise needs the lower plane <= 0.
    Both are necessary conditions, so clipping with them never removes a
    point of the pinned region.
    """
    j = assignment.neuron
    if assignment.polarity > 0:
        return LinearConstraint(-planes.a_up[j].copy(), -float(planes.c_up[j]))
    return LinearConstraint(planes.a_low[j].copy(), float(planes.c_low[j]))


def branch_input(sub: Subdomain, dim: int | None = None, at: float | None = None):
    """Bisect the box along ``dim`` (default: widest, ties to lowest index)
    at ``at`` (default: the midpoint, clamped into the box when given).

    Children inherit splits, constraints, cached planes and overrides.
    """
    radius = sub.box.radius
    if float(radius.max()) <= 0.0:
        raise ValueError("cannot branch a zero-volume box")
    if dim is None:
        dim = int(np.argmax(radius))
    if at is None:
        mid = float(sub.box.center[dim])
    else:
        mid = float(min(max(at, sub.box.lower[dim]), sub.box.upper[dim]))
    lo_box = sub.box.copy()
    lo_box.upper[dim] = mid
    hi_box = sub.box.copy()
    hi_box.lower[dim] = mid
    children = []
    for side, box in enumerate((lo_box, hi_box)):
        children.append(
            replace(
                sub,
                box=box,
                splits=dict(sub.splits),
                depth=sub.depth + 1,
                path=sub.path + (side,),
            )
        )
    return children[0], children[1], (dim, mid)


def branch_activation(sub: Subdomain, pick: tuple):
    """Split a subdomain on one unstable neuron; returns (active, inactive).

    Each child pins the neuron to one side, records the pin in ``splits``
    and appends the implied input half-space (from the subdomain's cached
    planes) to its constraint set under the recency budget.
    """
    layer, neuron = pick
    if (layer, neuron) in sub.splits:
        raise ValueError(f"neuron ({layer}, {neuron}) is already assigned")
    if sub.planes is None:
        raise ValueError("subdomain has no cached bounding planes to split with")
    lb = sub.planes.layer_bounds[layer]
    if not (lb.lower[neuron] < 0.0 < lb.upper[neuron]):
        raise ValueError(f"neuron ({layer}, {neuron}) is not unstable here")
    children = []
    for side, polarity in enumerate((1, -1)):
        assignment = SplitAssignment(layer, neuron, polarity)
        cons = split_constraint_to_input(sub.planes.planes[layer], assignment)
        children.append(
            replace(
                sub,
                splits={**sub.splits, (layer, neuron): polarity},
                constraints=sub.constraints.appended(cons, budget=CONSTRAINT_BUDGET),
                depth=sub.depth + 1,
                path=sub.path + (side,),
            )
        )
    return children[0], children[1]


def _branch_scores(info: BoundsResult, splits: dict) -> list:
    """BaBSR score of every hidden neuron, one array per layer, with -inf
    wherever the neuron is stable or already assigned a side."""
    scores = []
    for lb, coeff in zip(info.layer_bounds[:-1], info.objective_coeffs):
        unstable = (lb.lower < 0.0) & (lb.upper > 0.0)
        score = babsr_intercept_score(lb.lower, lb.upper, coeff)
        scores.append(np.where(unstable, score, -np.inf))
    for li, j in splits:
        scores[li][j] = -np.inf
    return scores


def _critical_neurons(cfg: BabConfig, info: BoundsResult | None, splits: dict):
    """Top-k unstable, unassigned neurons per layer by branching score."""
    if info is None:
        return {}
    out = {}
    for i, scores in enumerate(_branch_scores(info, splits)):
        idx = select_topk(scores, cfg.topk, scores > -np.inf)
        if idx.size:
            out[i] = idx
    return out


def _clip_hook(problem, cfg: BabConfig, box, splits, cset: ConstraintSet, score_info, refinements: dict):
    """Refine hook running complete clipping over one region, or None.

    When complete clipping is enabled and constraints exist, each layer's
    freshly computed bounds are tightened for the critical neurons before
    the layer's relaxation is built (the final layer tightens its
    still-unverified rows).  The constraints are screened against the box
    once; each layer then runs one batched dual ascent over the lower
    objectives and the negated upper objectives of all its critical
    neurons.  The per-layer refinements applied (NaN = none) are stored in
    ``refinements``.  The hook raises InfeasibleSplitError when the region
    is provably empty, at the first layer with neurons to refine.
    """
    if cfg.clip not in ("complete", "both") or not cset.size:
        return None
    last = problem.model.num_layers - 1
    criticals = _critical_neurons(cfg, score_info, splits)
    active = active_rows(box, cset)

    def refine(i, planes, lower, upper):
        if i == last:
            idxs = np.flatnonzero(lower < 0.0)
        else:
            idxs = criticals.get(i, np.zeros(0, dtype=int))
        if idxs.size == 0:
            return lower, upper
        if active is None:
            raise InfeasibleSplitError("constraints exclude the whole box")
        objs, consts = planes.a_low[idxs], planes.c_low[idxs]
        if i != last:
            objs = np.vstack([objs, -planes.a_up[idxs]])
            consts = np.concatenate([consts, -planes.c_up[idxs]])
        bounds, _ = dual_ascent(objs, consts, box, cset, active, cfg.passes)
        lower = lower.copy()
        upper = upper.copy()
        lo_ref = np.full(lower.size, np.nan)
        hi_ref = np.full(upper.size, np.nan)
        new_lo = bounds[: idxs.size]
        rise = new_lo > lower[idxs]
        lower[idxs[rise]] = lo_ref[idxs[rise]] = new_lo[rise]
        if i != last:
            new_up = -bounds[idxs.size :]
            drop = new_up < upper[idxs]
            upper[idxs[drop]] = hi_ref[idxs[drop]] = new_up[drop]
        refinements[i] = (lo_ref, hi_ref)
        return lower, upper

    return refine


def _bound_nodes(problem, cfg: BabConfig, subs) -> list:
    """Bound a batch of regions in one pass, with in-pass complete clipping.

    Each subdomain contributes its box, splits, constraints and overrides;
    its cached planes (its parent's) pick the critical neurons that its
    refine hook (:func:`_clip_hook`) tightens.  Returns, per subdomain, the
    pass result plus the per-layer refinements applied, or None when the
    region is provably empty.
    """
    if not subs:
        return []
    model = problem.model
    refinements = [{} for _ in subs]
    hooks = [
        _clip_hook(problem, cfg, sub.box, sub.splits, sub.constraints, sub.planes, ref)
        for sub, ref in zip(subs, refinements)
    ]
    results = bound_batch(
        model,
        np.stack([sub.box.lower for sub in subs]),
        np.stack([sub.box.upper for sub in subs]),
        cfg.alpha,
        stack_splits(model, [sub.splits for sub in subs]),
        stack_overrides(model, [sub.overrides for sub in subs]),
        hooks,
    )
    return [None if res is None else (res, ref) for res, ref in zip(results, refinements)]


def _merge_overrides(base, refinements, n_layers: int):
    """Fold refinement arrays into an override list (NaN entries inert)."""
    if not refinements:
        return base
    merged = list(base) if base is not None else [None] * n_layers
    while len(merged) < n_layers:
        merged.append(None)
    for i, (lo_ref, hi_ref) in refinements.items():
        if np.all(np.isnan(lo_ref)) and np.all(np.isnan(hi_ref)):
            continue
        if merged[i] is None:
            merged[i] = (lo_ref, hi_ref)
        else:
            old_lo, old_hi = merged[i]
            new_lo = lo_ref if old_lo is None else np.fmax(old_lo, lo_ref)
            new_hi = hi_ref if old_hi is None else np.fmin(old_hi, hi_ref)
            merged[i] = (new_lo, new_hi)
    return merged


def _clip_box(cfg: BabConfig, box: BoxDomain, cset: ConstraintSet) -> BoxDomain:
    if cfg.clip not in ("relaxed", "both") or cset.size == 0 or box.is_empty:
        return box
    if cfg.sequential_clip:
        return relaxed_clip_sequential(box, cset, "centroid" if cfg.reorder else "given")
    return relaxed_clip_parallel(box, cset)


def _try_falsify(problem: CanonicalProblem, box: BoxDomain, rng) -> tuple | None:
    """Evaluate the center plus a few random points; certify any hit."""
    pts = box.center[None, :]
    if float(box.radius.max()) > 0.0:
        pts = np.vstack(
            [pts, rng.uniform(box.lower, box.upper, size=(FALSIFY_SAMPLES, box.dim))]
        )
    vals = problem.model.evaluate(pts).min(axis=1)
    j = int(np.argmin(vals))
    if vals[j] < 0.0:
        return float(vals[j]), pts[j].copy()
    return None


def _quick_child_bound(planes: BoundingPlanes, box: BoxDomain) -> float:
    """Cheapest sound bound for a child: parent planes over the child box."""
    mid = planes.a_low @ box.center + planes.c_low
    span = np.abs(planes.a_low) @ box.radius
    return float((mid - span).min())


def _outcome(status, stats, t0, counterexample=None, value=None, bound=None):
    stats.wall_time = time.perf_counter() - t0
    return VerificationOutcome(status, counterexample, value, bound, stats)


def _pick_branch_neuron(sub: Subdomain):
    """Highest-scoring unstable, unassigned neuron; ties to lowest (layer, j)."""
    if sub.planes is None:
        return None
    scores = _branch_scores(sub.planes, sub.splits)
    flat = np.concatenate(scores) if scores else np.zeros(0)
    if flat.size == 0 or flat.max() == -np.inf:
        return None
    k = int(np.argmax(flat))
    ends = np.cumsum([s.size for s in scores])
    layer = int(np.searchsorted(ends, k, side="right"))
    return layer, k - int(ends[layer] - scores[layer].size)


def _branch(cfg: BabConfig, sub: Subdomain, probe: BranchProbe | None):
    """Split a bounded, open subdomain in two: the only step of the search
    that depends on the mode.  Returns the decision and the two children.

    Input mode bisects, or takes the cut ``probe.replay`` recorded for this
    path.  Before that it harvests the final plane of a lone open row: with
    several rows open their half-spaces may not be stacked (a point can
    violate one row while clearing another).  Activation mode pins the
    best-scoring unstable neuron and bisects when none is left.
    """
    if cfg.mode == "activation":
        pick = _pick_branch_neuron(sub)
        if pick is not None:
            return pick, branch_activation(sub, pick)
        lo_child, hi_child, cut = branch_input(sub)
        return ("input",) + cut, (lo_child, hi_child)
    unverified = np.flatnonzero(sub.planes.final_lower < 0.0)
    if unverified.size == 1:
        harvested = final_plane_to_constraint(sub.planes.planes[-1], int(unverified[0]))
        sub = replace(
            sub, constraints=sub.constraints.appended(harvested, budget=CONSTRAINT_BUDGET)
        )
    dim = at = None
    if probe is not None and probe.replay is not None:
        dim, at = probe.replay.get(sub.path, (None, None))
    lo_child, hi_child, cut = branch_input(sub, dim, at)
    return cut, (lo_child, hi_child)


def run_bab(problem: CanonicalProblem, cfg: BabConfig, probe: BranchProbe | None = None) -> VerificationOutcome:
    """Verify ``problem`` by branch and bound (see module docstring).

    Returns "verified" once every subdomain is closed, "falsified" with a
    certified counterexample, or "unknown" at the deadline together with
    the lowest open bound.
    """
    t0 = time.perf_counter()
    deadline = t0 + cfg.timeout
    rng = np.random.default_rng(cfg.seed)
    stats = BabStats()
    heap = []
    tiebreak = itertools.count()
    verified_floor = np.inf  # lowest bound of a closed subdomain

    def settle(subs):
        """Bound subdomains in one pass; queue those still open."""
        nonlocal verified_floor
        for sub, outcome in zip(subs, _bound_nodes(problem, cfg, subs)):
            stats.domains_visited += 1
            stats.max_depth = max(stats.max_depth, sub.depth)
            if outcome is None:
                continue  # region proved empty: verified by infeasibility
            res, refinements = outcome
            if probe is not None:
                probe.record_bounds(sub.path, res)
            bound = max(sub.bound, float(res.final_lower.min()))
            if bound >= 0.0:
                verified_floor = min(verified_floor, bound)
                continue
            overrides = _merge_overrides(sub.overrides, refinements, problem.model.num_layers)
            sub = replace(sub, bound=bound, planes=res, overrides=overrides)
            heappush(heap, (bound, next(tiebreak), sub))

    if time.perf_counter() >= deadline:
        return _outcome("unknown", stats, t0)
    settle([Subdomain(problem.box, {}, ConstraintSet.empty(problem.box.dim), -np.inf)])
    while heap:
        if time.perf_counter() >= deadline:
            return _outcome("unknown", stats, t0, bound=float(heap[0][0]))
        batch = [heappop(heap)[2] for _ in range(min(cfg.batch, len(heap)))]
        children = []
        for sub in batch:
            if float(sub.box.radius.max()) < POINT_RADIUS_TOL:
                val = problem.value(sub.box.center)
                if val < 0.0:
                    return _outcome("falsified", stats, t0, sub.box.center.copy(), float(val))
                verified_floor = min(verified_floor, val)
                continue
            decision, pair = _branch(cfg, sub, probe)
            if probe is not None:
                probe.decisions[sub.path] = decision
            for child in pair:
                box = _clip_box(cfg, child.box, child.constraints)
                if box.is_empty:
                    continue  # verified by infeasibility
                bound = max(sub.bound, _quick_child_bound(sub.planes.planes[-1], box))
                if bound >= 0.0:
                    verified_floor = min(verified_floor, bound)
                    continue
                hit = _try_falsify(problem, box, rng)
                if hit is not None:
                    return _outcome("falsified", stats, t0, hit[1], hit[0])
                children.append(replace(child, box=box, bound=bound))
        settle(children)
        if heap:
            stats.bound_history.append(float(heap[0][0]))
    bound = None if np.isinf(verified_floor) else float(verified_floor)
    return _outcome("verified", stats, t0, bound=bound)
