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
first.  Then each round:

1. pops up to ``cfg.batch`` subdomains, worst bound first, and evaluates
   point boxes exactly; the others are the round's parents;
2. scores the parents once, together (:func:`_branch_scores`), when
   branching or complete clipping needs the scores;
3. branches each parent in two;
4. screens the children together (:func:`_screen_children`), each by, in
   this order: relaxed clipping of its box against its constraints (an
   empty box closes it), its parent's final planes over the clipped box (a
   bound >= 0 closes it), and a few sampled points, any of which may
   falsify the problem (the first hit in search order wins).  Each screen
   is one array expression, draw or forward evaluation for all children;
5. bounds the survivors in one pass (:func:`crown.bound_pass`).  The clipped
   corners and constraint stacks the screen built go in as they are; so do
   the children's pins and overrides, stacked (see :class:`Subdomain`).
   Complete clipping runs inside the pass (:func:`_clip_refine`): each
   layer's critical neurons of all the children go to one batched dual
   ascent.  A child's critical neurons are its parent's best-scoring ones,
   its own pin left out.  The refine writes its tightenings into the
   pass's override stacks, whose rows become the children's overrides;
6. closes each child whose bound reaches 0 and queues the others, each
   with its own copy of what later rounds read of the pass.

The deadline is checked between rounds.  Candidate counterexamples are
checked by exact forward evaluation, so a "falsified" verdict is always
certified.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

import numpy as np

# coordinate_ascent, relaxed_clip_parallel and relaxed_clip_sequential are
# tracer patch points
from .clipping import (  # noqa: F401
    ConstraintSet,
    coordinate_ascent,
    dual_ascent_batch,
    relaxed_clip_batch,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
    relaxed_clip_sequential_batch,
    stack_constraints,
)
from .crown import (  # noqa: F401  (compute_bounds: patch point for tracers)
    AlphaPolicy,
    BoundingPlanes,
    BoundsResult,
    LayerBounds,
    bound_pass,
    compute_bounds,
)
from .geometry import LinearConstraint, box_range, screen_rows
from .network import CanonicalProblem

# Input-space constraints kept per subdomain, split constraints in activation
# mode and harvested final planes in input mode (most recent win).  Dropping
# old constraints only loosens bounds, and it caps the dual cost per node.
CONSTRAINT_BUDGET = 16
# Random points (plus the center) evaluated per surviving child domain.
FALSIFY_SAMPLES = 8
# Boxes narrower than this in every coordinate are treated as points.
POINT_RADIUS_TOL = 1e-14
# Values per block in which a pass's rows are gathered for the subdomains it
# queues (see _queued_state).  A pass whose rows all fit in one block is
# joined whole and then indexed: two numpy calls, where indexing each array
# first takes one per array (about 2% of a small-net search's CPU).  A
# larger pass is gathered in blocks of queued rows, so gathering holds at
# most two blocks (or rows) beyond the copies it keeps, and never copies a
# closed domain's rows.  32768 float64 values are 256 KiB, as for
# crown.WALK_BLOCK.
GATHER_BLOCK = 32768


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
        for name in ("topk", "batch", "passes", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.topk < 1 or self.batch < 1 or self.passes < 1:
            raise ValueError("topk, batch and passes must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.timeout >= 0:  # also rejects NaN, which would never expire
            raise ValueError("timeout must be nonnegative")


@dataclass
class Subdomain:
    """One open region of the search: a box plus everything known about it.

    Pins and overrides are kept in the per-domain form of the arguments
    :func:`bound_batch` takes, so a round only stacks them:

    * ``lower`` / ``upper``: the ``(n,)`` box corners;
    * ``forced``: per hidden layer, a ``(w_i,)`` int array of ReLU pins,
      +1 active, -1 inactive, 0 free;
    * ``overrides``: per layer, a ``(lower, upper)`` pair of ``(w_i,)``
      arrays of accumulated bound tightenings, NaN where there is none;
    * ``constraints``: input-space half-spaces valid for any
      counterexample inside the box;
    * ``planes``: the most recent bounding pass touching this region (the
      parent's until the node is bounded itself).  The search keeps only
      what later rounds read of it (see :func:`_queued_state`).

    Children share these arrays with their parent; none is ever modified
    in place.  A queued subdomain's corners, overrides and ``planes`` view
    one buffer of its own, filled from its bounding pass, so the pass's
    arrays are freed when the pass ends.
    """

    lower: np.ndarray
    upper: np.ndarray
    forced: list
    overrides: list
    constraints: ConstraintSet
    bound: float
    depth: int = 0
    planes: BoundsResult | None = None
    path: tuple = ()

    @classmethod
    def root(cls, problem: CanonicalProblem) -> "Subdomain":
        """The problem's whole box: nothing pinned, overridden or constrained."""
        layers = problem.model.layers
        return cls(
            problem.box.lower.copy(),
            problem.box.upper.copy(),
            [np.zeros(layer.out_dim, dtype=int) for layer in layers[:-1]],
            [(np.full(layer.out_dim, np.nan),) * 2 for layer in layers],
            ConstraintSet.empty(problem.box.dim),
            -np.inf,
        )


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

    def record_bounds(self, path, res: BoundsResult, b: int):
        """Record row ``b`` of the batch-form pass ``res`` (see
        :func:`crown.bound_pass`)."""
        self.intervals[path] = [
            (lb.lower[b].copy(), lb.upper[b].copy()) for lb in res.layer_bounds
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
    mean_coeff = np.asarray(mean_coeff, dtype=float)
    width = upper - lower
    safe = np.where(width > 0.0, width, 1.0)
    intercept = np.maximum(0.0, -lower) * np.maximum(0.0, upper) / safe
    score = intercept * np.maximum(0.0, -mean_coeff)
    return np.where(width > 0.0, score, 0.0)


def final_plane_to_constraint(planes: BoundingPlanes, row: int) -> LinearConstraint:
    """Half-space containing every point where an output row can be negative.

    The row's lower plane satisfies ``plane(x) <= row(x)``, so ``row(x) < 0``
    forces ``plane(x) < 0``; the returned constraint ``plane(x) <= 0`` keeps
    all potential counterexamples of that row.
    """
    return LinearConstraint(planes.a_low[row].copy(), float(planes.c_low[row]))


def split_constraint_to_input(planes: BoundingPlanes, neuron: int, polarity: int) -> LinearConstraint:
    """Sound input-space condition implied by pinning ``neuron`` of the
    layer ``planes`` describe to one side of zero.

    Polarity +1 pins the active side: the pre-activation is >= 0, which its
    cached upper plane must allow.  Polarity -1 pins the inactive side,
    which likewise needs the lower plane <= 0.  Both are necessary
    conditions, so clipping with them never removes a point of the pinned
    region.
    """
    if polarity > 0:
        return LinearConstraint(-planes.a_up[neuron].copy(), -float(planes.c_up[neuron]))
    return LinearConstraint(planes.a_low[neuron].copy(), float(planes.c_low[neuron]))


def branch_input(sub: Subdomain, dim: int | None = None, at: float | None = None):
    """Bisect the box along ``dim`` (default: widest, ties to lowest index)
    at ``at`` (default: the midpoint, clamped into the box when given).

    Children inherit pins, overrides, constraints and cached planes.
    """
    radius = 0.5 * (sub.upper - sub.lower)
    if float(radius.max()) <= 0.0:
        raise ValueError("cannot branch a zero-volume box")
    if dim is None:
        dim = int(np.argmax(radius))
    if at is None:
        mid = float(0.5 * (sub.lower[dim] + sub.upper[dim]))
    else:
        mid = float(min(max(at, sub.lower[dim]), sub.upper[dim]))
    lo_upper = sub.upper.copy()
    lo_upper[dim] = mid
    hi_lower = sub.lower.copy()
    hi_lower[dim] = mid
    depth = sub.depth + 1
    lo_child = replace(sub, upper=lo_upper, depth=depth, path=sub.path + (0,))
    hi_child = replace(sub, lower=hi_lower, depth=depth, path=sub.path + (1,))
    return lo_child, hi_child, (dim, mid)


def branch_activation(sub: Subdomain, pick: tuple):
    """Split a subdomain on one unstable neuron; returns (active, inactive).

    Each child pins the neuron to one side in ``forced``.  The input
    half-space a pin implies (:func:`split_constraint_to_input`) is added
    by the search, and only when clipping reads it.
    """
    layer, neuron = pick
    if sub.forced[layer][neuron] != 0:
        raise ValueError(f"neuron ({layer}, {neuron}) is already assigned")
    if sub.planes is None:
        raise ValueError("subdomain has no cached bounding planes to split with")
    lb = sub.planes.layer_bounds[layer]
    if not (lb.lower[neuron] < 0.0 < lb.upper[neuron]):
        raise ValueError(f"neuron ({layer}, {neuron}) is not unstable here")
    children = []
    for side, polarity in enumerate((1, -1)):
        forced = list(sub.forced)
        forced[layer] = forced[layer].copy()
        forced[layer][neuron] = polarity
        children.append(
            replace(sub, forced=forced, depth=sub.depth + 1, path=sub.path + (side,))
        )
    return children[0], children[1]


def _branch_scores(subs) -> list:
    """BaBSR score of every hidden neuron of the bounded subdomains
    ``subs``, one ``(B, w)`` array per hidden layer, with -inf wherever the
    neuron is stable or pinned."""
    scores = []
    for i in range(len(subs[0].forced)):
        lower = np.array([sub.planes.layer_bounds[i].lower for sub in subs])
        upper = np.array([sub.planes.layer_bounds[i].upper for sub in subs])
        coeff = np.array([sub.planes.objective_coeffs[i] for sub in subs])
        free = np.array([sub.forced[i] for sub in subs]) == 0
        unstable = (lower < 0.0) & (upper > 0.0) & free
        scores.append(np.where(unstable, babsr_intercept_score(lower, upper, coeff), -np.inf))
    return scores


def _critical_masks(cfg: BabConfig, scores) -> list:
    """Per hidden layer, a ``(B, w)`` mask of each domain's top-k neurons by
    branching score (ties to the lower index), leaving out those that score
    -inf (stable or pinned)."""
    masks = []
    for layer_scores in scores:
        if layer_scores.shape[1] <= cfg.topk:
            masks.append(layer_scores > -np.inf)
            continue
        top = np.argsort(-layer_scores, axis=1, kind="stable")[:, : cfg.topk]
        mask = np.zeros(layer_scores.shape, dtype=bool)
        finite = np.take_along_axis(layer_scores, top, axis=1) > -np.inf
        np.put_along_axis(mask, top, finite, axis=1)
        masks.append(mask)
    return masks


def _pick_branch_neurons(scores) -> list:
    """Each domain's highest-scoring unstable, unpinned neuron as
    ``(layer, index)``, ties to the lowest; None for a domain with none."""
    flat = np.concatenate(scores, axis=1)
    best = np.argmax(flat, axis=1)
    ends = np.cumsum([layer_scores.shape[1] for layer_scores in scores])
    picks = []
    for b, k in enumerate(best.tolist()):
        if flat[b, k] == -np.inf:
            picks.append(None)
            continue
        layer = int(np.searchsorted(ends, k, side="right"))
        picks.append((layer, k - int(ends[layer] - scores[layer].shape[1])))
    return picks


def _clip_refine(cfg: BabConfig, model, subs, lowers, uppers, stacks, scores, forced, overrides):
    """The refine of one bounding pass over ``subs`` (see
    :func:`bound_batch`), running complete clipping for all of them, or
    None when complete clipping is off or no subdomain has constraints
    (``stacks`` is None).

    ``lowers`` / ``uppers`` are the domains' ``(B, n)`` corners and
    ``stacks`` their constraint stacks (see :func:`stack_constraints`).
    ``scores`` are the branching scores of each domain's parent, one row
    per domain; with the domain's own pins (``forced``) left out they pick
    its critical neurons.  ``overrides`` are the pass's override stacks.

    Each layer's freshly computed bounds are tightened for every domain's
    critical neurons before the layer's relaxation is built; the final
    layer tightens each domain's still-unverified rows.  Each layer runs
    one batched dual ascent over the lower objectives and the negated
    upper objectives of the critical neurons of every alive domain with
    constraints.  Every tightening is also written into ``overrides``, so
    that after the pass its rows carry each domain's accumulated
    tightenings.  A domain whose constraints exclude its whole box is
    proven empty at the first layer where it has neurons to refine.
    """
    if cfg.clip not in ("complete", "both") or stacks is None:
        return None
    normals, offsets = stacks
    sizes = np.array([sub.constraints.size for sub in subs])
    last = model.num_layers - 1
    centers, radii = 0.5 * (lowers + uppers), 0.5 * (uppers - lowers)
    feasible, active = screen_rows(centers, radii, normals, offsets)
    critical = _critical_masks(
        cfg, [np.where(pins != 0, -np.inf, s) for pins, s in zip(forced, scores)]
    )

    def refine(i, planes, lower, upper, alive):
        crit = lower < 0.0 if i == last else critical[i]
        counts = crit.sum(axis=1)
        need = alive & (sizes > 0) & (counts > 0)
        doms = np.flatnonzero(need & feasible)
        if doms.size == 0:
            return lower, upper, need & ~feasible
        if doms.size == len(subs):
            doms = slice(None)
        counts = counts[doms]
        k = int(counts.max())
        # each domain's critical neurons first, in index order; the rest of
        # a row is padding, solved but left as it was
        idx = np.argsort(~crit[doms], axis=1, kind="stable")[:, :k]
        valid = np.arange(k) < counts[:, None]
        rows = np.arange(len(subs))[doms, None]
        objs, consts = planes.a_low[rows, idx], planes.c_low[rows, idx]
        if i != last:
            objs = np.concatenate([objs, -planes.a_up[rows, idx]], axis=1)
            consts = np.concatenate([consts, -planes.c_up[rows, idx]], axis=1)
        bounds, _ = dual_ascent_batch(
            objs, consts, centers[doms], radii[doms], normals[doms], offsets[doms],
            active[doms], cfg.passes,
        )
        # A raised bound exceeds the override it was computed under, so it
        # replaces that override; likewise for a lowered upper bound.
        ovr_lo, ovr_hi = overrides[i]
        lower = lower.copy()
        upper = upper.copy()
        old_lo = lower[rows, idx]
        rise = valid & (bounds[:, :k] > old_lo)
        lower[rows, idx] = np.where(rise, bounds[:, :k], old_lo)
        ovr_lo[rows, idx] = np.where(rise, bounds[:, :k], ovr_lo[rows, idx])
        if i != last:
            new_up, old_up = -bounds[:, k:], upper[rows, idx]
            drop = valid & (new_up < old_up)
            upper[rows, idx] = np.where(drop, new_up, old_up)
            ovr_hi[rows, idx] = np.where(drop, new_up, ovr_hi[rows, idx])
        return lower, upper, need & ~feasible

    return refine


def _sample_points(lowers, uppers, rng):
    """Each box's center followed by ``FALSIFY_SAMPLES`` uniform points,
    ``(S, 1 + FALSIFY_SAMPLES, n)``, and a mask of the boxes that drew them.

    One draw serves every box of positive radius, in order, with the same
    numbers as one draw per box; a box of zero radius draws nothing and its
    sample slots repeat its center.
    """
    pts = np.empty((lowers.shape[0], 1 + FALSIFY_SAMPLES, lowers.shape[1]))
    pts[:, :] = (0.5 * (lowers + uppers))[:, None]
    drew = (0.5 * (uppers - lowers)).max(axis=1) > 0.0
    if drew.any():
        wide = slice(None) if drew.all() else drew
        # Clipping can leave a coordinate at [0.0, -0.0], and rng.uniform
        # rejects the negative zero width; adding 0.0 turns -0.0 into 0.0
        # and leaves every other value as it is.
        pts[wide, 1:] = rng.uniform(
            lowers[wide, None] + 0.0, uppers[wide, None] + 0.0,
            size=(int(drew.sum()), FALSIFY_SAMPLES, lowers.shape[1]),
        )
    return pts, drew


def _falsify_boxes(problem: CanonicalProblem, lowers, uppers, rng) -> tuple | None:
    """Evaluate each box's center plus a few random points, all in one
    call; return ``(box index, value, point)`` of the first box, in order,
    with a negative value (its lowest, first such point), or None."""
    pts, drew = _sample_points(lowers, uppers, rng)
    s, per, n = pts.shape
    vals = problem.model.evaluate(pts.reshape(s * per, n)).min(axis=1).reshape(s, per)
    vals[~drew, 1:] = np.inf
    hits = np.flatnonzero(vals.min(axis=1) < 0.0)
    if hits.size == 0:
        return None
    j = int(hits[0])
    k = int(np.argmin(vals[j]))
    return j, float(vals[j, k]), pts[j, k].copy()


def _screen_children(problem: CanonicalProblem, cfg: BabConfig, parents, children, rng):
    """Screen a round's children all at once.  ``children[2 p]`` and
    ``children[2 p + 1]`` are the children of ``parents[p]``, and
    ``children`` is in search order.

    Each child's box is relaxed-clipped (an empty box closes it), its
    parent's final planes bound it over the clipped box (a bound >= 0
    closes it), and the survivors' sampled points are evaluated together.

    Returns the survivors, the lowest bound of the children the planes
    closed (inf if none), and ``(value, point)`` of the first survivor in
    search order with a negative point, or None.  The survivors are
    ``(keep, lowers, uppers, stacks)``: their indices in ``children``,
    their clipped ``(S, n)`` corners, and their constraints stacked as
    ``(S, M, n)`` normals and ``(S, M)`` offsets, M their largest set
    (None when that is empty or clipping is off).  Each survivor's
    ``bound`` is set.  When there is none, or on a hit, the survivors are
    None: a hit ends the search.
    """
    if not children:
        return None, np.inf, None
    lowers = np.array([child.lower for child in children])
    uppers = np.array([child.upper for child in children])
    sizes = np.array([child.constraints.size for child in children])
    nonempty = np.ones(len(children), dtype=bool)
    normals = None
    if cfg.clip != "none" and sizes.any():
        normals, offsets = stack_constraints([child.constraints for child in children])
        if cfg.clip in ("relaxed", "both"):
            if not cfg.sequential_clip:
                lowers, uppers, empty = relaxed_clip_batch(lowers, uppers, normals, offsets)
            else:
                lowers, uppers, empty = relaxed_clip_sequential_batch(
                    lowers, uppers, normals, offsets, "centroid" if cfg.reorder else "given"
                )
            nonempty = ~empty
    final = [parent.planes.planes[-1] for parent in parents]
    mid, span = box_range(
        np.array([planes.a_low for planes in final]).repeat(2, axis=0),
        np.array([planes.c_low for planes in final]).repeat(2, axis=0),
        0.5 * (lowers + uppers),
        0.5 * (uppers - lowers),
    )
    quick = (mid - span).min(axis=1)
    bounds = np.maximum(np.repeat([parent.bound for parent in parents], 2), quick)
    floor = float(bounds[nonempty & (bounds >= 0.0)].min(initial=np.inf))
    keep = np.flatnonzero(nonempty & (bounds < 0.0))
    if keep.size == 0:
        return None, floor, None
    hit = _falsify_boxes(problem, lowers[keep], uppers[keep], rng)
    if hit is not None:
        return None, floor, hit[1:]
    for j in keep:
        children[j].bound = float(bounds[j])
    # trimmed to the survivors' largest set, the stacks are what stacking
    # the survivors' own sets gives
    m = int(sizes[keep].max())
    stacks = None if normals is None or m == 0 else (normals[keep, :m], offsets[keep, :m])
    return (keep, lowers[keep], uppers[keep], stacks), floor, None


def _queued_state(res: BoundsResult, rows, lowers, uppers, overrides, scored, split_planes):
    """What a subdomain queued from the pass ``res`` (in the batch form of
    :func:`crown.bound_pass`) keeps: per entry of ``rows``, its corners,
    its override pairs and a :class:`BoundsResult` holding only what later
    rounds read of the pass:

    * always ``final_lower`` and the final layer's lower planes (its upper
      planes are None);
    * with ``scored``, the hidden layers' bounds and the objective
      coefficients, which score the domain as a parent;
    * with ``split_planes``, the hidden layers' planes, which give an
      activation split its half-space; otherwise those entries of
      ``planes`` are None.

    ``lowers`` / ``uppers`` are the pass's corners and ``overrides`` its
    override stacks.  The rows are gathered in blocks of ``GATHER_BLOCK``
    values, and each row is copied into one buffer of its own, which all
    its arrays view: a queued subdomain shares no memory with the pass or
    with another one, and keeps nothing of its siblings alive.
    """
    hidden = len(res.planes) - 1
    final = res.planes[-1]
    pieces = [lowers, uppers, *(arr for pair in overrides for arr in pair)]
    pieces += [res.final_lower, final.a_low, final.c_low]
    if scored:
        pieces += [arr for lb in res.layer_bounds[:hidden] for arr in (lb.lower, lb.upper)]
        pieces += res.objective_coeffs
    if split_planes:
        pieces += [arr for p in res.planes[:hidden] for arr in (p.a_low, p.c_low, p.a_up, p.c_up)]
    # a row's slice of each piece, taken in one call; only the matrices
    # (planes) are reshaped, which costs more than the slice itself
    ends = list(itertools.accumulate(piece.size // len(piece) for piece in pieces))
    take = operator.itemgetter(*map(slice, [0, *ends[:-1]], ends))
    matrices = [(i, piece.shape[1:]) for i, piece in enumerate(pieces) if piece.ndim > 2]
    flat = [piece.reshape(len(piece), -1) if piece.ndim > 2 else piece for piece in pieces]
    step = max(1, GATHER_BLOCK // ends[-1])
    if step >= len(lowers):
        copies = [row.copy() for row in np.concatenate(flat, axis=1)[rows]]
    else:
        copies = [
            row.copy()
            for at in range(0, len(rows), step)
            for row in np.concatenate([piece[rows[at:at + step]] for piece in flat], axis=1)
        ]
    state = []
    for buf in copies:
        views = list(take(buf))
        for i, shape in matrices:
            views[i] = views[i].reshape(shape)
        views = iter(views)
        lower, upper = next(views), next(views)
        kept_overrides = [(next(views), next(views)) for _ in overrides]
        final_lower, a_low, c_low = next(views), next(views), next(views)
        bounds = [LayerBounds(next(views), next(views)) for _ in range(hidden if scored else 0)]
        coeffs = [next(views) for _ in range(hidden if scored else 0)]
        planes = [None] * hidden
        if split_planes:
            planes = [
                BoundingPlanes(next(views), next(views), next(views), next(views))
                for _ in range(hidden)
            ]
        planes.append(BoundingPlanes(a_low, c_low, None, None))
        kept = BoundsResult(bounds, planes, final_lower, coeffs)
        state.append((lower, upper, kept_overrides, kept))
    return state


def _outcome(status, stats, t0, counterexample=None, value=None, bound=None):
    stats.wall_time = time.perf_counter() - t0
    return VerificationOutcome(status, counterexample, value, bound, stats)


def _branch(cfg: BabConfig, sub: Subdomain, pick, probe: BranchProbe | None):
    """Split a bounded, open subdomain in two: the only step of the search
    that depends on the mode.  Returns the decision and the two children.

    Input mode bisects, or takes the cut ``probe.replay`` recorded for this
    path.  Before that, when clipping is on, it harvests the final plane of
    a lone open row: with several rows open their half-spaces may not be
    stacked (a point can violate one row while clearing another).
    Activation mode pins ``pick``, the best-scoring unstable neuron, and
    bisects when there is none (``pick`` None).  When clipping is on, each
    pinned child also gets the input half-space its pin implies.  Only
    clipping reads constraints, so with it off none are built.
    """
    if cfg.mode == "activation":
        if pick is None:
            lo_child, hi_child, cut = branch_input(sub)
            return ("input",) + cut, (lo_child, hi_child)
        children = branch_activation(sub, pick)
        if cfg.clip != "none":
            layer, neuron = pick
            for child, polarity in zip(children, (1, -1)):
                cons = split_constraint_to_input(sub.planes.planes[layer], neuron, polarity)
                child.constraints = child.constraints.appended(cons, budget=CONSTRAINT_BUDGET)
        return pick, children
    unverified = np.flatnonzero(sub.planes.final_lower < 0.0)
    if unverified.size == 1 and cfg.clip != "none":
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
    model = problem.model
    stats = BabStats()
    heap = []
    tiebreak = itertools.count()
    verified_floor = np.inf  # lowest bound of a closed subdomain
    # the parents' branching scores are needed to pick a neuron to pin and
    # to pick the children's critical neurons for complete clipping
    scored = cfg.mode == "activation" or cfg.clip in ("complete", "both")
    # activation splits read the per-layer planes to build their half-spaces
    split_planes = cfg.mode == "activation" and cfg.clip != "none"

    def settle(subs, lowers, uppers, stacks=None, scores=None):
        """Bound subdomains in one pass; queue those still open, each with
        its own copy of the corners, overrides and pass rows it needs."""
        nonlocal verified_floor
        forced = [np.array([sub.forced[i] for sub in subs]) for i in range(len(subs[0].forced))]
        overrides = [
            (np.array([sub.overrides[i][0] for sub in subs]),
             np.array([sub.overrides[i][1] for sub in subs]))
            for i in range(model.num_layers)
        ]
        refine = _clip_refine(cfg, model, subs, lowers, uppers, stacks, scores, forced, overrides)
        res, failed = bound_pass(model, lowers, uppers, cfg.alpha, forced, overrides, refine)
        stats.domains_visited += len(subs)
        stats.max_depth = max(stats.max_depth, max(sub.depth for sub in subs))
        alive = np.array([err is None for err in failed])
        bounds = np.maximum([sub.bound for sub in subs], res.final_lower.min(axis=1))
        if probe is not None:
            for b in np.flatnonzero(alive):
                probe.record_bounds(subs[b].path, res, b)
        closed = alive & (bounds >= 0.0)
        verified_floor = min(verified_floor, float(bounds[closed].min(initial=np.inf)))
        rows = np.flatnonzero(alive & ~closed)
        if rows.size == 0:
            return
        state = _queued_state(res, rows, lowers, uppers, overrides, scored, split_planes)
        for b, (lower, upper, kept_overrides, kept) in zip(rows.tolist(), state):
            sub = subs[b]
            sub.lower, sub.upper, sub.overrides, sub.planes = lower, upper, kept_overrides, kept
            sub.bound = float(bounds[b])
            heappush(heap, (sub.bound, next(tiebreak), sub))

    if time.perf_counter() >= deadline:
        return _outcome("unknown", stats, t0)
    root = Subdomain.root(problem)
    settle([root], root.lower[None], root.upper[None])
    while heap:
        if time.perf_counter() >= deadline:
            return _outcome("unknown", stats, t0, bound=float(heap[0][0]))
        batch = [heappop(heap)[2] for _ in range(min(cfg.batch, len(heap)))]
        parents, point_hit = [], None
        for sub in batch:
            if float((0.5 * (sub.upper - sub.lower)).max()) < POINT_RADIUS_TOL:
                center = 0.5 * (sub.lower + sub.upper)
                val = problem.value(center)
                if val < 0.0:
                    # children branched before this point come first
                    point_hit = (float(val), center)
                    break
                verified_floor = min(verified_floor, val)
                continue
            parents.append(sub)
        scores = _branch_scores(parents) if scored and parents else None
        picks = [None] * len(parents)
        if cfg.mode == "activation" and scores:
            picks = _pick_branch_neurons(scores)
        children = []
        for sub, pick in zip(parents, picks):
            decision, pair = _branch(cfg, sub, pick, probe)
            if probe is not None:
                probe.decisions[sub.path] = decision
            children.extend(pair)
        survivors, floor, hit = _screen_children(problem, cfg, parents, children, rng)
        verified_floor = min(verified_floor, floor)
        hit = hit or point_hit
        if hit is not None:
            return _outcome("falsified", stats, t0, hit[1], hit[0])
        if survivors is not None:
            keep, lowers, uppers, stacks = survivors
            if scores is not None:
                scores = [layer_scores[keep // 2] for layer_scores in scores]
            settle([children[j] for j in keep], lowers, uppers, stacks, scores)
        if heap:
            stats.bound_history.append(float(heap[0][0]))
    bound = None if np.isinf(verified_floor) else float(verified_floor)
    return _outcome("verified", stats, t0, bound=bound)
