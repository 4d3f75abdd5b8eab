"""Branch and bound coupling bound propagation with clipping.

One search loop (:func:`run_bab`) serves both refinement strategies over
the canonical problem "every output row nonnegative over the box".  They
differ only in how a subdomain branches (:func:`_branch`):

* input splitting: bisect the widest box coordinate.  A bounding pass
  leaves behind the final-layer lower planes of the rows it could not
  verify; where such a plane is negative is the only part of the
  subdomain that can still hide a counterexample, so the plane of a lone
  open row is added to the children's constraints.  What it cuts away is
  only known to be nonnegative, so closing a subdomain that carries
  constraints lowers the verified bound to 0.

* activation splitting: pin the unstable ReLUs with the highest branching
  scores, one per level, each to its two sides (bisect when none is
  left).  A pin is a bound override of 0: the active side's lower bound,
  the inactive side's upper bound.  Every pin yields a sound input-space
  half-space from the neuron's planes.

Either way the constraints feed the same clipping.  Activation mode bounds
the root first, its picks coming from the root's scores; input mode queues
it unbounded, so its first round bounds the root's descendants, and the
root with them as row 0 of the pass: a root whose bound clears ends the
search, and one that does not is dropped.  Either way the root is row 0 of
the first pass, so its intervals decide the slopes of a root policy
(:meth:`crown.AlphaPolicy.root`) for the whole search.  Then each round:

1. pops up to ``cfg.batch`` subdomains, worst bound first, and evaluates
   point boxes exactly; the others are the round's parents;
2. branches the parents (:func:`_split_round`): each of the P parents d
   levels deep, d the largest with ``P * 2**d <= cfg.batch`` and at least
   1.  A popped parent must be split anyway, so with more than ``cfg.batch
   / 2`` parents a round splits each once and bounds up to ``2 *
   cfg.batch`` children; the deeper levels of a round with fewer parents
   are speculative and give at most ``cfg.batch``.  Input mode bisects
   every node of a level.
   Activation mode pins level j on the parent's pick j, its j-th best
   neuron when it was bounded; a parent with fewer picks stops at the
   depth it has, one with none is bisected once.  The intermediate nodes
   are neither screened nor bounded.  Each split gives both children their
   complete constraint rows: the split node's, then the half-space the
   parent keeps for that step and side, if any; everything else a child
   reads of its parent's pass (bound, planes, scores) it inherits;
3. screens the children together (:func:`_screen_children`), each by, in
   this order: relaxed clipping of its box against its own constraint
   rows, padded into one stack (:func:`_child_stacks`; an empty box closes
   it), its parent's final planes over the clipped box (a bound >= 0
   closes it), and a few sampled points, any of which may falsify the
   problem (the first hit in search order wins).  Each screen is one array
   expression, draw or forward evaluation for all children;
4. checks the deadline again, then bounds the survivors in one pass
   (:func:`crown.bound_batch`), whose backward walk checks it too, before
   each block of domains; a pass it cuts off bounds nothing.  The clipped
   corners and constraint stacks the screen built go in as they are; so do
   the children's overrides, pins among them, stacked in one array and
   handed over as per-layer column views (see :class:`Subdomain`).  A pin
   the bounds rule out crosses them, and the pass reports the child empty.
   Complete clipping runs inside the pass (:func:`_clip_refine`): each
   layer's critical neurons of all the children go to one batched dual
   ascent.  A child's critical neurons are its parent's ``CRITICAL_TOPK``
   best-scoring ones per layer (by the scores it inherited), those its own
   overrides decide left out.
   The refine writes its tightenings into the pass's override stack, whose
   rows become the children's overrides;
5. raises each child's output-row lower bounds to one more bound, never
   past the row's upper bound: the output walk with zero lower slopes
   (:func:`crown.zero_slope_lower`), then
   closes each child whose bound reaches 0 and queues the others, each
   with its own copy of its row of each array that later rounds read of
   the pass, and of only its own constraint rows.  The screen in
   step 3 and this step close domains by one rule (:func:`_close`).  The
   queued rows are scored together (:func:`_branch_scores`), and each
   one's neurons to pin and the half-spaces its children add, one per pin
   on a child's path, are taken there too; the splits of a later round
   append them (step 2).

Candidate counterexamples are checked by exact forward evaluation of the
point alone, so a "falsified" verdict is always certified.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

# coordinate_ascent, relaxed_clip_parallel and relaxed_clip_sequential are
# tracer patch points
from .clipping import (  # noqa: F401
    coordinate_ascent,
    dual_ascent_batch,
    relaxed_clip_batch,
    relaxed_clip_parallel,
    relaxed_clip_sequential,
)
from .crown import (  # noqa: F401  (compute_bounds: patch point for tracers)
    AlphaPolicy,
    BoundingPlanes,
    BoundsResult,
    DeadlinePassed,
    bound_batch,
    compute_bounds,
    zero_slope_lower,
)
from .geometry import box_range, screen_rows
from .network import CanonicalProblem

# Neurons per hidden layer that complete clipping tightens in each domain
# (its best-scoring ones).  No caller needs another value; it stays a named
# constant because ROADMAP item 2 may make it depend on the mode.
CRITICAL_TOPK = 20
# Input-space constraints kept per subdomain, split constraints in activation
# mode and harvested final planes in input mode (most recent win).  Dropping
# old constraints only loosens bounds, and it caps the dual cost per node.
CONSTRAINT_BUDGET = 16
# Random points (plus the center) evaluated per surviving child domain.
FALSIFY_SAMPLES = 8
# Boxes narrower than this in every coordinate are treated as points.
POINT_RADIUS_TOL = 1e-14


@dataclass
class BabConfig:
    mode: str = "input"  # "input" | "activation"
    clip: str = "both"  # "none" | "relaxed" | "complete" | "both"
    batch: int = 16
    timeout: float = 60.0
    alpha: AlphaPolicy = field(default_factory=AlphaPolicy.root)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("input", "activation"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.clip not in ("none", "relaxed", "complete", "both"):
            raise ValueError(f"unknown clip setting {self.clip!r}")
        for name in ("batch", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.batch < 1:
            raise ValueError("batch must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.timeout >= 0:  # also rejects NaN, which would never expire
            raise ValueError("timeout must be nonnegative")
        if not isinstance(self.alpha, AlphaPolicy):
            raise ValueError(f"alpha must be an AlphaPolicy, got {self.alpha!r}")


@dataclass
class Subdomain:
    """One open region of the search: a box plus everything known about it.

    ``lower`` / ``upper`` are its ``(n,)`` corners.  ``overrides`` is a
    ``(2, V)`` array of bound tightenings (NaN: none), lower in row 0 and
    upper in row 1, every layer's ``w_i`` columns side by side, the output
    layer last, so the first W columns are the hidden neurons in flat
    order.  A ReLU pin is one of them: lower 0 for the active side, upper
    0 for the inactive side.  ``normals @ x + offsets <= 0``, ``(m, n)``
    and ``(m,)``, holds for any counterexample in the box; these rows are
    its own from its split on (see :func:`_split_round`).  ``path`` is the
    side taken at each split from the root, so its length is the depth.
    The rest is what later rounds read of its bounding pass, so, like
    ``bound``, it is its parent's until it is bounded itself (an unbounded
    root has no planes or scores): ``planes``, the final layer's lower
    planes; ``scores``, the flat ``(W,)`` branching scores of all hidden
    neurons, -inf where stable (pinned ones among them); ``picks``, the
    flat neuron indices activation mode pins at levels 0, 1, ... below
    it, best first, at most ``log2(batch)`` rounded down, or 1 at
    ``batch=1`` (empty: bisect); ``child_constraints``, ``(D, 2, n)``
    normals and ``(D, 2)`` offsets whose row ``(j, s)`` a descendant adds
    whose split step j below it went to side s, for every j < D (None:
    none; in input mode D = 1 and both sides are the same plane, which
    every descendant of a round adds).

    Children share these arrays with their parent, and a split's two
    children view one array pair for their rows; none is ever modified in
    place.  A queued subdomain holds its own copy of each array it got
    from its bounding pass, its ``m`` constraint rows only; one bounded
    without constraints keeps the empty ``normals`` / ``offsets`` it
    inherited, which no other array views.
    """

    lower: np.ndarray
    upper: np.ndarray
    overrides: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    bound: float
    planes: BoundingPlanes | None = None
    scores: np.ndarray | None = None
    picks: tuple = ()
    child_constraints: tuple | None = None
    path: tuple = ()

    def child(self, side: int, **fields) -> "Subdomain":
        """This subdomain's child on ``side`` of one split: a shallow copy
        one level deeper with ``fields`` replaced."""
        child = object.__new__(Subdomain)
        child.__dict__.update(self.__dict__, path=self.path + (side,), **fields)
        return child

    @classmethod
    def root(cls, problem: CanonicalProblem) -> "Subdomain":
        """The problem's whole box: nothing pinned, overridden or constrained."""
        layers = problem.model.layers
        return cls(
            problem.box.lower.copy(),
            problem.box.upper.copy(),
            np.full((2, sum(layer.out_dim for layer in layers)), np.nan),
            np.zeros((0, problem.box.dim)),
            np.zeros(0),
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
    per-layer (lower, upper) bound arrays seen when the node was bounded,
    after its overrides (a pinned neuron's interval ends at 0).
    When ``replay`` is set, input-mode runs take the recorded cut instead
    of their own choice wherever the path is present, so two runs explore
    nested regions and their bounds become directly comparable.
    """

    replay: dict | None = None
    decisions: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)

    def record_bounds(self, path, res: BoundsResult, b: int):
        """Record row ``b`` of the batch-form pass ``res`` (see
        :func:`crown.bound_batch`)."""
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


def branch_input(sub: Subdomain, dim: int | None = None, at: float | None = None):
    """Bisect the box along ``dim`` (default: widest, ties to lowest index)
    at ``at`` (default: the midpoint, clamped into the box when given).

    Children inherit overrides, constraints and cached planes.
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
    return sub.child(0, upper=lo_upper), sub.child(1, lower=hi_lower), (dim, mid)


def branch_activation(sub: Subdomain, pick: int):
    """Split a subdomain on one unstable neuron, ``pick`` its flat index
    among the hidden neurons; returns (active, inactive).

    The active child gets lower override 0 on the neuron, the inactive
    child upper override 0.  No override may decide the neuron yet, and it
    must score above -inf in ``sub.scores`` (be unstable), so any lower
    override it has is below 0 and any upper one above: the assignment
    tightens.  The search adds the input half-space a pin implies (see
    :func:`_child_constraints`), and only when clipping reads it.
    """
    if sub.overrides[0, pick] >= 0.0 or sub.overrides[1, pick] <= 0.0:
        raise ValueError(f"neuron {pick} is already decided by an override")
    if sub.scores is None:
        raise ValueError("subdomain has no branching scores to split with")
    if not sub.scores[pick] > -np.inf:
        raise ValueError(f"neuron {pick} is not unstable here")
    children = []
    for side in (0, 1):
        overrides = sub.overrides.copy()
        overrides[side, pick] = 0.0
        children.append(sub.child(side, overrides=overrides))
    return children[0], children[1]


def _branch_scores(res: BoundsResult) -> np.ndarray:
    """BaBSR score of every hidden neuron of each domain of the batch-form
    pass ``res`` (see :func:`crown.bound_batch`): ``(B, W)``, layers side
    by side, -inf where stable (a pinned neuron is, by its override)."""
    scores = [np.zeros((len(res.final_lower), 0))]  # a net without hidden layers
    for lb, coeff in zip(res.layer_bounds, res.objective_coeffs):
        unstable = (lb.lower < 0.0) & (lb.upper > 0.0)
        scores.append(np.where(unstable, babsr_intercept_score(lb.lower, lb.upper, coeff), -np.inf))
    return np.concatenate(scores, axis=1)


def _critical_masks(scores) -> list:
    """Per hidden layer, a ``(B, w)`` mask of each domain's ``CRITICAL_TOPK``
    neurons by branching score (ties to the lower index), leaving out those
    that score -inf (stable, or decided by an override)."""
    masks = []
    for layer_scores in scores:
        if layer_scores.shape[1] <= CRITICAL_TOPK:
            masks.append(layer_scores > -np.inf)
            continue
        top = np.argsort(-layer_scores, axis=1, kind="stable")[:, :CRITICAL_TOPK]
        mask = np.zeros(layer_scores.shape, dtype=bool)
        finite = np.take_along_axis(layer_scores, top, axis=1) > -np.inf
        np.put_along_axis(mask, top, finite, axis=1)
        masks.append(mask)
    return masks


def _branch_picks(scores, depth) -> tuple:
    """Each domain's ``depth`` highest-scoring neurons, best first (ties to
    the lowest flat index), from flat ``(B, W)`` scores, as ``(B, depth)``
    flat indices and a ``found`` mask, False where a neuron scores -inf,
    which sorts last."""
    top = np.argsort(-scores, axis=1, kind="stable")[:, :depth]
    return top, np.take_along_axis(scores, top, axis=1) > -np.inf


def _child_constraints(cfg: BabConfig, res: BoundsResult, picks) -> tuple:
    """The half-spaces the children of every domain of the batch-form pass
    ``res`` add, ``(B, D, 2, n)`` normals and ``(B, D, 2)`` offsets, row
    ``(j, s)`` for a child whose split step j went to side s, and the
    ``(B,)`` number of steps each domain has rows for (0: none).

    In input mode that is the final lower plane of a lone open row, for
    both sides of the first step (D = 1): ``plane(x) <= row(x)``, so
    ``plane(x) <= 0`` keeps every point where the row can be negative (with
    several rows open a point can violate one while clearing another).  In
    activation mode row j is what pinning pick j of ``picks`` (see
    :func:`_branch_picks`) implies: the active side needs the neuron's
    upper plane >= 0, the inactive side its lower plane <= 0.  Both are
    necessary conditions, so clipping with them removes no point of the
    child."""
    final = res.planes[-1]
    if cfg.mode == "input":
        open_rows = res.final_lower < 0.0
        at = np.arange(len(open_rows)), open_rows.argmax(axis=1)
        normals = final.a_low[at][:, None, None].repeat(2, axis=2)
        offsets = final.c_low[at][:, None, None].repeat(2, axis=2)
        return normals, offsets, (open_rows.sum(axis=1) == 1).astype(int)
    top, found = picks
    normals = np.zeros(found.shape + (2, final.a_low.shape[2]))
    offsets = np.zeros(found.shape + (2,))
    start = 0
    # each hidden layer's planes serve the picks in its column range
    for planes in res.planes[:-1]:
        end = start + planes.c_low.shape[1]
        b, j = np.nonzero(found & (top >= start) & (top < end))
        at = b, top[b, j] - start
        normals[b, j, 0], offsets[b, j, 0] = planes.a_up[at], planes.c_up[at]
        normals[b, j, 1], offsets[b, j, 1] = planes.a_low[at], planes.c_low[at]
        start = end
    # the active side needs the upper plane >= 0
    normals[:, :, 0], offsets[:, :, 0] = -normals[:, :, 0], -offsets[:, :, 0]
    return normals, offsets, found.sum(axis=1)


def _clip_refine(cfg: BabConfig, model, lowers, uppers, stacks, scores, overrides):
    """The refine of one bounding pass (see :func:`bound_batch`), running
    complete clipping for all its domains, or None when complete clipping
    is off or no domain has constraints (``stacks`` is None).

    ``lowers`` / ``uppers`` are the domains' ``(B, n)`` corners and
    ``stacks`` their constraint stacks and set sizes (see
    :func:`_child_stacks`).  ``scores`` are the flat scores of each
    domain's parent; with the neurons the domain's own overrides decide
    left out (its pins among them) they pick its critical neurons.
    ``overrides`` are the pass's per-layer ``(lower, upper)`` override
    stacks.

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
    normals, offsets, sizes = stacks
    last = model.num_layers - 1
    centers, radii = 0.5 * (lowers + uppers), 0.5 * (uppers - lowers)
    feasible, active = screen_rows(centers, radii, normals, offsets)
    ends = itertools.accumulate(ovr_lo.shape[1] for ovr_lo, _ in overrides[:last])
    critical = _critical_masks([
        np.where((ovr_lo >= 0.0) | (ovr_hi <= 0.0), -np.inf, scores[:, end - ovr_lo.shape[1]:end])
        for (ovr_lo, ovr_hi), end in zip(overrides, ends)])

    def refine(i, planes, lower, upper, alive):
        crit = lower < 0.0 if i == last else critical[i]
        counts = crit.sum(axis=1)
        need = alive & (sizes > 0) & (counts > 0)
        doms = np.flatnonzero(need & feasible)
        if doms.size == 0:
            return lower, upper, need & ~feasible
        if doms.size == len(lowers):
            doms = slice(None)
        counts = counts[doms]
        k = int(counts.max())
        # each domain's critical neurons first, in index order; the rest of
        # a row is padding, solved but left as it was
        idx = np.argsort(~crit[doms], axis=1, kind="stable")[:, :k]
        valid = np.arange(k) < counts[:, None]
        rows = np.arange(len(lowers))[doms, None]
        objs, consts = planes.a_low[rows, idx], planes.c_low[rows, idx]
        if i != last:
            objs = np.concatenate([objs, -planes.a_up[rows, idx]], axis=1)
            consts = np.concatenate([consts, -planes.c_up[rows, idx]], axis=1)
        bounds, _ = dual_ascent_batch(
            objs, consts, centers[doms], radii[doms], normals[doms], offsets[doms], active[doms]
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
        draw = rng.random((int(drew.sum()), FALSIFY_SAMPLES, lowers.shape[1]))
        draw *= (uppers - lowers)[wide, None]
        draw += lowers[wide, None]
        pts[wide, 1:] = draw
    return pts, drew


def _falsify_boxes(problem: CanonicalProblem, lowers, uppers, rng) -> tuple | None:
    """Evaluate each box's center plus a few random points, all in one
    call; return ``(box index, value, point)`` of the first box, in order,
    with a point that is negative alone too (its lowest such point, first
    on ties), or None.

    A batch can round a point's value to the other sign than
    ``problem.value`` of the point alone (BLAS kernels differ by shape), so
    each candidate is evaluated again alone, lowest first, and reported
    with that value; one that is not negative there is dropped."""
    pts, drew = _sample_points(lowers, uppers, rng)
    s, per, n = pts.shape
    vals = problem.model.evaluate(pts.reshape(s * per, n)).min(axis=1).reshape(s, per)
    vals[~drew, 1:] = np.inf
    for j in np.flatnonzero(vals.min(axis=1) < 0.0).tolist():
        negative = int((vals[j] < 0.0).sum())
        for k in np.argsort(vals[j], kind="stable")[:negative].tolist():
            value = problem.value(pts[j, k])
            if value < 0.0:
                return j, value, pts[j, k].copy()
    return None


def _child_stacks(children) -> tuple | None:
    """The constraints of a round's children, their own rows padded with
    the row ``0 . x + 0 <= 0``, which holds everywhere: ``(C, M, n)``
    normals, ``(C, M)`` offsets and ``(C,)`` set sizes, M the largest, or
    None when no child has any."""
    sizes = np.array([len(child.offsets) for child in children])
    m = int(sizes.max())
    if m == 0:
        return None
    normals = np.zeros((len(children), m, children[0].lower.size))
    offsets = np.zeros((len(children), m))
    for k, child in enumerate(children):
        normals[k, :sizes[k]], offsets[k, :sizes[k]] = child.normals, child.offsets
    return normals, offsets, sizes


def _close(cfg: BabConfig, bounds, alive, stacks) -> tuple:
    """The rule by which the search closes domains, given their ``(B,)``
    bounds, which of them are alive (not proven empty) and their
    constraint stacks and set sizes (see :func:`_child_stacks`; None: no
    domain has constraints).

    A live domain whose bound is >= 0 closes.  Returns the mask of the
    domains left open and the lowest bound of the closed ones (inf if
    none).  In input mode the constraints are harvested planes, and what
    they cut away is only known to be nonnegative, so a domain that is not
    left open and carries constraints lowers that to 0.
    """
    closed = alive & (bounds >= 0.0)
    floor = float(bounds[closed].min(initial=np.inf))
    left_open = alive & ~closed
    if cfg.mode == "input" and stacks is not None and (stacks[2][~left_open] > 0).any():
        floor = min(floor, 0.0)
    return left_open, floor


def _screen_children(problem: CanonicalProblem, cfg: BabConfig, children, rng):
    """Screen a round's children, in search order, all at once.

    Each child's box is relaxed-clipped against its constraints (an empty
    box closes it), its parent's final planes bound it over the clipped box
    (a bound >= 0 closes it), and the survivors' sampled points are
    evaluated together.  What a child knows of its parent's pass, its
    ``bound`` and ``planes``, it inherited at its split.

    Returns the survivors, the lowest bound of the closed children (inf if
    none; at most 0 in input mode if one carries constraints), and
    ``(value, point)`` of the first survivor in search order with a
    negative point, or None.  The survivors are ``(keep, lowers, uppers,
    stacks)``: their indices in ``children``, clipped ``(S, n)`` corners
    and the :func:`_child_stacks` of their rows alone.  Each survivor's
    ``bound`` is set.  When there is none, or on a hit, the survivors are
    None: a hit ends the search.
    """
    if not children:
        return None, np.inf, None
    lowers = np.array([child.lower for child in children])
    uppers = np.array([child.upper for child in children])
    stacks = _child_stacks(children)
    nonempty = np.ones(len(children), dtype=bool)
    if stacks is not None and cfg.clip in ("relaxed", "both"):
        lowers, uppers, empty = relaxed_clip_batch(lowers, uppers, *stacks[:2])
        nonempty = ~empty
    bounds = np.array([child.bound for child in children])
    # the unbounded input-mode root, its round's only parent, left its
    # children no planes
    if children[0].planes is not None:
        mid, span = box_range(
            np.array([child.planes.a_low for child in children]),
            np.array([child.planes.c_low for child in children]),
            0.5 * (lowers + uppers),
            0.5 * (uppers - lowers),
        )
        bounds = np.maximum(bounds, (mid - span).min(axis=1))
    survive, floor = _close(cfg, bounds, nonempty, stacks)
    keep = np.flatnonzero(survive)
    if keep.size == 0:
        return None, floor, None
    hit = _falsify_boxes(problem, lowers[keep], uppers[keep], rng)
    if hit is not None:
        return None, floor, hit[1:]
    for j in keep:
        children[j].bound = float(bounds[j])
    stacks = _child_stacks([children[j] for j in keep])
    return (keep, lowers[keep], uppers[keep], stacks), floor, None


def _outcome(status, stats, t0, counterexample=None, value=None, bound=None):
    """The run's outcome; an infinite ``bound`` (none known) is None."""
    stats.wall_time = time.perf_counter() - t0
    bound = None if bound is None or np.isinf(bound) else float(bound)
    return VerificationOutcome(status, counterexample, value, bound, stats)


def _branch(cfg: BabConfig, sub: Subdomain, level: int, probe: BranchProbe | None):
    """Split a node ``level`` steps below its round's parent in two: with
    how deep :func:`_split_round` splits, the only step of the search that
    depends on the mode.  Returns the decision and the two children.

    Activation mode pins the parent's pick ``level`` (a node shares its
    parent's ``picks``) and bisects when there is none.  Input mode
    bisects, or takes the cut ``probe.replay`` recorded for this path.
    """
    if cfg.mode == "activation":
        if not sub.picks:
            lo_child, hi_child, cut = branch_input(sub)
            return ("input",) + cut, (lo_child, hi_child)
        return sub.picks[level], branch_activation(sub, sub.picks[level])
    dim = at = None
    if probe is not None and probe.replay is not None:
        dim, at = probe.replay.get(sub.path, (None, None))
    lo_child, hi_child, cut = branch_input(sub, dim, at)
    return cut, (lo_child, hi_child)


def _is_point(sub: Subdomain) -> bool:
    """Whether the box is narrower than ``POINT_RADIUS_TOL`` in every
    coordinate."""
    return float((0.5 * (sub.upper - sub.lower)).max()) < POINT_RADIUS_TOL


def _levels(cfg: BabConfig, parents: int) -> int:
    """How many levels deep a round of ``parents`` parents splits each:
    the largest d with ``parents * 2**d <= cfg.batch``, and 1 where no d
    >= 1 has that (more than ``cfg.batch / 2`` parents)."""
    return max(1, (cfg.batch // max(parents, 1)).bit_length() - 1)


def _add_step_rows(node: Subdomain, level: int, pair) -> None:
    """Give both children ``pair`` of ``node``'s split at step ``level``
    below their round's parent their constraint rows: ``node``'s, then row
    ``(level, side)`` of the parent's ``child_constraints`` (which ``node``
    shares), the most recent ``CONSTRAINT_BUDGET`` of them.  One array pair
    holds both children's rows, and each child gets a view of its side."""
    added_normals, added_offsets = node.child_constraints
    m = min(len(node.offsets), CONSTRAINT_BUDGET - 1)
    normals, offsets = np.empty((2, m + 1, node.lower.size)), np.empty((2, m + 1))
    old = slice(len(node.offsets) - m, None)  # node's most recent m rows
    normals[:, :m], offsets[:, :m] = node.normals[old], node.offsets[old]
    normals[:, m], offsets[:, m] = added_normals[level], added_offsets[level]
    for side, child in enumerate(pair):
        child.normals, child.offsets = normals[side], offsets[side]


def _split_round(cfg: BabConfig, parents, probe: BranchProbe | None) -> list:
    """Branch a round's parents: their children, in search order, each
    with its complete constraint rows.

    Each of the P parents is split ``d`` levels deep, ``d`` the largest
    with ``P * 2**d <= cfg.batch`` (at least 1; see :func:`_levels`), so
    that a round with few parents still fills its bounding pass, and one
    with more than ``cfg.batch / 2`` splits each parent once, up to ``2 *
    cfg.batch`` children; nothing is screened or bounded in between.
    Input mode bisects every node of a level, so the children are the ones
    ``d`` rounds of single bisections would reach; a node narrower than
    ``POINT_RADIUS_TOL`` is not split further: it goes on as a child, and a
    later round evaluates it.  Activation mode pins level j on the parent's
    pick j, so a parent with fewer than ``d`` picks stops at the depth it
    has, and one with none is bisected once.  Every split, an intermediate
    node's too, goes through :func:`_branch`, and ``probe`` records it.
    A split at a step the parent has ``child_constraints`` for adds that
    step's row to both children (see :func:`_add_step_rows`); everything
    else a child reads of its parent's pass it inherits.
    """
    levels = _levels(cfg, len(parents))
    children = []
    for parent in parents:
        depth = levels
        if cfg.mode == "activation":
            depth = min(levels, len(parent.picks)) or 1
        nodes = [parent]
        for level in range(depth):
            split = []
            for node in nodes:
                # the parent itself was popped as wider than a point
                if level and _is_point(node):
                    split.append(node)
                    continue
                decision, pair = _branch(cfg, node, level, probe)
                if probe is not None:
                    probe.decisions[node.path] = decision
                if node.child_constraints is not None and level < len(node.child_constraints[1]):
                    _add_step_rows(node, level, pair)
                split.extend(pair)
            nodes = split
        children += nodes
    return children


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
    # complete clipping reads the parents' branching scores to pick the
    # children's critical neurons; activation splits pick by them
    refined = cfg.clip in ("complete", "both")
    scored = cfg.mode == "activation" or refined
    # the most levels a round splits a parent, with one parent open
    depth = _levels(cfg, 1)
    ends = itertools.accumulate(layer.out_dim for layer in model.layers)
    columns = [slice(end - layer.out_dim, end) for layer, end in zip(model.layers, ends)]
    alpha = cfg.alpha

    def settle(subs, lowers, uppers, stacks=None, root_row=False) -> bool:
        """Bound subdomains in one pass; queue those still open, each with
        its own copy of what later rounds read.  False, with nothing
        bounded, when the deadline passes during the pass.  With
        ``root_row``, row 0 is the root, bounded with its descendants: if
        it closes, nothing is queued, and otherwise it is dropped."""
        nonlocal verified_floor, alpha
        # one override stack, which the pass reads and the refine writes
        # through per-layer column views
        stacked = np.array([sub.overrides for sub in subs])
        overrides = [(stacked[:, 0, cols], stacked[:, 1, cols]) for cols in columns]
        # complete clipping picks critical neurons by the parents' scores,
        # which each child inherited
        scores = np.array([sub.scores for sub in subs]) if refined and stacks is not None else None
        refine = _clip_refine(cfg, model, lowers, uppers, stacks, scores, overrides)
        try:
            res, empty = bound_batch(model, lowers, uppers, alpha, overrides, refine, deadline)
        except DeadlinePassed:
            return False
        # the first pass, whose row 0 is the root, decides a root policy's slopes
        alpha = res.policy
        stats.domains_visited += len(subs)
        stats.max_depth = max(stats.max_depth, max(len(sub.path) for sub in subs))
        if res.relaxations:
            # one more lower bound per output row, the output walk with zero
            # lower slopes: it raises final_lower in place (the output's lower
            # bound array) but never past the pass's upper bound, so it
            # proves nothing empty
            out = res.layer_bounds[-1]
            best = zero_slope_lower(model, res, lowers, uppers)
            np.maximum(out.lower, np.minimum(best, out.upper), out=out.lower)
        alive = ~empty
        bounds = np.maximum([sub.bound for sub in subs], res.final_lower.min(axis=1))
        if probe is not None:
            for b in np.flatnonzero(alive):
                probe.record_bounds(subs[b].path, res, b)
        queued, floor = _close(cfg, bounds, alive, stacks)
        verified_floor = min(verified_floor, floor)
        if root_row:
            if alive[0] and not queued[0]:
                return True  # the root's bound clears: the whole box is verified
            queued[0] = False
        rows = np.flatnonzero(queued)
        if rows.size == 0:
            return True
        # each queued domain copies its own row of what later rounds read
        final, picks = res.planes[-1], None
        if scored:
            flat_scores = _branch_scores(res)
        if cfg.mode == "activation":
            picks = _branch_picks(flat_scores, depth)
            top, found = picks[0].tolist(), picks[1].sum(axis=1).tolist()
        if cfg.clip != "none":
            cut_normals, cut_offsets, adds = _child_constraints(cfg, res, picks)
            adds = adds.tolist()
        for b in rows.tolist():
            sub = subs[b]
            sub.lower, sub.upper = lowers[b].copy(), uppers[b].copy()
            sub.overrides = stacked[b].copy()
            sub.planes = BoundingPlanes(final.a_low[b].copy(), final.c_low[b].copy(), None, None)
            if scored:
                sub.scores = flat_scores[b].copy()
            if picks is not None:
                sub.picks = tuple(top[b][:found[b]])
            if cfg.clip != "none":
                k = adds[b]
                sub.child_constraints = (cut_normals[b, :k].copy(), cut_offsets[b, :k].copy()) if k else None
            if stacks is not None:
                # without a stack, the domains hold the empty rows they inherited
                m = stacks[2][b]
                sub.normals, sub.offsets = stacks[0][b, :m].copy(), stacks[1][b, :m].copy()
            sub.bound = float(bounds[b])
            heappush(heap, (sub.bound, next(tiebreak), sub))
        return True

    if time.perf_counter() >= deadline:
        return _outcome("unknown", stats, t0)
    root = Subdomain.root(problem)
    if cfg.mode == "input":
        # unbounded: the first round bisects it and bounds it together with
        # its descendants, as row 0 of the round's pass
        heappush(heap, (root.bound, next(tiebreak), root))
    elif not settle([root], root.lower[None], root.upper[None]):
        # activation mode bounds it alone: its picks come from its scores
        return _outcome("unknown", stats, t0)
    while heap:
        if time.perf_counter() >= deadline:
            return _outcome("unknown", stats, t0, bound=heap[0][0])
        batch = [heappop(heap)[2] for _ in range(min(cfg.batch, len(heap)))]
        parents, point_hit = [], None
        for sub in batch:
            if _is_point(sub):
                center = 0.5 * (sub.lower + sub.upper)
                val = problem.value(center)
                if val < 0.0:
                    # children of the parents popped before this point come first
                    point_hit = (float(val), center)
                    break
                verified_floor = min(verified_floor, val)
                continue
            parents.append(sub)
        children = _split_round(cfg, parents, probe)
        survivors, floor, hit = _screen_children(problem, cfg, children, rng)
        verified_floor = min(verified_floor, floor)
        hit = hit or point_hit
        if hit is not None:
            return _outcome("falsified", stats, t0, hit[1], hit[0])
        if survivors is not None:
            keep, lowers, uppers, stacks = survivors
            subs = [children[j] for j in keep]
            # only the children of the unbounded input-mode root, alone in
            # its round and without constraints, have no planes
            root_row = subs[0].planes is None
            if root_row:
                subs = [root] + subs
                lowers, uppers = np.vstack([root.lower, lowers]), np.vstack([root.upper, uppers])
            # the deadline is checked before the pass and within it
            if time.perf_counter() >= deadline or not settle(subs, lowers, uppers, stacks, root_row):
                opened = [children[j].bound for j in keep] + [item[0] for item in heap[:1]]
                return _outcome("unknown", stats, t0, bound=min(opened))
        if heap:
            stats.bound_history.append(float(heap[0][0]))
    return _outcome("verified", stats, t0, bound=verified_floor)
