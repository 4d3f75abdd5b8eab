"""Backward linear bound propagation for feedforward ReLU networks.

Every pre-activation (and the final output) gets a pair of affine bounding
planes in the network input: ``A_low . x + c_low <= z <= A_up . x + c_up``
valid over a given box.  Planes are built by walking backwards through the
layers, replacing each ReLU with linear lower / upper envelopes chosen by
the sign of the accumulated coefficient, and are turned into scalar interval
bounds by concretizing against the box.

A whole batch of boxes is bounded in one pass (:func:`bound_batch`): every
array carries a leading batch axis, so each layer costs a few array
operations for all domains together.  One backward walk gives both planes:
it walks the stacked rows ``[W; -W]`` for the lower side only, because the
upper plane of z is minus the lower plane of -z and negation is exact.  It
walks the domains in blocks through one scratch of fixed size
(``WALK_BLOCK``), so a pass's extra memory does not grow with the batch.
Each layer is then concretized once (one :func:`geometry.box_range` call
for all rows of all boxes), and its ReLU relaxation is built
row-wise with masks.  Between the two, one optional batched ``refine``
callable may tighten the layer's bounds for the whole batch: it gets the
layer index, the batch's planes and bounds and a mask of the domains still
alive, and returns the tightened bounds and a mask of the domains it proved
empty (see :func:`bound_batch`).  The pass returns its arrays in this
batch form.  :func:`compute_bounds` is the one-box case, without
refinement: it stacks its overrides into one-row arrays and returns the
pass's only row.  The pass also returns its relaxations, so that
:func:`zero_slope_lower` can walk the output rows back once more with
other lower slopes.

A ReLU's envelope follows from its layer's bounds alone, after overrides
and refinement: zero where ``u <= 0``, the identity where ``l >= 0 < u``,
and the triangle where ``l < 0 < u``.  The triangle's upper side is the
chord through ``(l, 0)`` and ``(u, u)``, its lower side a line ``alpha *
z`` through the origin with a selectable slope ``alpha`` in [0, 1].  A
ReLU split is a bound override of 0 (a lower bound for the active side, an
upper bound for the inactive one), so a pinned neuron takes the identity
or zero envelope like any other neuron its bounds decide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (  # noqa: F401  (concretize: patch point for tracers)
    BoxDomain,
    EmptyBoxError,
    box_range,
    concretize,
)
from .network import NetworkModel

# Values per buffer of a backward-walk block: a block holds as many domains
# as fit their ``(2r, w)`` coefficient arrays (w the widest hidden layer the
# walk passes) in WALK_BLOCK values, and at least one.  32768 float64 values
# are 256 KiB, so the three scratch buffers stay in L2 and a pass's scratch
# is bounded by the hidden widths, not by batch size times width squared.
# Blocks are whole domains: a numpy product over a ``(d, 2r, w)`` stack
# makes one BLAS call per domain, so each domain gets the bits of the
# whole-batch walk.  Splitting a domain's rows or folding domains into one
# 2-D product changes the product's shape, and with it the kernel and the
# last bits (OpenBLAS 0.3.31 on AVX-512 takes its small-matrix kernel up to
# about 10**6 multiply-adds).
WALK_BLOCK = 32768


class InfeasibleSplitError(Exception):
    """A box's bounds cross under their overrides (a ReLU split among them):
    the box holds no point that meets them all."""


class DeadlinePassed(Exception):
    """The deadline of a :func:`bound_batch` pass passed during the pass."""


@dataclass(frozen=True)
class AlphaPolicy:
    """Choice of the lower-envelope slope for unstable ReLUs.

    ``fixed(v)`` uses the constant slope v for every unstable neuron.
    ``adaptive()`` picks slope 1 when ``u >= -l`` (the interval leans
    positive) and 0 otherwise, per neuron and per domain.  ``root()``
    applies that rule once, to the intervals of the first box it bounds
    (row 0 of a :func:`bound_batch` pass), and gives every domain the
    resulting per-neuron slopes; the pass's :attr:`BoundsResult.policy`
    carries them as ``slopes``, one ``(w_i,)`` array per hidden layer, for
    bounding that box's sub-boxes.
    """

    kind: str = "fixed"
    value: float = 1.0
    slopes: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive", "root"):
            raise ValueError(f"unknown alpha policy kind {self.kind!r}")
        if self.kind == "fixed" and not (0.0 <= self.value <= 1.0):
            raise ValueError("fixed alpha must lie in [0, 1]")
        if self.slopes is not None:
            try:  # one float array per layer, whose shapes bound_batch checks
                object.__setattr__(self, "slopes", tuple(np.asarray(s, dtype=float) for s in self.slopes))
            except (TypeError, ValueError):
                raise ValueError("root slopes must be numeric arrays, one per hidden layer") from None
        if self.slopes is not None and (
                self.kind != "root" or not all(np.all((s >= 0.0) & (s <= 1.0)) for s in self.slopes)):
            raise ValueError("slopes belong to a root policy and must lie in [0, 1]")

    @classmethod
    def fixed(cls, value: float = 1.0) -> "AlphaPolicy":
        return cls("fixed", float(value))

    @classmethod
    def adaptive(cls) -> "AlphaPolicy":
        return cls("adaptive", 0.0)

    @classmethod
    def root(cls, slopes=None) -> "AlphaPolicy":
        return cls("root", 0.0, slopes)


@dataclass
class LayerBounds:
    """Concrete interval bounds for one layer's pre-activations."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass
class ReluRelaxation:
    """Per-neuron linear envelope slopes and offsets for one ReLU layer.

    Guarantees ``lower_slope * z <= relu(z) <= upper_slope * z +
    upper_offset`` for all z in [l, u], the neuron's bounds after overrides
    (for a pinned neuron, its pinned side).  The lower side always passes
    through the origin, so it has no offset.
    """

    lower_slope: np.ndarray
    upper_slope: np.ndarray
    upper_offset: np.ndarray


@dataclass
class BoundingPlanes:
    """Affine bounding planes for one layer, in the network input."""

    a_low: np.ndarray
    c_low: np.ndarray
    a_up: np.ndarray
    c_up: np.ndarray


@dataclass
class BoundsResult:
    """Everything one bounding pass produces.

    ``layer_bounds[i]`` / ``planes[i]`` describe layer i's pre-activations
    (the last entry is the network output).  ``final_lower`` is the
    concretized lower bound per output row (the same array as
    ``layer_bounds[-1].lower``).  ``objective_coeffs[i]`` is the mean, over
    output rows, of the backward coefficients that the final lower-bound
    pass accumulated on layer i's post-activations; branching scores
    consume it.  ``relaxations[i]`` is the :class:`ReluRelaxation` the pass
    built for the ReLU after hidden layer i, from that layer's final bounds;
    :func:`zero_slope_lower` walks back through them once more.  ``policy``
    is the slope policy the pass ran under, a root policy with its slopes
    decided.
    """

    layer_bounds: list
    planes: list
    final_lower: np.ndarray
    objective_coeffs: list = field(default_factory=list)
    relaxations: list = field(default_factory=list)
    policy: AlphaPolicy | None = None


def _alpha(policy: AlphaPolicy, i: int, lower, upper):
    """The lower slope under ``policy`` of the unstable ReLUs after hidden
    layer i, whose bounds are ``lower`` / ``upper``: a scalar, a ``(w,)``
    array or an array shaped like the bounds.  An undecided root policy
    decides by row 0 of ``(B, w)`` bounds."""
    if policy.kind == "fixed":
        return policy.value
    if policy.kind == "root":
        if policy.slopes is not None:
            return policy.slopes[i]
        lower, upper = lower[0], upper[0]
    return np.where(upper >= -lower, 1.0, 0.0)


def _relax_rows(lower, upper, alpha) -> ReluRelaxation:
    """Envelopes for bound arrays of any shape, one neuron per element,
    with masks in place of a per-neuron loop: zero where ``u <= 0``, the
    identity where ``l >= 0 < u`` and the triangle where ``l < 0 < u``.
    ``alpha`` is the triangles' lower slope, a scalar or an array that
    broadcasts to ``lower``.  Returns a :class:`ReluRelaxation` of arrays
    shaped like ``lower``.
    """
    active = (lower >= 0.0) & (upper > 0.0)
    unstable = (lower < 0.0) & (upper > 0.0)
    # where l < 0 < u, u - l > u exactly and rounding is monotone, so
    # fl(u - l) >= u > 0 and the chord slope lies in [0, 1]
    slope = upper / np.where(unstable, upper - lower, 1.0)
    lower_slope = np.where(active, 1.0, np.where(unstable, alpha, 0.0))
    upper_slope = np.where(active, 1.0, np.where(unstable, slope, 0.0))
    upper_offset = np.where(unstable, -lower * slope, 0.0)
    return ReluRelaxation(lower_slope, upper_slope, upper_offset)


def relax_relu(lower: np.ndarray, upper: np.ndarray, policy: AlphaPolicy) -> ReluRelaxation:
    """Build linear envelopes for one ReLU layer from its ``(w,)``
    pre-activation bounds ``lower`` / ``upper`` (see :func:`_relax_rows`);
    a pinned neuron is one whose bounds carry its pin, ``l = max(l, 0)``
    for the active side or ``u = min(u, 0)`` for the inactive one.

    ``policy`` selects the lower slope of the unstable neurons: ``fixed``
    or ``adaptive``.  A ``root`` policy decides its slopes over a whole
    pass (:func:`bound_batch`), so it is refused here.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be matching 1-D arrays")
    if policy.kind == "root":
        raise ValueError("a root policy decides its slopes in bound_batch")
    return _relax_rows(lower, upper, _alpha(policy, 0, lower, upper))


def _walk_blocks(layers, batch: int):
    """Per layer, the domains per block of the backward walk to it (as many
    as fit their ``(2r, w)`` coefficient arrays in ``WALK_BLOCK`` values, w
    the widest hidden layer the walk passes, and at least one), and three
    flat scratch buffers that every block of every walk fits in."""
    steps, size, widest = [batch], 0, 0
    for layer, prev in zip(layers[1:], layers):
        widest = max(widest, prev.out_dim)
        values = 2 * layer.out_dim * widest
        steps.append(min(batch, max(1, WALK_BLOCK // values)))
        size = max(size, steps[-1] * values)
    return steps, np.empty((3, size))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _walk(layers, relaxations, target: int, batch: int, step: int, work, collect_coeffs=False,
          deadline=None):
    """Lower planes, in the network input, of the rows ``[W; -W]`` of layer
    ``target`` for ``batch`` domains at once.

    ``relaxations[k]`` holds ``(batch, w_k)`` envelope arrays for the ReLU
    after layer k, for every k < target.  Walking from the target towards
    the input, a positive accumulated coefficient keeps the lower side of
    the envelope it multiplies and a negative one takes the upper side.
    The lower side passes through the origin, so only the upper side adds
    to the constants.  The first half of the rows are the lower planes of
    the target; the second half are its upper planes negated, since the
    upper plane of z is minus the lower plane of -z.

    The domains are walked in blocks of ``step`` (see :func:`_walk_blocks`),
    and each block's intermediate coefficient arrays rotate through the
    three buffers of ``work``: at these sizes, fresh large temporaries cost
    more than the arithmetic done in them.  Only the returned arrays are
    newly allocated.  A block makes, for each of its domains, the BLAS
    calls one whole-batch walk makes, so every value is the same whatever
    the block.  Each block first checks ``deadline`` (a
    ``time.perf_counter()`` reading, or None) and raises
    :class:`DeadlinePassed` once it has passed.

    Returns coefficients ``(batch, 2r, n)``, constants ``(batch, 2r)`` and,
    with ``collect_coeffs``, ``{k: (batch, w_k)}`` means over the lower rows
    of the coefficients accumulated on layer k's post-activations.
    """
    weights, bias = layers[target].weights, layers[target].bias
    rows = weights.shape[0]
    stack = np.vstack([weights, -weights])
    c = np.repeat(np.concatenate([bias, -bias])[None], batch, axis=0)
    if target == 0:
        return np.repeat(stack[None], batch, axis=0), c, {}
    out = np.empty((batch, 2 * rows, layers[0].weights.shape[1]))
    coeffs = {}
    if collect_coeffs:
        coeffs = {k: np.empty((batch, layers[k].out_dim)) for k in range(target)}
    for start in range(0, batch, step):
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlinePassed
        block = slice(start, min(batch, start + step))
        cb = c[block]
        bufs = work
        a = _view(bufs[0], (cb.shape[0],) + stack.shape)
        a[...] = stack
        for k in range(target - 1, -1, -1):
            rel = relaxations[k]
            if collect_coeffs:
                coeffs[k][block] = a[:, :rows].mean(axis=1)
            neg = np.minimum(a, 0.0, out=_view(bufs[1], a.shape))
            pos = np.maximum(a, 0.0, out=a)
            cb += (neg @ rel.upper_offset[block, :, None])[..., 0]
            pos *= rel.lower_slope[block, None, :]
            neg *= rel.upper_slope[block, None, :]
            pos += neg
            cb += pos @ layers[k].bias
            dest = out[block]
            if k:
                dest = _view(bufs[2], (a.shape[0], a.shape[1], layers[k].weights.shape[1]))
            a = np.matmul(pos, layers[k].weights, out=dest)
            bufs = (bufs[2], bufs[1], bufs[0])
    return out, c, coeffs


def _check_overrides(model: NetworkModel, overrides, lead: tuple):
    """Refuse overrides that are not None or one entry per layer, each None
    or a ``(lower, upper)`` pair of ``lead + (w_i,)`` arrays.  One-box
    overrides (``lead`` empty) may leave either side None."""
    if overrides is not None and len(overrides) != model.num_layers:
        raise ValueError(f"overrides need one entry per layer ({model.num_layers}), got {len(overrides)}")
    for i, entry in enumerate(overrides or ()):
        shape = lead + (model.layers[i].out_dim,)
        pair = isinstance(entry, (tuple, list, np.ndarray)) and len(entry) == 2
        if entry is not None and not (pair and all(
                np.shape(arr) == shape or (arr is None and not lead) for arr in entry)):
            raise ValueError(f"layer {i} overrides must be a (lower, upper) pair of {shape} arrays")


def _check_slopes(model: NetworkModel, slopes):
    """Refuse a decided root policy's slopes unless they are one ``(w_i,)``
    array per hidden layer."""
    hidden = model.num_layers - 1
    if len(slopes) > hidden:
        raise ValueError(f"root slopes need one array per hidden layer ({hidden}); layer {hidden} has no ReLU")
    for i in range(hidden):
        shape = (model.layers[i].out_dim,)
        if i >= len(slopes) or np.shape(slopes[i]) != shape:
            raise ValueError(f"layer {i} root slopes must be a {shape} array")


def bound_batch(
    model: NetworkModel,
    lowers: np.ndarray,
    uppers: np.ndarray,
    policy: AlphaPolicy | None = None,
    overrides=None,
    refine=None,
    deadline: float | None = None,
) -> tuple:
    """Bound every layer of ``model`` over B boxes in one pass.

    ``policy`` chooses the unstable ReLUs' lower slopes (default
    ``fixed(1)``).  An undecided root policy decides them layer by layer
    from row 0's bounds, for every row; the result's ``policy`` holds them.
    A decided one's slopes must be one ``(w_i,)`` array per hidden layer;
    anything else raises ``ValueError``.

    ``lowers`` / ``uppers`` are the ``(B, n)`` box corners.
    ``overrides``, None or one entry per layer, holds for layer i None or
    a ``(lower, upper)`` pair of ``(B, w_i)`` arrays intersected into
    layer i's bounds (NaN = none); anything else raises ``ValueError``.
    A ReLU split is such an override: a lower bound of 0 pins the neuron
    to its active side, an upper bound of 0 to its inactive side.  Each
    ReLU's envelope follows from its layer's bounds after overrides and
    refinement (see :func:`_relax_rows`).

    ``refine``, when given, may tighten every layer's bounds before its
    ReLU relaxation is built (branch and bound runs complete clipping
    there).  It is called once per layer, as ``refine(i, planes, lower,
    upper, alive) -> (lower, upper, empty)``:

    * ``planes`` is a :class:`BoundingPlanes` whose arrays carry the batch
      axis: ``a_low`` / ``a_up`` are ``(B, w_i, n)`` and ``c_low`` /
      ``c_up`` are ``(B, w_i)``;
    * ``lower`` / ``upper`` are layer i's ``(B, w_i)`` bounds after the
      overrides;
    * ``alive`` is a ``(B,)`` mask of the domains not yet proven empty.
      The rows of the other domains are meaningless and must not be used;
      the call is skipped when no domain is alive;
    * it returns the tightened ``(B, w_i)`` bounds (rows of domains not
      alive are ignored) and a ``(B,)`` mask of the domains it proved
      empty.

    ``deadline``, when given, is a ``time.perf_counter()`` reading that the
    backward walk of every layer after the first checks before each of its
    blocks, so between layers and, where a walk takes several blocks,
    within one.  Once it has passed, the pass raises
    :class:`DeadlinePassed`.

    Returns one :class:`BoundsResult` whose arrays carry the batch axis
    (layer bounds ``(B, w_i)``, planes ``(B, w_i, n)`` and ``(B, w_i)``,
    ``final_lower`` ``(B, r)``, objective coefficients and relaxation
    slopes and offsets ``(B, w_i)``), and the ``(B,)`` mask of the domains
    proven empty: by ``refine``, or by bounds that cross after overrides
    and refinement (a split that the bounds rule out among them).  The
    rows of such a domain are meaningless; it is never alive again, and
    its rows never reach the others.  Branch and bound reads this form and
    keeps copies of the rows it queues.
    """
    policy = policy or AlphaPolicy.fixed(1.0)
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.ndim != 2 or lowers.shape != uppers.shape or lowers.shape[1] != model.input_dim or not len(lowers):
        raise ValueError("box corners must be (B, n) arrays matching the model input, at least one box per pass")
    if not (np.isfinite(lowers).all() and np.isfinite(uppers).all()):
        raise ValueError("box corners must be finite")
    if np.any(lowers > uppers):
        raise EmptyBoxError("operation requires a nonempty box")
    batch = lowers.shape[0]
    _check_overrides(model, overrides, (batch,))
    if policy.kind == "root" and policy.slopes is not None:
        _check_slopes(model, policy.slopes)
    centers = 0.5 * (lowers + uppers)
    radii = 0.5 * (uppers - lowers)
    empty = np.zeros(batch, dtype=bool)
    last = model.num_layers - 1
    steps, work = _walk_blocks(model.layers, batch)

    relaxations = []
    slopes = []
    all_bounds = []
    all_planes = []
    for i in range(model.num_layers):
        a, c, coeffs = _walk(model.layers, relaxations, i, batch, steps[i], work, i == last, deadline)
        r = a.shape[1] // 2
        mid, span = box_range(a, c, centers, radii)
        ext = mid - span
        lower, upper = ext[:, :r], -ext[:, r:]
        if overrides is not None and overrides[i] is not None:
            ovr_lo, ovr_hi = overrides[i]
            lower = np.where(np.isnan(ovr_lo), lower, np.maximum(lower, ovr_lo))
            upper = np.where(np.isnan(ovr_hi), upper, np.minimum(upper, ovr_hi))
        # the walk's second half holds the upper planes negated; turn them
        # in place (negation is exact) and hand out views of both halves
        np.negative(a[:, r:], out=a[:, r:])
        np.negative(c[:, r:], out=c[:, r:])
        planes = BoundingPlanes(a[:, :r], c[:, :r], a[:, r:], c[:, r:])
        if refine is not None and not empty.all():
            lower, upper, proved = refine(i, planes, lower, upper, ~empty)
            empty |= proved
        empty |= np.any(lower > upper, axis=1)
        all_bounds.append((lower, upper))
        all_planes.append(planes)
        if i < last:
            alpha = _alpha(policy, i, lower, upper)
            slopes.append(alpha)
            relaxations.append(_relax_rows(lower, upper, alpha))

    if policy.kind == "root" and policy.slopes is None:
        policy = AlphaPolicy.root(slopes)
    result = BoundsResult(
        layer_bounds=[LayerBounds(lo, hi) for lo, hi in all_bounds],
        planes=all_planes,
        final_lower=all_bounds[-1][0],
        objective_coeffs=[coeffs[k] for k in range(last)],
        relaxations=relaxations,
        policy=policy,
    )
    return result, empty


def zero_slope_lower(model: NetworkModel, res: BoundsResult, lowers, uppers) -> np.ndarray:
    """Another lower bound of every output row of each domain of the
    batch-form pass ``res`` (see :func:`bound_batch`) over its box, whose
    ``(B, n)`` corners are ``lowers`` / ``uppers``: ``(B, r)``.

    It walks back from the output rows once more through the pass's own
    relaxations, but with the lower slope 0 wherever the lower and upper
    slopes differ (the free unstable ReLUs): relu(z) >= 0 holds for every
    z, so this plane is as valid as the pass's, and tighter where an
    unstable neuron leans negative.  The walk takes the lower rows only,
    for all domains at once: its coefficient arrays are ``(B, r, w)``, r
    the output rows, where the pass's walk to a hidden layer holds twice
    that layer's rows per domain.
    """
    layers = model.layers
    a, c = layers[-1].weights, layers[-1].bias
    for k in range(len(res.relaxations) - 1, -1, -1):
        rel = res.relaxations[k]
        neg = np.minimum(a, 0.0)
        c = c + (neg @ rel.upper_offset[:, :, None])[..., 0]
        # where the slopes agree, both signs of a take that one slope;
        # elsewhere a positive coefficient takes slope 0
        a = np.where((rel.lower_slope == rel.upper_slope)[:, None], a, neg)
        a *= rel.upper_slope[:, None]
        c += a @ layers[k].bias
        a = a @ layers[k].weights
    mid, span = box_range(a, c, 0.5 * (lowers + uppers), 0.5 * (uppers - lowers))
    return mid - span


def _domain(res: BoundsResult, b: int) -> BoundsResult:
    """Domain ``b``'s result out of a pass's batch-form result: views of
    its rows, and its own copy of ``final_lower``."""
    return BoundsResult(
        layer_bounds=[LayerBounds(lb.lower[b], lb.upper[b]) for lb in res.layer_bounds],
        planes=[BoundingPlanes(p.a_low[b], p.c_low[b], p.a_up[b], p.c_up[b]) for p in res.planes],
        final_lower=res.final_lower[b].copy(),
        objective_coeffs=[coeffs[b] for coeffs in res.objective_coeffs],
        relaxations=[ReluRelaxation(rel.lower_slope[b], rel.upper_slope[b], rel.upper_offset[b])
                     for rel in res.relaxations],
        policy=res.policy,
    )


def compute_bounds(
    model: NetworkModel,
    box: BoxDomain,
    policy: AlphaPolicy | None = None,
    overrides=None,
) -> BoundsResult:
    """Bound every layer of ``model`` over ``box``: the one-box case of
    :func:`bound_batch`.

    Layers are processed front to back; each one gets fresh planes from a
    backward pass through the relaxations built so far, then concrete
    interval bounds.  ``overrides``, None or one entry per layer, holds for
    layer i None or a ``(lower, upper)`` pair, each side None or a
    ``(w_i,)`` array (NaN entries mean "no override"); anything else raises
    ``ValueError``, naming the layer.  The pair is intersected into layer
    i's bounds before the layer's ReLU relaxation is built, so it
    propagates to everything downstream.  A ReLU split is an override of
    0, as in :func:`bound_batch`.  To tighten bounds during the pass, call
    :func:`bound_batch` with a ``refine``.

    Raises :class:`InfeasibleSplitError` when the bounds cross (lower >
    upper), a split the bounds rule out among them; callers treat that as
    a verified-empty subproblem.
    """
    if box.dim != model.input_dim:
        raise ValueError("box dimension does not match model input")
    _check_overrides(model, overrides, ())
    # one (lower, upper) pair of one-row arrays per layer, NaN where unset
    stacked = [np.full((2, 1, layer.out_dim), np.nan) for layer in model.layers]
    for pair, entry in zip(stacked, overrides or []):
        for row, given in zip(pair, (None, None) if entry is None else entry):
            if given is not None:
                row[0] = given
    # without a refine, the pass finds the box empty only where bounds cross
    res, _ = bound_batch(model, box.lower[None], box.upper[None], policy, stacked)
    for i, lb in enumerate(res.layer_bounds):
        crossed = np.flatnonzero(lb.lower[0] > lb.upper[0])
        if crossed.size:
            j = crossed[0]
            raise InfeasibleSplitError(
                f"layer {i} neuron {j}: lower bound {lb.lower[0, j]} exceeds upper bound "
                f"{lb.upper[0, j]} under the overrides"
            )
    return _domain(res, 0)
