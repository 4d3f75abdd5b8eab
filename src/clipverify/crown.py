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
upper plane of z is minus the lower plane of -z and negation is exact.
Each layer is then concretized once, and its ReLU relaxation is built
row-wise with masks.  Between the two, one optional batched ``refine``
callable may tighten the layer's bounds for the whole batch: it gets the
layer index, the batch's planes and bounds and a mask of the domains still
alive, and returns the tightened bounds and a mask of the domains it proved
empty (see :func:`bound_batch`).  :func:`compute_bounds` is the one-box
case, with a per-domain ``refine_hook``.

Unstable ReLUs use the triangle envelope: upper side is the chord through
``(l, 0)`` and ``(u, u)``, lower side is a line ``alpha * z`` through the
origin with a selectable slope ``alpha`` in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (  # noqa: F401  (concretize: patch point for tracers)
    BoxDomain,
    EmptyBoxError,
    concretize,
)
from .network import NetworkModel

# Intervals narrower than this are collapsed to a stable neuron at the sign
# of the upper bound; avoids dividing by u - l in the chord slope.  A
# collapsed neuron with l < 0 <= u keeps the identity slopes, but its upper
# side is lifted by -l (see relax_relu) so that the envelope stays sound.
STABLE_WIDTH_TOL = 1e-12


class InfeasibleSplitError(Exception):
    """A forced activation assignment (or bound override) is unsatisfiable."""


class NeuronStatus(Enum):
    STABLE_ACTIVE = "stable_active"
    STABLE_INACTIVE = "stable_inactive"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class AlphaPolicy:
    """Choice of the lower-envelope slope for unstable ReLUs.

    ``fixed(v)`` uses the constant slope v for every unstable neuron.
    ``adaptive()`` picks slope 1 when ``u >= -l`` (the interval leans
    positive) and 0 otherwise, per neuron.
    """

    kind: str = "fixed"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise ValueError(f"unknown alpha policy kind {self.kind!r}")
        if self.kind == "fixed" and not (0.0 <= self.value <= 1.0):
            raise ValueError("fixed alpha must lie in [0, 1]")

    @classmethod
    def fixed(cls, value: float = 1.0) -> "AlphaPolicy":
        return cls("fixed", float(value))

    @classmethod
    def adaptive(cls) -> "AlphaPolicy":
        return cls("adaptive", 0.0)


@dataclass
class LayerBounds:
    """Concrete interval bounds for one layer's pre-activations."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass
class ReluRelaxation:
    """Per-neuron linear envelope slopes and offsets for one ReLU layer.

    Guarantees ``lower_slope * z <= relu(z) <= upper_slope * z +
    upper_offset`` for all z in [l, u] (or, for a forced neuron, for all z
    on the forced side).  The lower side always passes through the origin,
    so it has no offset.
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
    concretized lower bound per output row.  ``objective_coeffs[i]`` is the
    mean, over output rows, of the backward coefficients that the final
    lower-bound pass accumulated on layer i's post-activations; branching
    scores consume it.
    """

    layer_bounds: list
    planes: list
    final_lower: np.ndarray
    objective_coeffs: list = field(default_factory=list)


def neuron_status(lower: float, upper: float) -> NeuronStatus:
    if upper - lower < STABLE_WIDTH_TOL:
        return NeuronStatus.STABLE_ACTIVE if upper >= 0.0 else NeuronStatus.STABLE_INACTIVE
    if lower >= 0.0:
        return NeuronStatus.STABLE_ACTIVE
    if upper <= 0.0:
        return NeuronStatus.STABLE_INACTIVE
    return NeuronStatus.UNSTABLE


def _relax_rows(lower, upper, policy: AlphaPolicy, forced):
    """Envelopes for bound arrays of any shape, one neuron per element,
    with masks in place of a per-neuron loop.

    Returns the :class:`ReluRelaxation` (arrays shaped like ``lower``) and
    the mask of neurons whose forced side the bounds rule out.
    """
    on, off = forced > 0, forced < 0
    free = ~(on | off)
    width = upper - lower
    collapsed = width < STABLE_WIDTH_TOL
    active = free & np.where(collapsed, upper >= 0.0, lower >= 0.0)
    unstable = free & ~collapsed & (lower < 0.0) & (upper > 0.0)
    slope = upper / np.where(unstable, width, 1.0)
    if policy.kind == "fixed":
        alpha = policy.value
    else:
        alpha = np.where(upper >= -lower, 1.0, 0.0)
    identity = on | active
    lower_slope = np.where(identity, 1.0, np.where(unstable, alpha, 0.0))
    upper_slope = np.where(identity, 1.0, np.where(unstable, slope, 0.0))
    # A tiny interval straddling zero, collapsed to active: relu(z) <= z - l
    # on [l, u], while the identity dips below.
    upper_offset = np.where(
        active & (lower < 0.0), -lower, np.where(unstable, -lower * slope, 0.0)
    )
    rel = ReluRelaxation(lower_slope, upper_slope, upper_offset)
    return rel, (on & (upper < 0.0)) | (off & (lower > 0.0))


def _forced_side_error(j: int, side, lower, upper) -> InfeasibleSplitError:
    if side > 0:
        return InfeasibleSplitError(
            f"neuron {j} forced active but its upper bound {upper} is negative"
        )
    return InfeasibleSplitError(
        f"neuron {j} forced inactive but its lower bound {lower} is positive"
    )


def relax_relu(
    lower: np.ndarray,
    upper: np.ndarray,
    policy: AlphaPolicy,
    forced: np.ndarray | None = None,
) -> ReluRelaxation:
    """Build linear envelopes for one ReLU layer.

    Parameters
    ----------
    lower, upper : arrays, shape (w,)
        Pre-activation interval bounds.
    policy : AlphaPolicy
        Lower-envelope slope selection for unstable neurons.
    forced : array of {-1, 0, +1} or None
        +1 pins the neuron to its active side (identity), -1 to its inactive
        side (zero); 0 leaves it free.  A forced side that the interval
        rules out raises :class:`InfeasibleSplitError` for the first such
        neuron.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be matching 1-D arrays")
    if forced is None:
        forced = np.zeros(lower.size, dtype=int)
    else:
        forced = np.asarray(forced, dtype=int)
        if forced.shape != lower.shape:
            raise ValueError("forced assignment shape does not match layer width")
    rel, bad = _relax_rows(lower, upper, policy, forced)
    if bad.any():
        j = int(np.argmax(bad))
        raise _forced_side_error(j, forced[j], lower[j], upper[j])
    return rel


def _workspace(layers, batch: int) -> np.ndarray:
    """Three flat buffers, each large enough for any ``(batch, 2r, w)``
    coefficient array of a backward walk through ``layers``."""
    widest = max(max(layer.weights.shape) for layer in layers)
    return np.empty((3, batch * 2 * widest * widest))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: int(np.prod(shape))].reshape(shape)


def _walk(layers, relaxations, target: int, batch: int, work, collect_coeffs: bool = False):
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

    The intermediate coefficient arrays rotate through the three buffers of
    ``work`` (see :func:`_workspace`): at these sizes, fresh large
    temporaries cost more than the arithmetic done in them.  Only the
    returned arrays are newly allocated.

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
    a = _view(work[0], (batch,) + stack.shape)
    a[...] = stack
    coeffs = {}
    for k in range(target - 1, -1, -1):
        rel = relaxations[k]
        if collect_coeffs:
            coeffs[k] = a[:, :rows].mean(axis=1)
        neg = np.minimum(a, 0.0, out=_view(work[1], a.shape))
        pos = np.maximum(a, 0.0, out=a)
        c = c + (neg @ rel.upper_offset[:, :, None])[..., 0]
        pos *= rel.lower_slope[:, None, :]
        neg *= rel.upper_slope[:, None, :]
        pos += neg
        c = c + pos @ layers[k].bias
        out = _view(work[2], (batch, a.shape[1], layers[k].weights.shape[1])) if k else None
        a = np.matmul(pos, layers[k].weights, out=out)
        work = (work[2], work[1], work[0])
    return a, c, coeffs


def stack_splits(model: NetworkModel, splits_per_domain) -> list:
    """Split dicts {(layer, neuron): +-1}, one per domain, to per-layer
    ``(B, w)`` forced-side arrays."""
    forced = [
        np.zeros((len(splits_per_domain), layer.out_dim), dtype=int)
        for layer in model.layers[:-1]
    ]
    for b, splits in enumerate(splits_per_domain):
        for (li, j), pol in (splits or {}).items():
            if not 0 <= li < model.num_layers - 1:
                raise ValueError(f"split layer {li} out of range")
            if not 0 <= j < model.layers[li].out_dim:
                raise ValueError(f"split neuron {j} out of range for layer {li}")
            if pol not in (-1, 1):
                raise ValueError("split polarity must be +1 (active) or -1 (inactive)")
            forced[li][b, j] = pol
    return forced


def stack_overrides(model: NetworkModel, overrides_per_domain) -> list:
    """Override lists, one per domain, to per-layer ``(lower, upper)`` pairs
    of ``(B, w)`` arrays (NaN = none); None for a layer no domain touches.

    A domain's list may be None or shorter than the network; its entries
    are None or ``(lower, upper)`` pairs whose sides may be None.
    """
    out = []
    for i, layer in enumerate(model.layers):
        entries = [
            ovr[i] if ovr is not None and i < len(ovr) else None
            for ovr in overrides_per_domain
        ]
        if all(e is None for e in entries):
            out.append(None)
            continue
        lo = np.full((len(entries), layer.out_dim), np.nan)
        hi = lo.copy()
        for b, entry in enumerate(entries):
            if entry is not None:
                if entry[0] is not None:
                    lo[b] = entry[0]
                if entry[1] is not None:
                    hi[b] = entry[1]
        out.append((lo, hi))
    return out


def _bound_rows(model, lowers, uppers, policy, forced, overrides, refine) -> list:
    """The batched pass behind :func:`bound_batch`; a proven-empty domain
    gets the :class:`InfeasibleSplitError` that proved it instead of None."""
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.ndim != 2 or lowers.shape != uppers.shape or lowers.shape[1] != model.input_dim:
        raise ValueError("box corners must be (B, n) arrays matching the model input")
    if np.any(lowers > uppers):
        raise EmptyBoxError("operation requires a nonempty box")
    batch = lowers.shape[0]
    center = (0.5 * (lowers + uppers))[:, :, None]
    radius = (0.5 * (uppers - lowers))[:, :, None]
    failed = [None] * batch
    last = model.num_layers - 1
    work = _workspace(model.layers, batch)

    relaxations = []
    all_bounds = []
    all_planes = []
    for i in range(model.num_layers):
        a, c, coeffs = _walk(model.layers, relaxations, i, batch, work, collect_coeffs=i == last)
        r = a.shape[1] // 2
        ext = (a @ center)[..., 0] - (np.abs(a) @ radius)[..., 0] + c
        lower, upper = ext[:, :r], -ext[:, r:]
        if overrides is not None and overrides[i] is not None:
            ovr_lo, ovr_hi = overrides[i]
            lower = np.where(np.isnan(ovr_lo), lower, np.maximum(lower, ovr_lo))
            upper = np.where(np.isnan(ovr_hi), upper, np.minimum(upper, ovr_hi))
        planes = BoundingPlanes(a[:, :r], c[:, :r], -a[:, r:], -c[:, r:])
        if refine is not None:
            alive = np.array([err is None for err in failed])
            if alive.any():
                lower, upper, empty = refine(i, planes, lower, upper, alive)
                for b in np.flatnonzero(empty & alive):
                    failed[b] = InfeasibleSplitError(
                        f"layer {i}: refinement proved the domain empty"
                    )
        for b in np.flatnonzero(np.any(lower > upper, axis=1)):
            if failed[b] is None:
                failed[b] = InfeasibleSplitError(f"layer {i} bounds crossed after tightening")
        all_bounds.append((lower, upper))
        all_planes.append(planes)
        if i < last:
            side = forced[i] if forced is not None else np.zeros(lower.shape, dtype=int)
            rel, bad = _relax_rows(lower, upper, policy, side)
            for b in np.flatnonzero(bad.any(axis=1)):
                if failed[b] is None:
                    j = int(np.argmax(bad[b]))
                    failed[b] = _forced_side_error(j, side[b, j], lower[b, j], upper[b, j])
            relaxations.append(rel)

    return [
        failed[b]
        if failed[b] is not None
        else BoundsResult(
            layer_bounds=[LayerBounds(lo[b], hi[b]) for lo, hi in all_bounds],
            planes=[
                BoundingPlanes(p.a_low[b], p.c_low[b], p.a_up[b], p.c_up[b]) for p in all_planes
            ],
            final_lower=all_bounds[-1][0][b].copy(),
            objective_coeffs=[coeffs[k][b] for k in range(last)],
        )
        for b in range(batch)
    ]


def bound_batch(
    model: NetworkModel,
    lowers: np.ndarray,
    uppers: np.ndarray,
    policy: AlphaPolicy | None = None,
    forced=None,
    overrides=None,
    refine=None,
) -> list:
    """Bound every layer of ``model`` over B boxes in one pass.

    ``lowers`` / ``uppers`` are the ``(B, n)`` box corners.  ``forced[i]``
    is a ``(B, w_i)`` array of ReLU sides (+1 active, -1 inactive, 0 free;
    see :func:`stack_splits`), and ``overrides[i]`` None or a ``(lower,
    upper)`` pair of ``(B, w_i)`` arrays intersected into layer i's bounds
    (NaN = none; see :func:`stack_overrides`).

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

    Returns one :class:`BoundsResult` per box, or None for a box proven
    empty: by bounds that cross after overrides and refinement, by a forced
    side the bounds rule out, or by ``refine``.  A domain proven empty is
    never alive again, and its row never reaches the others.
    """
    out = _bound_rows(
        model, lowers, uppers, policy or AlphaPolicy.fixed(1.0), forced, overrides, refine
    )
    return [None if isinstance(res, InfeasibleSplitError) else res for res in out]


def _one_box_refine(hook):
    """A per-domain ``refine_hook`` as the batched refine of a B = 1 pass;
    the hook's InfeasibleSplitError propagates."""
    if hook is None:
        return None

    def refine(i, planes, lower, upper, alive):
        one = BoundingPlanes(planes.a_low[0], planes.c_low[0], planes.a_up[0], planes.c_up[0])
        lo, hi = hook(i, one, lower[0], upper[0])
        return (
            np.asarray(lo, dtype=float)[None],
            np.asarray(hi, dtype=float)[None],
            np.zeros(1, dtype=bool),
        )

    return refine


def compute_bounds(
    model: NetworkModel,
    box: BoxDomain,
    policy: AlphaPolicy | None = None,
    splits=None,
    overrides=None,
    refine_hook=None,
) -> BoundsResult:
    """Bound every layer of ``model`` over ``box``: the one-box case of
    :func:`bound_batch`.

    Layers are processed front to back; each one gets fresh planes from a
    backward pass through the relaxations built so far, then concrete
    interval bounds.  Tightenings are folded in before the layer's ReLU
    relaxation is built, so they propagate to everything downstream:

    * ``overrides[i]``, an optional ``(lower, upper)`` pair of arrays (NaN
      entries mean "no override"), is intersected into layer i's bounds;
    * ``refine_hook(i, planes, lower, upper) -> (lower, upper)``, when
      given, may tighten further, and may raise
      :class:`InfeasibleSplitError` to declare the box empty.  It sees one
      domain's planes and bounds; it is the batched ``refine`` of
      :func:`bound_batch` for a batch of one.

    ``splits`` maps ``(layer, neuron)`` to +-1 and pins ReLUs to one side.
    Raises :class:`InfeasibleSplitError` when overrides cross (lower >
    upper) or a forced side is unsatisfiable; callers treat that as a
    verified-empty subproblem.
    """
    if box.dim != model.input_dim:
        raise ValueError("box dimension does not match model input")
    (res,) = _bound_rows(
        model,
        box.lower[None],
        box.upper[None],
        policy or AlphaPolicy.fixed(1.0),
        stack_splits(model, [splits]),
        stack_overrides(model, [overrides]),
        _one_box_refine(refine_hook),
    )
    if isinstance(res, InfeasibleSplitError):
        raise res
    return res
