"""Backward linear bound propagation for feedforward ReLU networks.

Every pre-activation (and the final output) gets a pair of affine bounding
planes in the network input: ``A_low . x + c_low <= z <= A_up . x + c_up``
valid over a given box.  Planes are built by walking backwards through the
layers, replacing each ReLU with linear lower / upper envelopes chosen by
the sign of the accumulated coefficient, and are turned into scalar interval
bounds by concretizing against the box.

Unstable ReLUs use the triangle envelope: upper side is the chord through
``(l, 0)`` and ``(u, u)``, lower side is a line ``alpha * z`` through the
origin with a selectable slope ``alpha`` in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import BoxDomain, concretize
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

    Guarantees ``lower_slope * z + lower_offset <= relu(z) <= upper_slope * z
    + upper_offset`` for all z in [l, u] (or, for a forced neuron, for all z
    on the forced side).
    """

    lower_slope: np.ndarray
    lower_offset: np.ndarray
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


def classify_neurons(bounds: LayerBounds):
    """Status and envelope-gap score per neuron of one layer.

    The gap is the largest vertical distance between the two envelope sides,
    ``-u * l / (u - l)`` for an unstable neuron and zero for a stable one.
    It measures how much the relaxation can lose on that neuron.
    """
    lower = np.asarray(bounds.lower, dtype=float)
    upper = np.asarray(bounds.upper, dtype=float)
    statuses = [neuron_status(l, u) for l, u in zip(lower, upper)]
    gap = np.zeros(lower.size)
    for j, st in enumerate(statuses):
        if st is NeuronStatus.UNSTABLE:
            gap[j] = -upper[j] * lower[j] / (upper[j] - lower[j])
    return statuses, gap


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
        rules out raises :class:`InfeasibleSplitError`.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be matching 1-D arrays")
    w = lower.size
    if forced is None:
        forced = np.zeros(w, dtype=int)
    else:
        forced = np.asarray(forced, dtype=int)
        if forced.shape != (w,):
            raise ValueError("forced assignment shape does not match layer width")

    dl = np.zeros(w)
    bl = np.zeros(w)
    du = np.zeros(w)
    bu = np.zeros(w)

    for j in range(w):
        l, u = lower[j], upper[j]
        if forced[j] > 0:
            if u < 0.0:
                raise InfeasibleSplitError(
                    f"neuron {j} forced active but its upper bound {u} is negative"
                )
            dl[j] = du[j] = 1.0
            continue
        if forced[j] < 0:
            if l > 0.0:
                raise InfeasibleSplitError(
                    f"neuron {j} forced inactive but its lower bound {l} is positive"
                )
            continue
        status = neuron_status(l, u)
        if status is NeuronStatus.STABLE_ACTIVE:
            dl[j] = du[j] = 1.0
            if l < 0.0:
                # A tiny interval straddling zero, collapsed to active:
                # relu(z) <= z - l on [l, u], while the identity dips below.
                bu[j] = -l
        elif status is NeuronStatus.STABLE_INACTIVE:
            pass
        else:
            slope = u / (u - l)
            du[j] = slope
            bu[j] = -l * slope
            if policy.kind == "fixed":
                dl[j] = policy.value
            else:
                dl[j] = 1.0 if u >= -l else 0.0
    return ReluRelaxation(dl, bl, du, bu)


def _backward(layers, relaxations, target: int, collect_coeffs: bool = False):
    """Planes for layer ``target``'s pre-activations in the network input.

    ``relaxations[k]`` must cover the ReLU after layer k for k < target.
    Walking from the target towards the input, a positive accumulated
    coefficient keeps the envelope side it multiplies (lower side for the
    lower plane), a negative one swaps sides.
    """
    al = layers[target].weights.copy()
    cl = layers[target].bias.copy()
    au = al.copy()
    cu = cl.copy()
    coeffs = {}
    for k in range(target - 1, -1, -1):
        rel = relaxations[k]
        if collect_coeffs:
            coeffs[k] = al.mean(axis=0)
        pos, neg = np.maximum(al, 0.0), np.minimum(al, 0.0)
        cl = cl + pos @ rel.lower_offset + neg @ rel.upper_offset
        al = pos * rel.lower_slope + neg * rel.upper_slope
        pos, neg = np.maximum(au, 0.0), np.minimum(au, 0.0)
        cu = cu + pos @ rel.upper_offset + neg @ rel.lower_offset
        au = pos * rel.upper_slope + neg * rel.lower_slope
        cl = cl + al @ layers[k].bias
        cu = cu + au @ layers[k].bias
        al = al @ layers[k].weights
        au = au @ layers[k].weights
    if collect_coeffs:
        return BoundingPlanes(al, cl, au, cu), coeffs
    return BoundingPlanes(al, cl, au, cu)


def backward_bound(model: NetworkModel, relaxations, target: int) -> BoundingPlanes:
    """Public wrapper around the backward pass for one target layer."""
    if not 0 <= target < model.num_layers:
        raise ValueError(f"target layer {target} out of range")
    if len(relaxations) < target:
        raise ValueError("need a relaxation for every layer before the target")
    return _backward(model.layers, relaxations, target)


def _normalize_splits(splits, model: NetworkModel):
    """Split dict {(layer, neuron): +-1} to per-layer forced arrays."""
    forced = [np.zeros(layer.out_dim, dtype=int) for layer in model.layers[:-1]]
    if not splits:
        return forced
    for (li, j), pol in splits.items():
        if not 0 <= li < model.num_layers - 1:
            raise ValueError(f"split layer {li} out of range")
        if not 0 <= j < model.layers[li].out_dim:
            raise ValueError(f"split neuron {j} out of range for layer {li}")
        if pol not in (-1, 1):
            raise ValueError("split polarity must be +1 (active) or -1 (inactive)")
        forced[li][j] = pol
    return forced


def compute_bounds(
    model: NetworkModel,
    box: BoxDomain,
    policy: AlphaPolicy | None = None,
    splits=None,
    overrides=None,
    refine_hook=None,
) -> BoundsResult:
    """Bound every layer of ``model`` over ``box``.

    Layers are processed front to back; each one gets fresh planes from a
    backward pass through the relaxations built so far, then concrete
    interval bounds.  Tightenings are folded in before the layer's ReLU
    relaxation is built, so they propagate to everything downstream:

    * ``overrides[i]``, an optional ``(lower, upper)`` pair of arrays (NaN
      entries mean "no override"), is intersected into layer i's bounds;
    * ``refine_hook(i, planes, lower, upper) -> (lower, upper)``, when
      given, may tighten further (branch and bound uses it to run
      constraint-driven clipping mid-pass).

    ``splits`` maps ``(layer, neuron)`` to +-1 and pins ReLUs to one side.
    Raises :class:`InfeasibleSplitError` when overrides cross (lower >
    upper) or a forced side is unsatisfiable; callers treat that as a
    verified-empty subproblem.
    """
    policy = policy or AlphaPolicy.fixed(1.0)
    if box.dim != model.input_dim:
        raise ValueError("box dimension does not match model input")
    forced = _normalize_splits(splits, model)
    n_layers = model.num_layers

    relaxations = []
    all_bounds = []
    all_planes = []
    coeffs = {}
    for i in range(n_layers):
        last = i == n_layers - 1
        if last:
            planes, coeffs = _backward(model.layers, relaxations, i, collect_coeffs=True)
        else:
            planes = _backward(model.layers, relaxations, i)
        lower = np.atleast_1d(concretize(planes.a_low, planes.c_low, box, "min"))
        upper = np.atleast_1d(concretize(planes.a_up, planes.c_up, box, "max"))
        if overrides is not None and i < len(overrides) and overrides[i] is not None:
            ovr_lo, ovr_hi = overrides[i]
            if ovr_lo is not None:
                lower = np.where(np.isnan(ovr_lo), lower, np.maximum(lower, ovr_lo))
            if ovr_hi is not None:
                upper = np.where(np.isnan(ovr_hi), upper, np.minimum(upper, ovr_hi))
        if refine_hook is not None:
            lower, upper = refine_hook(i, planes, lower, upper)
        if np.any(lower > upper):
            raise InfeasibleSplitError(f"layer {i} bounds crossed after tightening")
        all_bounds.append(LayerBounds(lower, upper))
        all_planes.append(planes)
        if not last:
            relaxations.append(relax_relu(lower, upper, policy, forced[i]))

    objective_coeffs = [coeffs.get(k) for k in range(n_layers - 1)]
    return BoundsResult(
        layer_bounds=all_bounds,
        planes=all_planes,
        final_lower=all_bounds[-1].lower.copy(),
        objective_coeffs=objective_coeffs,
    )
