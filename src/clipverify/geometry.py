"""Axis-aligned input boxes and affine half-space constraints.

Boxes are stored as (lower, upper) coordinate vectors.  A constraint is the
half-space ``g . x + h <= 0``.  Everything downstream (bound concretization,
clipping, branch and bound) reduces to a handful of primitives on these two
shapes, collected here.  Every bound of an affine function over a box, in
any module and for any batch of boxes, is one call of :func:`box_range`;
:func:`screen_rows` uses it to tell, per half-space, whether it excludes a
box, cuts through it or holds on all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Coefficients below this magnitude are treated as exact zeros when a
# division by the coefficient would otherwise occur.
ZERO_COEFF_TOL = 1e-15


class GeometryError(ValueError):
    """A geometric operation was called outside its contract."""


class EmptyBoxError(GeometryError):
    """The operation requires a nonempty box."""


class FeasibilityStatus(Enum):
    """How a half-space relates to a box.

    INFEASIBLE: no point of the box satisfies the constraint.
    REDUNDANT:  every point of the box satisfies it.
    ACTIVE:     the constraint cuts through the box.
    """

    INFEASIBLE = "infeasible"
    REDUNDANT = "redundant"
    ACTIVE = "active"


@dataclass
class BoxDomain:
    """Hyper-rectangle ``{x : lower <= x <= upper}``.

    The box is empty exactly when ``lower[i] > upper[i]`` for some i.  Empty
    boxes are legal values (clipping produces them to signal infeasibility)
    but most queries on them raise :class:`EmptyBoxError`.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.upper.ndim != 1:
            raise GeometryError("box bounds must be one-dimensional")
        if self.lower.shape != self.upper.shape:
            raise GeometryError("box bounds must have matching shapes")
        if self.lower.size == 0:
            raise GeometryError("box must have at least one dimension")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise GeometryError("box bounds must be finite")

    @classmethod
    def empty(cls, dim: int) -> "BoxDomain":
        """Canonical empty box of the given dimension."""
        return cls(np.zeros(dim), np.full(dim, -1.0))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.lower > self.upper))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> np.ndarray:
        """Per-coordinate half-width (nonnegative iff the box is nonempty)."""
        return 0.5 * (self.upper - self.lower)

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise GeometryError("point dimension does not match box")
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def copy(self) -> "BoxDomain":
        return BoxDomain(self.lower.copy(), self.upper.copy())


@dataclass
class LinearConstraint:
    """Half-space ``normal . x + offset <= 0``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = np.atleast_1d(np.asarray(self.normal, dtype=float))
        self.offset = float(self.offset)
        if self.normal.ndim != 1:
            raise GeometryError("constraint normal must be one-dimensional")
        if not (np.isfinite(self.normal).all() and np.isfinite(self.offset)):
            raise GeometryError("constraint coefficients must be finite")

    @property
    def dim(self) -> int:
        return self.normal.size


def _check_box(box: BoxDomain, dim: int | None = None) -> None:
    if box.is_empty:
        raise EmptyBoxError("operation requires a nonempty box")
    if dim is not None and box.dim != dim:
        raise GeometryError(f"dimension mismatch: box has {box.dim}, expected {dim}")


def box_range(a, c, centers, radii) -> tuple:
    """Range of affine rows over boxes, as ``(mid, span)``.

    ``mid = a . center + c`` and ``span = |a| . radius``, so over the box
    the row ``a . x + c`` takes exactly the values in ``[mid - span, mid +
    span]``.  ``a`` is ``(..., r, n)`` (or ``(n,)`` for one row), ``c``
    broadcasts against ``(..., r)`` and ``centers`` / ``radii`` are
    ``(..., n)``, with the same leading batch axes as ``a``; so one call
    bounds every row of every box of a batch.  This is the one place any
    affine function is bounded over a box: concretized bounds, dual
    values, plane screens and the feasibility screen of half-spaces all
    come from it.
    """
    mid = (a @ centers[..., None])[..., 0] + c
    span = (np.abs(a) @ radii[..., None])[..., 0]
    return mid, span


def concretize(a: np.ndarray, c, box: BoxDomain, direction: str):
    """Extreme value of the affine function ``a . x + c`` over a box.

    Closed form via the center / half-width split of the box (see
    :func:`box_range`): min = a . center + c - |a| . radius, max = a .
    center + c + |a| . radius.

    Parameters
    ----------
    a : array, shape (n,) or (rows, n)
        Coefficient vector, or a stack of row vectors handled at once.
    c : float or array, shape (rows,)
        Constant term, one per row of `a`.
    box : BoxDomain
        Nonempty box to optimize over.
    direction : str
        Either ``"min"`` or ``"max"``.

    Returns
    -------
    float or ndarray
        Scalar for a single row, vector of extremes for a stack.
    """
    a = np.asarray(a, dtype=float)
    _check_box(box, a.shape[-1])
    if direction not in ("min", "max"):
        raise GeometryError(f"direction must be 'min' or 'max', got {direction!r}")
    mid, span = box_range(a, np.asarray(c, dtype=float), box.center, box.radius)
    out = mid - span if direction == "min" else mid + span
    if a.ndim == 1:
        return float(out)
    return out


def screen_rows(centers, radii, normals, offsets) -> tuple:
    """Screen every constraint row of B domains against its domain's box.

    With boxes given by ``centers`` / ``radii`` (B, n) and constraints by
    ``normals`` (B, M, n) / ``offsets`` (B, M), returns ``(feasible,
    active)``: a (B,) mask of the domains no row excludes entirely, and a
    (B, M) mask of the rows not redundant for their box.  In a feasible
    domain, those are the rows that cut through the box.  A row's minimum
    over the box above zero excludes the box (INFEASIBLE); its maximum at
    or below zero means every box point satisfies it (REDUNDANT).  The
    leading batch axis may also be left out.
    """
    mid, span = box_range(normals, offsets, centers, radii)
    return ~np.any(mid - span > 0.0, axis=-1), mid + span > 0.0


def classify_constraint(box: BoxDomain, cons: LinearConstraint) -> FeasibilityStatus:
    """Classify a half-space against a box: the one-row case of
    :func:`screen_rows`."""
    _check_box(box, cons.dim)
    feasible, active = screen_rows(
        box.center, box.radius, cons.normal[None], np.array([cons.offset])
    )
    if not feasible:
        return FeasibilityStatus.INFEASIBLE
    if not active[0]:
        return FeasibilityStatus.REDUNDANT
    return FeasibilityStatus.ACTIVE
