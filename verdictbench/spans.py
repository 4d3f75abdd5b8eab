"""Per-layer tracing of the engine, installed from outside the package.

The public calls each layer exposes are replaced, in the module namespaces
their callers look them up in, by wrappers that record one span per call:
name, start, end, parent span and instance id.  Spans stay in flat arrays
in memory; self time is a span's duration minus the time its direct
children cover.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Span names in the order the report lists them.  "bab.run_bab" is the root
# span of each instance, opened by the benchmark loop itself.
SPAN_NAMES = (
    "bab.run_bab",
    "bab.branch",
    "crown.compute_bounds",
    "crown.relax_relu",
    "geometry.concretize",
    "clipping.coordinate_ascent",
    "geometry.classify_constraint",
    "clipping.dual_value",
    "clipping.relaxed_clip",
    "network.evaluate",
)

# (module attribute holding the callee, attribute name, span name).  Each
# entry patches the namespace the engine's callers resolve the name in.
PATCHES = (
    ("bab", "branch_input", "bab.branch"),
    ("bab", "branch_activation", "bab.branch"),
    ("bab", "compute_bounds", "crown.compute_bounds"),
    ("crown", "relax_relu", "crown.relax_relu"),
    ("crown", "concretize", "geometry.concretize"),
    ("bab", "coordinate_ascent", "clipping.coordinate_ascent"),
    ("clipping", "classify_constraint", "geometry.classify_constraint"),
    ("clipping", "dual_value", "clipping.dual_value"),
    ("bab", "relaxed_clip_parallel", "clipping.relaxed_clip"),
    ("bab", "relaxed_clip_sequential", "clipping.relaxed_clip"),
)


def _box_volume(box) -> float:
    if box.is_empty:
        return 0.0
    return float(np.prod(box.upper - box.lower))


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.instances = array("i")
        self.instance = -1
        self._stack = []
        self._restore = []
        self.constructions = {"geometry.box_constructions": 0,
                              "geometry.constraint_constructions": 0}
        self.ascent_constraints = 0
        self.ascent_useful = 0
        self.clip_ratio_sum = 0.0
        self.clip_empty = 0

    # -- recording -------------------------------------------------------
    def open(self, name_id: int) -> int:
        sid = len(self.names)
        self.names.append(name_id)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.instances.append(self.instance)
        self._stack.append(sid)
        return sid

    def open_instance(self, ident: int) -> int:
        """Open the root span of one instance's run."""
        self.instance = ident
        return self.open(SPAN_NAMES.index("bab.run_bab"))

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, after=None):
        name_id = SPAN_NAMES.index(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after_ascent(self, args, sol):
        self.ascent_constraints += args[3].size
        if sol.bound > sol.trace[0]:
            self.ascent_useful += 1

    def _after_clip(self, args, out):
        before = _box_volume(args[0])
        if out.is_empty:
            self.clip_empty += 1
        self.clip_ratio_sum += _box_volume(out) / before if before > 0.0 else 1.0

    def _count(self, fn, key: str):
        counts = self.constructions

        def counted(obj):
            counts[key] += 1
            fn(obj)

        return counted

    # -- installation ----------------------------------------------------
    def install(self, cv) -> None:
        """Patch the engine modules of the imported package ``cv``."""
        modules = {"bab": cv.bab, "crown": cv.crown, "clipping": cv.clipping}
        after = {"clipping.coordinate_ascent": self._after_ascent,
                 "clipping.relaxed_clip": self._after_clip}
        for mod_name, attr, span in PATCHES:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span, after.get(span)))
        evaluate = cv.network.NetworkModel.evaluate
        self._restore.append((cv.network.NetworkModel, "evaluate", evaluate))
        cv.network.NetworkModel.evaluate = self._wrap(evaluate, "network.evaluate")
        for cls, key in ((cv.geometry.BoxDomain, "geometry.box_constructions"),
                         (cv.geometry.LinearConstraint,
                          "geometry.constraint_constructions")):
            self._restore.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._count(cls.__post_init__, key)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------
    def self_times(self):
        """Per span name: (calls, self seconds), from the recorded spans."""
        names = np.frombuffer(self.names, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(SPAN_NAMES)}

    def inclusive_time(self, name: str) -> float:
        """Summed duration of the spans of ``name``, children included.

        No traced call reaches itself again, so these spans never nest.
        """
        names = np.frombuffer(self.names, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        return float(dur[names == SPAN_NAMES.index(name)].sum())

    def save(self, path) -> None:
        """Write every span as arrays (name id, start, end, parent, instance)."""
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            instance=np.frombuffer(self.instances, dtype=np.int32),
        )
