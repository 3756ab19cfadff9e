"""Spans around calls into the package's layers, recorded from outside.

The traced worker wraps public functions where their callers look them up
(module globals and class attributes), so the program itself is unchanged.
Each call becomes a span ``(name, start, end, parent)`` kept in compact
arrays and written once at the end.  A layer is the module part of a span
name; its self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Dict, List

import numpy as np

# span name -> (defining module, attribute); every lipselect module global
# bound to the same function object is replaced, which covers each caller
FUNCTIONS = {
    "metric.build_separation_hierarchy": ("lipselect.metric", "build_separation_hierarchy"),
    "metric.covering_radius": ("lipselect.metric", "covering_radius"),
    "correspondence.local_strong_selection": ("lipselect.correspondence", "local_strong_selection"),
    "correspondence.inverse_image_correspondence": (
        "lipselect.correspondence", "inverse_image_correspondence"),
    "iteration.run_iteration": ("lipselect.iteration", "run_iteration"),
    "iteration.compute_delta": ("lipselect.iteration", "compute_delta"),
    "iteration.blend_round": ("lipselect.iteration", "blend_round"),
    "iteration.verify_sequence": ("lipselect.iteration", "verify_sequence"),
    "iteration.verify_round_properties": ("lipselect.iteration", "verify_round_properties"),
    "lipschitz.verify_homogeneous_plip": ("lipselect.lipschitz", "verify_homogeneous_plip"),
    "lipschitz.homogeneous_extension": ("lipselect.lipschitz", "homogeneous_extension"),
    "lipschitz.plip_profile": ("lipselect.lipschitz", "plip_profile"),
    "bartle_graves.build_right_inverse": ("lipselect.bartle_graves", "build_right_inverse"),
    "bartle_graves.verify_right_inverse": ("lipselect.bartle_graves", "verify_right_inverse"),
    "bartle_graves.sphere_sample": ("lipselect.bartle_graves", "sphere_sample"),
    "formats.write_report": ("lipselect.formats", "write_report"),
    "formats.sequence_to_dict": ("lipselect.formats", "sequence_to_dict"),
    "formats.sequence_from_dict": ("lipselect.formats", "sequence_from_dict"),
}

# span name -> [(class path, attribute)]; classmethods stay classmethods
METHODS = {
    "metric.SampledMetricSpace.__init__": [("lipselect.metric.SampledMetricSpace", "__init__")],
    "metric.distance_matrix": [("lipselect.metric.SampledMetricSpace", "distance_matrix")],
    "convex.Ball.project": [("lipselect.convex.Ball", "project")],
    "convex.Polytope.project": [("lipselect.convex.Polytope", "project")],
    "convex.AffineFlat.project": [("lipselect.convex.AffineFlat", "project")],
    "convex.distance_to": [
        ("lipselect.convex.ConvexBody", "distance_to"),
        ("lipselect.convex.AffineFlat", "distance_to"),
        ("lipselect.convex.Ball", "distance_to"),
    ],
    "correspondence.Correspondence.from_json_dict": [
        ("lipselect.correspondence.Correspondence", "from_json_dict")],
    "correspondence.LinearSurjection.from_json_dict": [
        ("lipselect.correspondence.LinearSurjection", "from_json_dict")],
}


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.rounds: List[dict] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in the loaded ``lipselect`` modules."""
        modules = [m for n, m in sys.modules.items() if n == "lipselect" or n.startswith("lipselect.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            if name == "iteration.run_iteration":
                traced = self._capturing(traced)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for name, sites in METHODS.items():
            for cls_path, attr in sites:
                cls = _resolve(cls_path)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))

    def _capturing(self, run_iteration):
        """Keep each round's new anchors and radii for the derived counters."""

        @functools.wraps(run_iteration)
        def captured(*args, **kwargs):
            seq = run_iteration(*args, **kwargs)
            self.rounds.extend(
                {"n": r.n, "deltas": [[int(b), float(d)] for b, d in r.deltas.items()]}
                for r in seq.rounds
            )
            return seq

        return captured

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            rounds=np.array(json.dumps(self.rounds)),
        )


def summarize(path) -> dict:
    """Per span name: calls, inclusive and self seconds; plus the captured
    rounds and the span count."""
    with np.load(path, allow_pickle=False) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        duration = data["end"] - data["start"]
        rounds = json.loads(str(data["rounds"]))
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    inclusive = np.bincount(name_id, weights=duration, minlength=k)
    self_time = np.bincount(name_id, weights=own, minlength=k)
    return {
        "spans": {
            name: {"calls": int(calls[i]), "total_s": float(inclusive[i]), "self_s": float(self_time[i])}
            for i, name in enumerate(names)
        },
        "span_count": int(len(duration)),
        "rounds": rounds,
    }
