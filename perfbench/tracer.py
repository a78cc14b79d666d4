"""Span tracing of torikit's public functions, from outside the package.

`Tracer.install()` replaces each traced function in every torikit module
namespace (and class) that holds it, so `polytope.in_delta_k` and the copy
imported into `groupoid` are both traced.  Each call records one span (layer
name, start, end, parent span, op id) in flat in-memory arrays; spans are
written out only when the run ends.  Self time, the span's duration minus
the time its child spans cover, is accumulated per layer as calls end.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# layer name for each traced function: (module, qualified name) -> layer
LAYERS = {}


def _layer(module, names, layer=None):
    for name in names:
        LAYERS[(module, name)] = layer or f"{module}.{name}"


_layer("intlat", ["imat", "int_identity", "smith_normal_form", "integer_kernel_basis",
                  "determinant", "is_unimodular_basis", "integer_right_inverse",
                  "solve_rational", "rational_kernel_vector", "row_space_equal"], "intlat")
_layer("delzant", ["build_system", "J0", "Jd", "J0_squared", "Jd_squared", "sigma",
                   "sigma_squared", "k_sigma_ambient", "ambient_weights",
                   "act_subtorus", "act_torus", "rho", "reduced_level_defect"], "delzant")
_layer("polytope", ["in_delta_k", "in_u_k", "DelzantPolytope.contains",
                    "DelzantPolytope.slack", "DelzantPolytope.active_set"],
       "polytope.slack_tests")
_layer("polytope", ["check_delzant", "vertices"])
_layer("groupoid", ["orbit", "is_member", "Orbit.target_index"])
LAYERS[("groupoid", "Orbit.target_index")] = "groupoid.target_index"
_layer("expr", ["parse", "evaluate"])
_layer("expr", ["d_dy", "d_dh", "subs_h", "shift_y"], "expr.derive")
_layer("algebra", ["bracket_element", "pointwise_product_at_zero", "convolve",
                   "involution", "numeric_bracket_limit", "neville_to_zero"])
_layer("classical", ["poisson_bracket_aa", "synthesize"])
_layer("matrixrep", ["represent", "spectrum", "casimir_defect", "bracket_via_matrices"])
_layer("suite", ["battery_associativity", "battery_involution", "battery_representation",
                 "battery_bracket", "battery_membership", "battery_delzant",
                 "battery_classical"])
for _name in [k for k in LAYERS if k[0] == "suite"]:
    LAYERS[_name] = "suite.battery." + _name[1][len("battery_"):]
_layer("cli", ["main"], "cli")


MIN_FIT_SIZE = 100     # below this, fixed costs (box, parsing) hide the scaling


def fit_slope(pairs) -> float:
    """Least-squares slope of log(time) against log(size) over sizes of at
    least MIN_FIT_SIZE; 0.0 when fewer than two distinct sizes qualify."""
    pts = [(math.log(s), math.log(t)) for s, t in pairs if s >= MIN_FIT_SIZE and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    xs, ys = np.array(pts).T
    return float(np.polyfit(xs, ys, 1)[0])


class Tracer:
    """Spans and per-layer counters for one traced pass."""

    def __init__(self, box_points):
        self.names = sorted(set(LAYERS.values()))
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = []          # [span index, child time] per open span
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts = {}
        self.sized = {"groupoid.orbit": [], "matrixrep.represent": []}
        self._box_points = box_points
        self._patched = []

    # -- recording --------------------------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _annotate(self, layer, args, result, self_time):
        if layer == "groupoid.orbit":
            P, hbar, y0 = args[:3]
            self._add("groupoid.orbit.points", len(result))
            self._add("groupoid.orbit.box_points", self._box_points(P, hbar, y0))
            self.sized[layer].append((len(result), self_time))
        elif layer == "groupoid.target_index":
            self._add("groupoid.target_index.hits", result is not None)
        elif layer == "expr.evaluate":
            y = args[2] if len(args) > 2 else ()
            self._add("expr.evaluate.points", max([np.size(v) for v in y] + [1]))
        elif layer == "matrixrep.represent":
            dim = args[1].dim
            self._add("matrixrep.represent.dim_sum", dim)
            self._add("matrixrep.represent.bytes", dim * dim * 16)
            self.sized[layer].append((dim, self_time))
        elif layer == "matrixrep.spectrum":
            self._add("matrixrep.spectrum.hermitian", bool(np.isrealobj(result)))

    def _wrap(self, layer, fn):
        lid = self._ids[layer]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(lid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            entry = [idx, 0.0]
            stack.append(entry)
            t0 = time.perf_counter()
            self.start.append(t0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                own = dur - entry[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[layer] += 1
                self.self_s[layer] += own
                if ok:
                    self._annotate(layer, args, result, own)
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every torikit namespace and class that holds a traced function."""
        modules = {name[len("torikit."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("torikit.") and mod is not None}
        originals = {}
        for (mod_name, qual), layer in LAYERS.items():
            owner = modules[mod_name]
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, parts[-1])
            originals[id(fn)] = (fn, self._wrap(layer, fn))
            if len(parts) > 1:
                self._patch(owner, parts[-1], originals[id(fn)][1])
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(mod, attr, originals[id(value)][1])

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics: calls and self time per layer, the counts and
        the ratios (0.0 where the layer was not called)."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key in ("groupoid.orbit.points", "groupoid.orbit.box_points",
                    "expr.evaluate.points", "matrixrep.represent.dim_sum",
                    "matrixrep.represent.bytes"):
            out[key] = self.counts.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out["groupoid.orbit.yield"] = ratio(out["groupoid.orbit.points"],
                                            out["groupoid.orbit.box_points"])
        out["groupoid.target_index.hit_ratio"] = ratio(
            self.counts.get("groupoid.target_index.hits", 0),
            self.calls["groupoid.target_index"])
        out["expr.evaluate.points_per_call"] = ratio(out["expr.evaluate.points"],
                                                     self.calls["expr.evaluate"])
        out["matrixrep.spectrum.hermitian_ratio"] = ratio(
            self.counts.get("matrixrep.spectrum.hermitian", 0),
            self.calls["matrixrep.spectrum"])
        for layer, pairs in self.sized.items():
            out[f"{layer}.scaling_exp"] = fit_slope(pairs)
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))
