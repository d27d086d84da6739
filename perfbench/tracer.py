"""Spans around penlab's layer boundaries, recorded from outside the package.

The tracer replaces the names that penlab's own callers look up (module
globals and class attributes) with thin wrappers, so nothing under
``src/`` changes.  Each call becomes a span ``(name, start, end, parent)``
kept in memory; self time is a span's duration minus the time its child
spans cover.  ``uninstall`` puts every original back.
"""

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.points = defaultdict(int)
        self.gmres_iters = []
        self.max_cfl = 0.0

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, name, owners, attr, observe=None):
        """Wrap ``attr`` once and bind the same wrapper on every owner."""
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
        wrapper = self._wrap(name, original, observe)
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def patch_gmres(self, owner):
        """Wrap scipy's gmres as bound in ``owner``; count its iterations."""
        original = owner.gmres
        iters = self.gmres_iters

        def gmres(A, b, *args, callback=None, **kwargs):
            if callback is None:
                return original(A, b, *args, **kwargs)
            count = [0]

            def counting(arg):
                count[0] += 1
                return callback(arg)

            try:
                return original(A, b, *args, callback=counting, **kwargs)
            finally:
                iters.append(count[0])

        self._patched.append((owner, "gmres", original))
        owner.gmres = self._wrap("bartnik.gmres", gmres)

    def install(self, penlab):
        """Wrap every layer boundary the benchmark reports on."""
        sphere, refgeom, surfgeom = penlab.sphere, penlab.refgeom, penlab.surfgeom
        flow, bartnik, energy = penlab.flow, penlab.bartnik, penlab.energy

        def count_points(args, _out):
            self.points["refgeom.r_of_rho"] += int(np.size(args[1]))

        def note_cfl(_args, out):
            self.max_cfl = max(self.max_cfl, float(out[1]["cfl"]))

        self.patch("sphere.analyze", [sphere.SphereGrid], "analyze")
        self.patch("sphere.synthesize", [sphere.SphereGrid], "synthesize")
        self.patch("refgeom.r_of_rho", [refgeom.ConformalProfile], "r_of_rho",
                   count_points)
        self.patch("refgeom.isothermal_profile", [energy], "isothermal_profile")
        self.patch("surfgeom.curved_geometry", [surfgeom, flow, energy],
                   "curved_geometry")
        self.patch("surfgeom.metric_partials", [surfgeom], "metric_partials")
        self.patch("flow.step_flow", [flow], "step_flow", note_cfl)
        self.patch("flow.flow_speed", [flow], "flow_speed")
        self.patch("flow.run_flow", [flow, energy], "run_flow")
        self.patch("flow.compute_constants", [energy], "compute_constants")
        self.patch("bartnik.solve_u", [bartnik, energy], "solve_u")
        self.patch_gmres(bartnik)
        self.patch("energy.monotonicity_check", [energy], "monotonicity_check")
        self.patch("energy.penrose_report", [energy], "penrose_report")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self):
        """Hand over the spans and counts recorded since the last take."""
        spans, points = self.spans[:], dict(self.points)
        iters, cfl = self.gmres_iters[:], self.max_cfl
        self.spans.clear()
        self.points.clear()
        self.gmres_iters.clear()
        self.max_cfl = 0.0
        return {"spans": spans, "points": points, "gmres_iters": iters,
                "max_cfl": cfl}


def self_times(spans):
    """Per-name call count and self time (span minus child spans)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    own = defaultdict(float)
    for i, (name, t0, t1, _parent) in enumerate(spans):
        calls[name] += 1
        own[name] += (t1 - t0) - child[i]
    return calls, own
