"""One workload in one process: set up, run operations, check every output.

Reads a job as JSON on stdin and prints one JSON line on stdout.  The
generator (run.py) starts this file with every BLAS/OpenMP thread count
set to 1 and passes its wall-clock spawn time, so ``setup_s`` covers the
whole fresh process: interpreter start, ``import penlab`` and, on
lapse_32x64, the start data that every operation reuses.

Before every operation the worker runs the calibration kernel
(calibrate.py) CALIBRATION_PASSES times; run.py rescales that operation's
time by the mean of those passes.

Job keys: ``mode`` ("baseline": import penlab's dependencies only;
"setup": set up and report the set-up time; "run"), ``inputs``
(workloads.make_inputs), ``spawn_time``, ``seconds``, ``min_ops``,
``full`` (one pass, no time limit), ``trace``, ``spans_path`` and
``inject`` (a shift added to the checked output, used by the self-test
to show that checks can fail).
"""

import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import DEPENDENCIES, Calibration
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_PASSES = 3      # kernel passes before every operation


def import_penlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import penlab
    if Path(penlab.__file__).resolve().parent != src / "penlab":
        raise ImportError(f"penlab imported from {penlab.__file__}, not {src}")
    import penlab.bartnik
    import penlab.energy
    import penlab.flow
    import penlab.oracle
    import penlab.refgeom
    import penlab.sphere
    import penlab.surfgeom
    return penlab


def machine_block():
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def _digest(*arrays, values=()):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    h.update(repr(values).encode())
    return h.hexdigest()


class Penrose:
    """flagship, sweep_8x16 and perturbed_rn: one ``penrose_report`` per op."""

    def __init__(self, penlab, workload, inject):
        self.penlab = penlab
        self.workload = workload
        self.inject = inject
        self.closed = {}

    def scenario(self, inp):
        kw = dict(inp)
        if "perturbation" in kw:
            kw["perturbation"] = {(l, m): a for l, m, a in kw["perturbation"]}
        return self.penlab.energy.Scenario(**kw)

    def setup(self, inp):
        """Nothing: penrose_report builds its own start data (reference,
        profile, grid, surface) inside every operation, so it is timed in
        ``result_s``, and set-up ends once penlab is imported."""

    def prepare(self, inp):
        """Independent reference values, computed outside the timed span."""
        if inp["kind"] == "schwarzschild_interior":
            key = (inp["inner_m"], inp["m"], inp["r0"])
            if key not in self.closed:
                self.closed[key] = self.penlab.oracle.scenario_closed_form(
                    *key)["LHS"]

    def run(self, inp):
        return self.penlab.energy.penrose_report(self.scenario(inp))

    def check(self, inp, rep):
        r = rep.report
        e0 = r["E0"] + self.inject
        fails, info = [], {"leaves": len(rep.foliation)}
        hyp = r["hypotheses"]
        if r["verdict"] != "inequality holds":
            fails.append(f"verdict {r['verdict']!r}")
        if not hyp["all_passed"]:
            fails.append("hypotheses not all passed")
        if self.workload == "sweep_8x16":
            if not r["margin"] >= -1e-9:
                fails.append(f"margin {r['margin']:.3e} < -1e-9")
        else:
            if not r["monotonicity_margin"] <= 1e-8:
                fails.append(f"monotonicity margin {r['monotonicity_margin']:.3e}")
        key = (inp.get("inner_m"), inp["m"], inp["r0"])
        if key in self.closed:
            info["e0_abs_err"] = abs(e0 - self.closed[key])
        if self.workload == "flagship":
            if not info["e0_abs_err"] < 1e-9:
                fails.append(f"|E0 - closed form| = {info['e0_abs_err']:.3e}")
            if r["E_inf"] is None or not 0.2 - 1e-4 <= r["E_inf"] <= e0:
                fails.append(f"E_inf {r['E_inf']} outside [0.2 - 1e-4, E0]")
        if self.workload == "perturbed_rn":
            gates = [k for k, v in hyp.items() if isinstance(v, dict)]
            if len(gates) != 4 or not all(hyp[k]["passed"] for k in gates):
                fails.append(f"hypothesis gates {gates} not 4 passing")
            if rep.ufield.halvings != 0:
                fails.append(f"{rep.ufield.halvings} halvings")
            if r["E_inf"] is None:
                fails.append("E_inf fit failed")
        uf = rep.ufield
        info["halvings"] = uf.halvings
        info["max_gmres_iters"] = uf.max_gmres_iters
        info["digest"] = _digest(
            rep.trace.energy, *uf.u, *(s.G for s in rep.foliation.surfaces),
            values=(r["E0"], r["E_inf"], r["margin"], r["monotonicity_margin"]))
        return fails, info


class Lapse:
    """lapse_32x64: ``run_flow`` then ``solve_u`` on test_06's inputs."""

    def __init__(self, penlab, workload, inject):
        self.penlab = penlab
        self.inject = inject
        self.start = None
        self.oracle = {}

    def setup(self, inp):
        import numpy as np
        p = self.penlab
        ref = p.refgeom.make_reference("schwarzschild", m=inp["m"])
        profile = p.refgeom.isothermal_profile(
            ref, np.geomspace(*inp["profile_r"], inp["profile_points"]))
        grid = p.sphere.SphereGrid(inp["n_theta"], inp["n_phi"])
        surf = p.surfgeom.round_surface(grid, float(profile.rho_of_r(inp["r0"])))
        self.start = (ref, profile, surf)
        return surf

    def prepare(self, inp):
        if inp["s_max"] not in self.oracle:
            n_samples = int(round(inp["s_max"] / inp["ds"])) + 1
            states, _ = self.penlab.oracle.round_flow_u(
                self.start[0], inp["r0"], inp["u0"], inp["s_max"],
                n_samples=n_samples)
            self.oracle[inp["s_max"]] = states

    def run(self, inp):
        p = self.penlab
        _, profile, surf = self.start
        fol = p.flow.run_flow(surf, profile, p.flow.FlowConfig(
            ds=inp["ds"], s_max=inp["s_max"], store_every=1))
        uf = p.bartnik.solve_u(fol, inp["u0"], dt_max=inp["dt_max"],
                               with_residual=False)
        return fol, uf

    def check(self, inp, result):
        import numpy as np
        fol, uf = result
        states = self.oracle[inp["s_max"]]
        fails, info = [], {"leaves": len(fol)}
        if len(states) != len(fol) or not np.allclose(
                [st.s for st in states], fol.s, atol=1e-12):
            fails.append("stored s does not match the oracle samples")
            info["oracle_max_diff"] = float("inf")
        else:
            info["oracle_max_diff"] = max(
                float(np.max(np.abs(u + self.inject - st.u)))
                for u, st in zip(uf.u, states))
        if not info["oracle_max_diff"] < 1e-6:
            fails.append(f"oracle diff {info['oracle_max_diff']:.3e} >= 1e-6")
        if uf.halvings != 0:
            fails.append(f"{uf.halvings} halvings")
        lo, hi = uf.bounds
        if not (lo >= 1.0 - 1e-12 and hi <= inp["u0"] + 1e-12):
            fails.append(f"bounds ({lo!r}, {hi!r}) outside [1, {inp['u0']}]")
        if not uf.decay_bounded:
            fails.append("decay not bounded")
        info["halvings"] = uf.halvings
        info["max_gmres_iters"] = uf.max_gmres_iters
        info["digest"] = _digest(*uf.u, *(s.G for s in fol.surfaces))
        return fails, info


def _test01_probe(penlab):
    """test_01's own timed span: profile build plus 391 radial lookups."""
    import numpy as np
    t0 = time.perf_counter()
    ref = penlab.refgeom.make_reference("schwarzschild", m=1.0)
    profile = penlab.refgeom.isothermal_profile(
        ref, np.geomspace(2.02, 200.0, 900))
    profile.rho_of_r(np.linspace(2.5, 100.0, 391))
    return time.perf_counter() - t0


def _layer_metrics(records, leaves):
    """Per-op layer figures from the traced operations' spans and counts."""
    n = len(records)
    calls, own = {}, {}
    points, iters, cfl = 0, [], 0.0
    for rec in records:
        c, o = self_times(rec["spans"])
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in o.items():
            own[k] = own.get(k, 0.0) + v
        points += rec["points"].get("refgeom.r_of_rho", 0)
        iters += rec["gmres_iters"]
        cfl = max(cfl, rec["max_cfl"])

    def per_op(table, name):
        return table.get(name, 0) / n

    m = {}
    for name in ("sphere.analyze", "sphere.synthesize", "refgeom.r_of_rho",
                 "refgeom.isothermal_profile", "surfgeom.curved_geometry",
                 "flow.step_flow", "flow.flow_speed", "bartnik.gmres"):
        m[f"{name}.calls"] = per_op(calls, name)
    for name in ("sphere.analyze", "sphere.synthesize", "refgeom.r_of_rho",
                 "refgeom.isothermal_profile", "surfgeom.curved_geometry",
                 "surfgeom.metric_partials", "flow.run_flow", "flow.step_flow",
                 "flow.compute_constants", "bartnik.solve_u", "bartnik.gmres",
                 "energy.penrose_report", "energy.monotonicity_check"):
        m[f"{name}.self_s"] = per_op(own, name)
    m["refgeom.r_of_rho.points"] = points / n
    transforms = calls.get("sphere.analyze", 0) + calls.get("sphere.synthesize", 0)
    m["sphere.transforms_per_leaf"] = transforms / leaves
    m["refgeom.inversions_per_leaf"] = calls.get("refgeom.r_of_rho", 0) / leaves
    builds = calls.get("surfgeom.curved_geometry", 0)
    m["surfgeom.leaves_per_build"] = leaves / builds if builds else 0.0
    m["flow.max_cfl"] = cfl
    m["bartnik.gmres.iters_mean"] = statistics.fmean(iters) if iters else 0.0
    m["bartnik.gmres.iters_max"] = float(max(iters, default=0))
    return m, max(iters, default=0), builds


def _write_spans(path, records):
    names = sorted({s[0] for rec in records for s in rec["spans"]})
    index = {name: i for i, name in enumerate(names)}
    ops = [[[index[s[0]], s[1], s[2], s[3]] for s in rec["spans"]]
           for rec in records]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"format": "span = [name index, start s, end s, parent span "
                             "(-1 for none)]; one list per traced operation",
                   "names": names, "ops": ops}, fh)


def _attempt(wl, inp):
    """One timed operation, then its output check outside the timed span."""
    t0 = time.perf_counter()
    try:
        result = wl.run(inp)
    except Exception as exc:  # counted as a failed operation
        return (time.perf_counter() - t0,
                [f"{type(exc).__name__}: {exc}"], {"leaves": 0})
    dt = time.perf_counter() - t0
    try:
        op_fails, info = wl.check(inp, result)
    except Exception as exc:  # a malformed output fails its check
        op_fails, info = [f"check raised {type(exc).__name__}: {exc}"], {"leaves": 0}
    return dt, op_fails, info


def main():
    job = json.loads(sys.stdin.read())
    if job["mode"] == "baseline":
        for name in DEPENDENCIES:
            importlib.import_module(name)
        print(json.dumps({"setup_s": time.time() - job["spawn_time"]}))
        return 0
    inputs = job["inputs"]
    workload = inputs["workload"]
    penlab = import_penlab()
    kind = Lapse if workload == "lapse_32x64" else Penrose
    wl = kind(penlab, workload, job.get("inject", 0.0))
    ops = inputs["ops"]
    wl.setup(ops[0])
    setup_s = time.time() - job["spawn_time"]
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for inp in ops:
        wl.prepare(inp)
    out = {"setup_s": setup_s, "machine": machine_block()}
    calibration = Calibration()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(penlab)

    times, fails, infos, records = [], [], [], []
    rounds, calib, cycles = [], [], []
    loop_start = time.perf_counter()
    while True:
        i = len(times)
        if job["full"]:
            if i == len(ops):
                break
        elif i >= job["min_ops"] and (time.perf_counter() - loop_start
                                      + statistics.median(cycles) > job["seconds"]):
            break
        cycle_start = time.perf_counter()
        calib.append([calibration.run() for _ in range(CALIBRATION_PASSES)])
        round_start = time.perf_counter()
        inp = ops[i % len(ops)]
        dt, op_fails, info = _attempt(wl, inp)
        times.append(dt)
        fails.append(op_fails)
        infos.append(info)
        if tracer is not None:
            records.append(tracer.take())
            if i == 0:
                # the same input untraced, after the traced run has paid
                # any first-call cost: overhead and the bitwise check
                tracer.uninstall()
                out["untraced_s"], _, base = _attempt(wl, inp)
                out["untraced_digest"] = base.get("digest")
                tracer.install(penlab)
        now = time.perf_counter()
        rounds.append(now - round_start)
        cycles.append(now - cycle_start)
    if tracer is not None:
        tracer.uninstall()

    leaves = sum(info["leaves"] for info in infos)
    out.update({
        "op_times": times,
        "failures": fails,
        "leaves": leaves,
        "round_s": rounds,
        "calibration_s": calib,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "e0_abs_err": max((x["e0_abs_err"] for x in infos if "e0_abs_err" in x),
                          default=None),
        "oracle_max_diff": max((x["oracle_max_diff"] for x in infos
                                if "oracle_max_diff" in x), default=None),
        "halvings": sum(x.get("halvings", 0) for x in infos),
        "max_gmres_iters": max((x.get("max_gmres_iters", 0) for x in infos),
                               default=0),
    })
    if workload == "flagship" and job["full"]:
        out["test01_s"] = _test01_probe(penlab)
    if tracer is not None:
        layers, iters_max, builds = _layer_metrics(records, leaves)
        layers["bartnik.halvings"] = out["halvings"] / len(times)
        layers["energy.e0_abs_err"] = out["e0_abs_err"] or 0.0
        layers["bartnik.oracle_max_diff"] = out["oracle_max_diff"] or 0.0
        layers["trace.overhead_s"] = times[0] - out["untraced_s"]
        out["layers"] = layers
        out["builds"] = builds
        out["cross_checks"] = {
            "gmres_iters_max_equals_ufield": iters_max == out["max_gmres_iters"],
            "traced_output_bitwise_equal": (
                "digest" in infos[0]
                and infos[0]["digest"] == out["untraced_digest"]),
        }
        if job.get("spans_path"):
            _write_spans(job["spans_path"], records)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
