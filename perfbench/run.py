"""penlab benchmark: four scenario workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py                        # all four workloads
    python3 perfbench/run.py --workload flagship --seed 3
    python3 perfbench/run.py --workload sweep_8x16 --trace 1
    python3 perfbench/run.py --full                 # tests' horizons, gate margins
    python3 perfbench/run.py --selftest             # corrupted outputs must fail

This process is the generator: it makes each workload's inputs from the
seed (workloads.py) and runs every workload in a fresh single-threaded
worker process (worker.py), one after the other, so nothing competes for
the cores.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` a separate run wraps penlab's layer
boundaries from outside (tracer.py) and reports the per-layer metrics.
Time metrics are divided by the machine's current speed, measured by
calibrate.py next to every operation and set-up (see perfbench/README.md).
Each run also writes its full record to ``perfbench/out/``; compare.py
compares such records.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import IMPORT_REFERENCE_S, REFERENCE_S  # noqa: E402
from workloads import NAMES, make_inputs  # noqa: E402

SETUP_PROBES = 2        # extra set-up processes, each after a baseline one
MIN_OPS = 3             # operations per run, even past the deadline
WORKER_TIMEOUT = 150    # seconds; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(job, timeout):
    """Run worker.py on one job; return its JSON result."""
    job = dict(job, spawn_time=time.time())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, args, spec):
    inputs = make_inputs(name, args.seed, full=args.full)
    job = {"mode": "run", "inputs": inputs, "seconds": args.seconds,
           "min_ops": MIN_OPS, "full": args.full, "trace": args.trace,
           "inject": 0.0}
    tag = f"{name}-seed{args.seed}-trace{args.trace}" + ("-full" if args.full else "")
    if args.trace:
        job["spans_path"] = str(args.out / f"spans-{tag}.json.gz")
    setups, baselines = [], []
    if not args.trace:
        for i in range(SETUP_PROBES + 1):
            baselines.append(spawn(dict(job, mode="baseline"), 60)["setup_s"])
            if i < SETUP_PROBES:
                setups.append(spawn(dict(job, mode="setup"), 60)["setup_s"])
    res = spawn(job, None if args.full else WORKER_TIMEOUT)
    setups.append(res["setup_s"])

    attempted = len(res["op_times"])
    failed = sum(1 for f in res["failures"] if f)
    ops, rounds = res["op_times"], res["round_s"]
    wall = {
        "setup_s": statistics.median(setups),
        "result_s": statistics.median(ops),
        "leaves_per_s": res["leaves"] / sum(rounds),
    }
    # per operation, > 1 when the machine ran the kernel slower than the
    # reference just before it
    slowdown = [statistics.fmean(c) / REFERENCE_S for c in res["calibration_s"]]
    values = {
        "setup_s": statistics.median(
            IMPORT_REFERENCE_S * t / b for t, b in zip(setups, baselines))
        if baselines else wall["setup_s"],
        "result_s": statistics.median(t / k for t, k in zip(ops, slowdown)),
        "leaves_per_s": res["leaves"] / sum(t / k for t, k in zip(rounds, slowdown)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = res["layers"]
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted}
    cross = res.get("cross_checks", {})
    correct = failed == 0 and all(cross.values())
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "full": args.full,
        "s_max": inputs["s_max"], "test_s_max": inputs["test_s_max"],
        "test_inputs": inputs["test_inputs"], "distinct_inputs": len(inputs["ops"]),
        "machine": res["machine"], "correct": correct,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "metrics": metrics,
        "wall": wall, "slowdown": slowdown,
        "calibration_s": res["calibration_s"],
        "setup_samples": setups, "baseline_samples": baselines,
        "op_times": ops, "round_s": rounds,
        "leaves": res["leaves"],
        "failures": [f for f in res["failures"] if f],
        "cross_checks": cross,
    }
    for key in ("untraced_s", "builds", "test01_s", "e0_abs_err",
                "oracle_max_diff", "halvings", "max_gmres_iters"):
        if key in res:
            record[key] = res[key]
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def gate_margins(records):
    """Margins left on the tests' wall-clock gates; report only."""
    by = {r["workload"]: r for r in records}
    out = {}
    fl = by.get("flagship")
    out["test_01 (< 1 s)"] = (
        1.0 - fl["test01_s"] if fl and "test01_s" in fl else None)
    lp = by.get("lapse_32x64")
    out["test_06 (< 60 s)"] = (
        60.0 - lp["op_times"][0] if lp and lp["test_inputs"] else None)
    sw = by.get("sweep_8x16")
    out["test_09 (< 600 s)"] = (
        600.0 - fl["op_times"][0] - sum(sw["op_times"])
        if fl and sw and fl["test_inputs"] and sw["test_inputs"] else None)
    return out


def print_record(r):
    m = r["machine"]
    print(f"== {r['workload']} · seed {r['seed']} · {r['seconds']} s · "
          f"trace {r['trace']}" + (" · full" if r["full"] else ""))
    print(f"   machine: nproc {m['nproc']} (affinity {m['affinity']}), "
          f"{m['cpu']}, Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, BLAS {m['blas']['name']} {m['blas']['version']}, "
          + " ".join(f"{k}={v}" for k, v in m["threads"].items()))
    print(f"   inputs: s_max {r['s_max']:g} (test horizon {r['test_s_max']:g}), "
          f"{r['distinct_inputs']} distinct operation input(s)")
    for name, mv in r["metrics"].items():
        raw = r["wall"].get(name) if not r["trace"] else None
        print(f"   {name:34s} {mv['value']:.6g} {mv['unit']}"
              + ("" if raw is None else f"   (wall clock {raw:.6g} {mv['unit']})"))
    if not r["trace"]:
        print(f"   {'':34s} setup_s: median of {len(r['setup_samples'])} fresh "
              f"processes, each over the dependency-import process just "
              f"before it, times {IMPORT_REFERENCE_S} s")
        print(f"   {'':34s} result_s: median of {r['attempted']} operations")
        print(f"   {'':34s} result_s, leaves_per_s: each operation's wall time "
              f"over the calibration slowdown just before it (mean "
              f"{statistics.fmean(r['slowdown']):.4g} against {REFERENCE_S} s)")
    print(f"   {'fail_frac':34s} {r['fail_frac']:.6g} ratio "
          f"({r['failed']} of {r['attempted']} operations)")
    for f in r["failures"][:5]:
        print(f"   failed: {'; '.join(f)}")
    if r["trace"]:
        c = r["cross_checks"]
        print(f"   cross-check gmres iters_max == UField.max_gmres_iters: "
              f"{c['gmres_iters_max_equals_ufield']}")
        print(f"   cross-check traced outputs bitwise equal to untraced: "
              f"{c['traced_output_bitwise_equal']}")
        builds, leaves = r["builds"], r["leaves"]
        print(f"   curved_geometry builds: {builds} for {leaves} leaves "
              f"({builds / leaves:.3g} per leaf)")
        print(f"   tracing overhead: {r['metrics']['trace.overhead_s']['value']:.4g} s "
              f"on one operation of {r['untraced_s']:.4g} s untraced")


def selftest(args):
    """Corrupt one checked output per workload; every operation must fail."""
    ok = True
    for name, shift, what in (("flagship", 1e-6, "E0"),
                              ("lapse_32x64", 2e-6, "u")):
        job = {"mode": "run", "inputs": make_inputs(name, 0), "seconds": 0,
               "min_ops": 1, "full": False, "trace": 0, "inject": shift}
        res = spawn(job, WORKER_TIMEOUT)
        failed = sum(1 for f in res["failures"] if f)
        caught = failed == len(res["op_times"]) >= 1
        ok &= caught
        print(f"{'PASS' if caught else 'FAIL'} {name}: {what} shifted by "
              f"{shift:g} -> {failed} of {len(res['op_times'])} operations "
              f"failed: {res['failures'][0]}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 reproduces the tests' inputs")
    ap.add_argument("--seconds", type=int, help="accepted for the standard "
                    "benchmark command line; must equal run_seconds of "
                    "BENCHMARK.json, which sets the measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="one pass at the tests' horizons, no time limit; "
                    "measures the wall-clock gate margins")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/penlab/__init__.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds not in (None, spec["run_seconds"]):
        print(f"perfbench: --seconds {args.seconds} differs from run_seconds "
              f"{spec['run_seconds']} of BENCHMARK.json", file=sys.stderr)
        return 2
    args.seconds = spec["run_seconds"]
    args.out = HERE / "out"
    if args.selftest:
        return selftest(args)

    names = [args.workload] if args.workload else list(NAMES)
    records = [run_workload(name, args, spec) for name in names]
    for r in records:
        print_record(r)
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(machines) != 1:
        print("workers reported different machine blocks", file=sys.stderr)
        return 1
    for gate, margin in gate_margins(records).items():
        print(f"gate margin {gate}: "
              + ("not measured (needs the test's own inputs and horizon)"
                 if margin is None else f"{margin:.4g} s"))

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
