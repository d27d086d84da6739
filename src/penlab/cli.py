"""Batch front end: JSON configs in, CSV series and JSON reports out.

One subcommand per pipeline stage (profile, flow, solve, verify,
scenario, constants).  All physical quantities are in geometric units;
with "normalized": true each length, mass and area in the config, a
default included, is read in units of the reference mass m.  Outputs
are deterministic: floats are written with repr precision, JSON keys
are sorted, and nothing timestamps the files.

Exit codes: 0 success, 1 failed check or violated inequality, 2 usage
or configuration error, 3 hypotheses or foliation conditions unmet.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bartnik import StepRejected, solve_u
from .energy import (Scenario, monotonicity_check, penrose_report,
                     quasilocal_energy, run_foliation)
from .flow import FlowConfig, FlowError, compute_constants, run_flow
from .oracle import (round_flow_u, scenario_closed_form, schwarzschild_rho,
                     t_from_einstein)
from .refgeom import (isothermal_profile, make_reference, reference_from_csv)
from .sphere import SphereGrid
from .surfgeom import curved_geometry, perturbed_surface, round_surface

__all__ = ["console_main"]


class ConfigError(ValueError):
    """Configuration or schema problem; maps to exit code 2."""


# ----------------------------------------------------------------------
# config plumbing: one table of every block's keys

def _given(value):
    return value


def _number(value) -> float:
    """A JSON number: a string or a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    return float(value)


def _whole(value) -> int:
    if not _number(value).is_integer():
        raise ValueError("must be a whole number")
    return int(value)


def _flag(value) -> bool:
    """A JSON boolean: bool("false") would be true."""
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _modes(rows) -> dict:
    """[[l, m, ε], ...] perturbation rows as perturbed_surface's {(l, m): ε};
    a dict keeps one amplitude per mode, so a repeated mode is an error."""
    modes = {(_whole(l), _whole(m)): _number(eps) for l, m, eps in rows}
    if len(modes) < len(rows):
        raise ValueError("repeats a mode")
    return modes


def _resolution(value) -> tuple:
    """[n_theta, n_phi], or the text "NxM" that --resolution takes."""
    if isinstance(value, str):
        value = [int(v) if v.strip().isdigit() else v
                 for v in value.lower().split("x")]
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError("must look like 16x32")
    return tuple(_whole(v) for v in value)


_FIELD = {f.name: f.default for f in dataclasses.fields(Scenario)}
# key -> (parser, default, power of m the value carries under "normalized");
# a key whose default is None may be left out or written null.  A scenario
# key's default is its Scenario field's; kind and r0 have none there.
_SCENARIO = {
    "kind": (_given, "schwarzschild_interior", 0), "r0": (_number, 4.0, 1),
    **{key: (parse, _FIELD[key], power) for key, parse, power in (
        ("inner_m", _number, 1), ("horizon_area", _number, 2),
        ("boundary_u0", _given, 0), ("perturbation", _modes, 0),
        ("ds", _number, 1), ("s_max", _number, 1), ("store_every", _whole, 0),
        ("dt_max", _number, 1), ("with_residual", _flag, 0))},
}
_SCHEMA = {
    "reference": {"kind": (_given, "schwarzschild", 0),
                  "m": (_number, 1.0, 0), "e": (_number, 0.0, 1),
                  "table": (_given, None, 0)},
    # r_min and r_max default to the reference's own range (_radial_range)
    "profile": {"r_min": (_number, None, 1), "r_max": (_number, None, 1),
                "points": (_whole, 391, 0)},
    "surface": {key: _SCENARIO[key] for key in ("r0", "perturbation")},
    "flow": {"resolution": (_resolution,
                            [_FIELD["n_theta"], _FIELD["n_phi"]], 0),
             "s_max": (_number, 10.0, 1),
             **{key: _SCENARIO[key] for key in ("ds", "store_every")}},
    "solver": {"u0": (_number, 1.2, 0),
               **{key: _SCENARIO[key] for key in ("dt_max", "with_residual")}},
    "scenario": _SCENARIO,
}
# the top level: the blocks, a "scenarios" list of scenario blocks,
# "normalized" and "inject"; the flagship runs when a config names none
_SCHEMA["config"] = {
    **{name: (_given, {}, 0) for name in _SCHEMA},
    "scenario": (_given, {"inner_m": 1.2}, 0), "scenarios": (_given, None, 0),
    "normalized": (_flag, False, 0), "inject": (_given, None, 0),
}


def _block(block, name: str, m: float) -> dict:
    """One block: unknown keys rejected, defaults filled in, values parsed
    and multiplied by m**power, so a default scales like a written value."""
    if not isinstance(block, dict):
        raise ConfigError(f"schema error: {name} must be an object")
    unknown = ", ".join(sorted(set(block) - set(_SCHEMA[name])))
    if unknown:
        raise ConfigError(f"schema error: unknown {name} key(s): {unknown}")
    out = {}
    for key, (parse, default, power) in _SCHEMA[name].items():
        value = block.get(key, default)
        if value is not None or default is not None:
            try:
                value = parse(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"schema error: {key} {exc}, "
                                  f"got {value!r}") from None
            if power:
                value = value * m**power
        out[key] = value
    return out


def _read_config(args) -> dict:
    """Every block of the --config file parsed, so that a misspelled key
    fails each subcommand, not only the one that reads it."""
    raw = {}
    if args.config is not None:
        if not Path(args.config).is_file():
            raise ConfigError(f"config file not found: {args.config}")
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    root = _block(raw, "config", 1.0)
    # "normalized" lengths are in units of m, itself in geometric units
    m = (_block(root["reference"], "reference", 1.0)["m"]
         if root["normalized"] else 1.0)
    blocks = (root["scenarios"] if root["scenarios"] is not None
              else [root["scenario"]])
    # each block must be an object: any other value would be read key by key
    if not (isinstance(blocks, list) and blocks
            and all(isinstance(b, dict) for b in blocks)):
        raise ConfigError("schema error: scenarios must be a non-empty list "
                          "of objects, scenario one object")
    cfg = {name: _block(root[name], name, m)
           for name in ("reference", "profile", "surface", "flow", "solver")}
    cfg["scenarios"] = [_block(b, "scenario", m) for b in blocks]
    if args.resolution:
        cfg["flow"]["resolution"] = _block(
            {"resolution": args.resolution}, "flow", m)["resolution"]
    cfg["inject"] = root["inject"]
    return cfg


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _csv(header: str, *columns) -> str:
    """CSV text: the header, then row i of every column at repr precision."""
    rows = [header] + [",".join(f"{v:.17g}" for v in row)
                       for row in zip(*columns)]
    return "\n".join(rows) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1,
                               default=_jsonify) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reference_from_config(cfg: dict):
    block = cfg["reference"]
    if block["table"] is not None:
        return reference_from_csv(block["table"])
    try:
        return make_reference(block["kind"], m=block["m"], e=block["e"])
    except ValueError as exc:
        raise ConfigError(f"schema error: {exc}") from exc


def _radial_range(cfg: dict, ref, analytic_min: float) -> tuple:
    """The profile block's (r_min, r_max), checked with its point count.
    A table defaults to just inside its own ends, so a first row at the
    horizon (phi = 0) is never sampled; an analytic reference defaults
    to (analytic_min, 100 m)."""
    if ref.kind == "tabulated":
        r_min, r_max = ref.r_min * 1.000001, ref.r_max * 0.999999
    else:
        r_min, r_max = analytic_min, 100.0 * ref.m
    block = cfg["profile"]
    if block["points"] < 2:
        raise ConfigError("schema error: profile points must be at least 2")
    r_min = r_min if block["r_min"] is None else block["r_min"]
    r_max = r_max if block["r_max"] is None else block["r_max"]
    if not r_min < r_max:  # written as a negation so that NaN fails too
        raise ConfigError("schema error: profile r_min must lie below r_max")
    return r_min, r_max


# ----------------------------------------------------------------------
# subcommands

def cmd_profile(cfg: dict, args) -> int:
    out = _out_dir(args)
    ref = _reference_from_config(cfg)
    r = np.linspace(*_radial_range(cfg, ref, 2.5 * ref.m),
                    cfg["profile"]["points"])
    try:
        profile = isothermal_profile(ref, r)
    except ValueError as exc:
        raise ConfigError(f"schema error: {exc}") from exc
    rho = np.asarray(profile.rho_of_r(r), dtype=float)
    F = np.sqrt(r / rho)
    V = ref.potential(r, ref.phi(r), ref.dphi(r))[0]
    path = out / "profile.csv"
    path.write_text(_csv("r,rho,F,V", r, rho, F, V))
    print(f"wrote {path} ({len(r)} rows)")
    return 0


def cmd_constants(cfg: dict, args) -> int:
    out = _out_dir(args)
    ref = _reference_from_config(cfg)
    r_min, r_max = _radial_range(cfg, ref, ref.r_horizon * 1.0025)
    # compute_constants samples its own grid; only the range matters here
    profile = isothermal_profile(ref, (r_min, r_max))
    cons = compute_constants(profile)
    path = out / "constants.json"
    _write_json(path, cons)
    names = ("C1", "C2", "C3", "C4", "C5", "angle_bound")
    print("  ".join(f"{k} = {cons[k]:.10g}" for k in names))
    print(f"wrote {path}")
    return 0


def _flow_from_config(cfg: dict):
    flow, surface = cfg["flow"], cfg["surface"]
    return run_foliation(
        _reference_from_config(cfg), surface["r0"], surface["perturbation"],
        SphereGrid(*flow["resolution"]), FlowConfig(
            ds=flow["ds"], s_max=flow["s_max"],
            store_every=flow["store_every"]))


def cmd_flow(cfg: dict, args) -> int:
    out = _out_dir(args)
    fol = _flow_from_config(cfg)
    keys = ("min_cos_theta", "min_kappa_rho2", "min_rho", "passed")
    (out / "flow_series.csv").write_text(_csv(
        "s,min_cos_theta,min_kappa_rho2,min_rho,condition_flags", fol.s,
        *([sm[key] for sm in fol.summaries] for key in keys)))
    report = {
        "slices": len(fol),
        "s_final": fol.s[-1],
        "aborted": fol.aborted,
        "abort_reason": fol.abort_reason,
        "all_conditions_passed": not fol.aborted,
        "max_cfl": fol.max_cfl,
        "final_area_radius": fol.summaries[-1]["area_radius"],
    }
    _write_json(out / "flow_report.json", report)
    print(f"{len(fol)} slices to s = {fol.s[-1]:.6g}; "
          f"conditions {'ok' if report['all_conditions_passed'] else 'FAILED'}")
    return 3 if fol.aborted else 0


def cmd_solve(cfg: dict, args) -> int:
    out = _out_dir(args)
    fol = _flow_from_config(cfg)
    if fol.aborted:
        print(f"flow aborted: {fol.abort_reason}", file=sys.stderr)
        return 3
    # penrose_report's coefficient gate; solve_u's input errors exit 2
    for i, sm in enumerate(fol.summaries):
        if not sm["min_coefficient"] > 0.0:
            print("foliation condition failed: coefficient detA0 + T/2 - "
                  f"Ric(nu,nu) not positive on slice {i}", file=sys.stderr)
            return 3
    uf = solve_u(fol, **cfg["solver"])
    res = (np.full(len(uf.u), np.nan) if uf.residual is None
           else np.max(np.abs(uf.residual), axis=(1, 2)))
    (out / "u_series.csv").write_text(_csv(
        "s,max_u_minus_1,min_u,max_residual", uf.s, uf.max_u_minus_1,
        [float(np.min(u)) for u in uf.u], res))
    report = {
        "decay_bounded": uf.decay_bounded,
        "halvings": uf.halvings,
        "max_gmres_iters": uf.max_gmres_iters,
        "bounds": uf.bounds,
        "final_max_u_minus_1": uf.max_u_minus_1[-1],
        "max_residual": (None if uf.residual is None
                         else float(np.max(np.abs(uf.residual)))),
    }
    _write_json(out / "solve_report.json", report)
    print(f"solved {len(fol)} slices; max|u-1| final "
          f"{report['final_max_u_minus_1']:.6g}")
    return 0


# ----------------------------------------------------------------------
# verify: the invariant suite with optional fault injection

def _check_profile_closed_form():
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, (2.4, 120.0))
    r = np.linspace(2.5, 100.0, 200)
    rho = np.asarray(profile.rho_of_r(r), dtype=float)
    exact = schwarzschild_rho(1.0, r)
    value = float(np.max(np.abs(rho / exact - 1.0)))
    return value, 1e-8


def _schwarzschild_fixture():
    """m = 1 Schwarzschild reference, its profile and the round r = 4 surface."""
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, (2.02, 800.0))
    surf = round_surface(SphereGrid(16, 32), schwarzschild_rho(1.0, 4.0))
    return ref, profile, surf


def _check_curvature_closed_form():
    _, profile, surf = _schwarzschild_fixture()
    geom = curved_geometry(surf, profile)
    h_exact = 2.0 * np.sqrt(0.5) / 4.0
    errors = [geom.H0 - h_exact, geom.kappa_min - h_exact / 2.0,
              geom.kappa_max - h_exact / 2.0]
    return float(np.max(np.abs(errors))), 1e-10


def _check_t_consistency(inject: str | None):
    grid = SphereGrid(16, 32)
    ref = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    profile = isothermal_profile(ref, (2.0, 800.0))
    rho0 = float(profile.rho_of_r(4.0))
    geom = curved_geometry(perturbed_surface(grid, rho0, {(2, 0): 0.1}),
                           profile)
    t_surface = geom.t_field
    if inject == "t_sign_flip":
        t_surface = -t_surface
    t_exact = t_from_einstein(ref, geom.r, geom.flat.cos_theta)
    value = float(np.max(np.abs(t_surface - t_exact)))
    return value, 1e-8


def _check_t_bounds():
    ref = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    r = np.linspace(2.2, 20.0, 100)[:, None]
    c = np.linspace(0.0, 1.0, 20)[None, :]
    t = t_from_einstein(ref, r, c)
    ceiling = 2.0 * 0.25 / r**4
    return float(np.max([-t, t - ceiling])), 1e-12


def _check_gauss_identity():
    _, profile, surf = _schwarzschild_fixture()
    bumped = perturbed_surface(surf.grid, schwarzschild_rho(1.0, 4.0),
                               {(2, 0): 0.1})
    errors = [curved_geometry(sf, profile).gauss_residual
              for sf in (surf, bumped)]
    return float(np.max(np.abs(errors))), 1e-9


def _round_fixture(ds: float, s_max: float):
    ref, profile, surf = _schwarzschild_fixture()
    return ref, run_flow(surf, profile,
                         FlowConfig(ds=ds, s_max=s_max, store_every=1))


def _check_monotonicity_identity():
    _, fol = _round_fixture(2e-3, 0.1)
    uf = solve_u(fol, 1.2, with_residual=False)
    return monotonicity_check(uf).max_mismatch, 1e-5


def _check_oracle_equivalence():
    ref, fol = _round_fixture(0.05, 5.0)
    uf = solve_u(fol, 1.2, with_residual=False)
    states, e_oracle = round_flow_u(ref, 4.0, 1.2, 5.0, len(fol))
    errors = []
    for i in (len(fol) // 2, len(fol) - 1):
        errors.append(float(np.mean(uf.u[i])) - states[i].u)
        errors.append(uf.energy[i] - e_oracle[i])
    return float(np.max(np.abs(errors))), 1e-6


def _check_energy_closed_form():
    _, profile, surf = _schwarzschild_fixture()
    geom = curved_geometry(surf, profile)
    e0 = quasilocal_energy(geom, np.sqrt(1.25))
    value = abs(e0 - scenario_closed_form(1.2, 1.0, 4.0)["LHS"])
    return value, 1e-9


def cmd_verify(cfg: dict, args) -> int:
    out = _out_dir(args)
    inject = cfg["inject"]
    if inject not in (None, "t_sign_flip"):
        raise ConfigError(f"unknown fault injection: {inject!r}")
    checks = [
        ("profile_closed_form", _check_profile_closed_form),
        ("curvature_closed_form", _check_curvature_closed_form),
        ("t_function_consistency", lambda: _check_t_consistency(inject)),
        ("t_function_bounds", _check_t_bounds),
        ("gauss_identity", _check_gauss_identity),
        ("monotonicity_identity", _check_monotonicity_identity),
        ("oracle_equivalence", _check_oracle_equivalence),
        ("energy_closed_form", _check_energy_closed_form),
    ]
    results = []
    for name, fn in checks:
        value, threshold = fn()
        passed = bool(value < threshold)
        results.append({"name": name, "value": value,
                        "threshold": threshold, "passed": passed})
        print(f"{'PASS' if passed else 'FAIL'} {name} "
              f"({value:.3e} vs {threshold:.0e})")
    all_passed = all(r["passed"] for r in results)
    _write_json(out / "verify.json",
                {"checks": results, "all_passed": all_passed,
                 "inject": inject})
    if not all_passed:
        failed = [r["name"] for r in results if not r["passed"]]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# scenarios

def _abort_message(exc: Exception) -> str:
    return f"run aborted ({type(exc).__name__}): {exc}"


def _scenario_worker(sc: Scenario):
    # an aborted run becomes this scenario's verdict, so a batch finishes
    try:
        rep = penrose_report(sc)
    except (FlowError, StepRejected) as exc:
        return {"verdict": "error", "error": _abort_message(exc)}, None
    t = rep.trace
    csv = None if t is None else _csv("s,E,dEds_numeric,dEds_formula", t.s,
                                      t.energy, t.rate_numeric, t.rate_formula)
    return rep.report, csv


def cmd_scenario(cfg: dict, args) -> int:
    out = _out_dir(args)
    ref = _reference_from_config(cfg)
    if ref.kind == "tabulated":
        raise ConfigError("schema error: scenarios need a schwarzschild or "
                          "reissner_nordstrom reference, not a table")
    n_theta, n_phi = cfg["flow"]["resolution"]
    try:
        scenarios = [Scenario(m=ref.m, e=ref.e, n_theta=n_theta, n_phi=n_phi,
                              **block) for block in cfg["scenarios"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schema error: {exc}") from exc

    if args.jobs > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_scenario_worker, scenarios))
    else:
        outputs = [_scenario_worker(sc) for sc in scenarios]

    single = len(outputs) == 1
    worst = 0
    for i, (report, csv) in enumerate(outputs):
        stem = "scenario" if single else f"scenario_{i}"
        _write_json(out / f"{stem}.json", report)
        if csv is not None:
            (out / f"{stem.replace('scenario', 'energy_trace')}.csv"
             ).write_text(csv)
        verdict = report["verdict"]
        if verdict == "error":
            print(f"{stem}: error")
            print(report["error"], file=sys.stderr)
        else:
            margin = report["margin"]
            print(f"{stem}: {verdict}; margin "
                  + ("null" if margin is None else f"{margin:.6g}"))
        if verdict == "inequality violated":
            worst = max(worst, 2)
        elif verdict in ("hypotheses not met", "error"):
            worst = max(worst, 1)
    return {0: 0, 1: 3, 2: 1}[worst]


# ----------------------------------------------------------------------
# entry point

def console_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="penlab",
        description="quasi-local energy laboratory for static references")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel scenario workers")
    common.add_argument("--resolution",
                        help="grid override as NxM, e.g. 32x64")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "profile": cmd_profile,
        "flow": cmd_flow,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "scenario": cmd_scenario,
        "constants": cmd_constants,
    }
    for name in handlers:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)
    try:
        return handlers[args.command](_read_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (FlowError, StepRejected) as exc:
        print(_abort_message(exc), file=sys.stderr)
        return 3
    except (TypeError, ValueError) as exc:
        # a type or range that a library routine rejects
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
