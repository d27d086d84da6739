"""Command-line front end: exit codes, file outputs, determinism."""

import argparse
import itertools
import json
import warnings

import numpy as np
import pytest

import penlab.cli
import penlab.energy
import penlab.flow
from penlab.bartnik import StepRejected
from penlab.cli import console_main
from penlab.energy import PenroseReport, Scenario, penrose_report
from penlab.flow import FlowError
from penlab.refgeom import make_reference
from penlab.surfgeom import CurvedGeometry


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    code = console_main(["profile", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_profile_schwarzschild_row(tmp_path):
    code = console_main(["profile", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "profile.csv").read_text().strip().split("\n")
    assert rows[0] == "r,rho,F,V"
    row4 = next(r for r in rows if r.startswith("4,"))
    _, rho, F, V = (float(v) for v in row4.split(","))
    assert abs(rho - 2.9142136) < 1e-6
    assert abs(F - 1.1715729) < 1e-6
    assert V == np.sqrt(0.5)


def test_profile_rn_potential_column(tmp_path):
    # the V column of an analytic reference is √φ, bit for bit
    cfg = write_config(tmp_path, {
        "reference": {"kind": "reissner_nordstrom", "m": 1.0, "e": 0.5}})
    assert console_main(["profile", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
    r, V = rows[:, 0], rows[:, 3]
    ref = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    assert np.array_equal(V, np.sqrt(ref.phi(r)))


def test_profile_flat_table(tmp_path):
    r = np.linspace(0.5, 50.0, 200)
    table = tmp_path / "flat.csv"
    table.write_text("r,phi,V\n" + "\n".join(
        f"{v:.17g},1.0,1.0" for v in r) + "\n")
    cfg = write_config(tmp_path, {
        "reference": {"kind": "tabulated", "table": str(table)},
        "profile": {"r_min": 1.0, "r_max": 40.0, "points": 40},
    })
    code = console_main(["profile", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "profile.csv").read_text().strip().split("\n")[1:]
    for row in rows[::7]:
        rv, rho, F, V = (float(v) for v in row.split(","))
        assert abs(rho - rv) < 1e-10 * rv
        assert abs(F - 1.0) < 1e-12


def test_profile_table_from_horizon_default_range(tmp_path):
    # a Schwarzschild table whose first row is the horizon (phi = 0): profile
    # and constants both default to the range just inside the table's ends
    r = np.linspace(2.0, 50.0, 400)
    table = tmp_path / "schwarzschild.csv"
    table.write_text("r,phi,V\n" + "\n".join(
        f"{v:.17g},{1.0 - 2.0 / v:.17g},{np.sqrt(1.0 - 2.0 / v):.17g}"
        for v in r) + "\n")
    cfg = write_config(tmp_path, {
        "reference": {"kind": "tabulated", "table": str(table)},
        "profile": {"points": 50},
    })
    for command in ("profile", "constants"):
        assert console_main([command, "--config", cfg,
                             "--out", str(tmp_path)]) == 0, command
    r_out, V = np.loadtxt(tmp_path / "profile.csv", delimiter=",",
                          skiprows=1, usecols=(0, 3)).T
    assert len(r_out) == 50
    assert r_out[0] == 2.0 * 1.000001 and r_out[-1] == 50.0 * 0.999999
    # the tabulated V interpolates √(1 − 2/r) away from the horizon row
    far = r_out >= 3.0
    assert np.max(np.abs(V[far] - np.sqrt(1.0 - 2.0 / r_out[far]))) < 2e-4


def test_profile_extremal_reference_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "reference": {"kind": "reissner_nordstrom", "m": 1.0, "e": 1.0}})
    code = console_main(["profile", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    # wrong-type and out-of-range values that tests/test_fuzz.py turned up
    {"solver": {"dt_max": 0.0}},
    {"solver": {"dt_max": float("nan")}},
    {"reference": {"m": None}},
    {"reference": {"kind": "reissner_nordstrom", "m": 1e-229},
     "normalized": True},
    # solve_u's own input check, not a failed foliation condition
    {"solver": {"u0": 0.0}},
    {"solver": {"u0": -1.0}},
    {"solver": {"u0": float("nan")}},
    # (8, 0) is zero on all 8 Gauss nodes: the run would be the round one
    {"surface": {"perturbation": [[8, 0, 0.05]]}},
])
def test_bad_config_values_exit_2(tmp_path, capsys, config):
    config["flow"] = {"ds": 0.05, "s_max": 0.15, "store_every": 1}
    cfg = write_config(tmp_path, config)
    # a rejected value is reported once, as the exit 2 message, and not
    # also as a floating-point warning on the way (the tiny mass's
    # reference evaluates φ at radii where e²/r² is 0/0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = console_main(["solve", "--config", cfg, "--out", str(tmp_path),
                             "--resolution", "8x16"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_flow_and_solve_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "surface": {"r0": 4.0},
        "flow": {"ds": 0.02, "s_max": 1.0, "store_every": 5,
                 "resolution": [16, 32]},
        "solver": {"u0": 1.2},
    })
    assert console_main(["flow", "--config", cfg, "--out", str(tmp_path)]) == 0
    series = (tmp_path / "flow_series.csv").read_text()
    assert series.startswith("s,min_cos_theta,min_kappa_rho2,min_rho")
    report = json.loads((tmp_path / "flow_report.json").read_text())
    assert report["all_conditions_passed"] and not report["aborted"]

    assert console_main(["solve", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    urep = json.loads((tmp_path / "solve_report.json").read_text())
    assert urep["decay_bounded"] and urep["halvings"] == 0
    assert (tmp_path / "u_series.csv").read_text().startswith(
        "s,max_u_minus_1,min_u")


def test_constants_flat_zeros(tmp_path):
    r = np.linspace(0.5, 60.0, 300)
    table = tmp_path / "flat.csv"
    table.write_text("r,phi,V\n" + "\n".join(
        f"{v:.17g},1.0,1.0" for v in r) + "\n")
    cfg = write_config(tmp_path, {
        "reference": {"kind": "tabulated", "table": str(table)},
        "profile": {"r_min": 1.0, "r_max": 50.0},
    })
    code = console_main(["constants", "--config", cfg,
                         "--out", str(tmp_path)])
    assert code == 0
    cons = json.loads((tmp_path / "constants.json").read_text())
    for key in ("C1", "C2", "C3", "C4", "C5"):
        assert cons[key] == 0.0


def test_verify_clean_suite(tmp_path):
    assert console_main(["verify", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "verify.json").read_text())
    assert summary["all_passed"]
    assert len(summary["checks"]) == 8


def test_verify_fault_injection(tmp_path, capsys):
    cfg = write_config(tmp_path, {"inject": "t_sign_flip"})
    code = console_main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    summary = json.loads((tmp_path / "verify.json").read_text())
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["t_function_consistency"]
    assert "t_function_consistency" in capsys.readouterr().err


def test_verify_fails_nan_residual(tmp_path, monkeypatch, capsys):
    # max(0.0, nan) is 0.0; the checks must not fold a NaN away
    monkeypatch.setattr(CurvedGeometry, "gauss_residual",
                        property(lambda g: np.full(g.H0.shape, np.nan)))
    assert console_main(["verify", "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "verify.json").read_text())
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["gauss_identity"]
    assert "gauss_identity" in capsys.readouterr().err


# two 8x16 Schwarzschild blocks; the second's first leaf is not mean-convex
NON_CONVEX_BATCH = {
    "flow": {"resolution": [8, 16]},
    "scenarios": [
        {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 4.0,
         "s_max": 0.5},
        {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 4.0,
         "s_max": 0.5, "perturbation": [[2, 0, 0.45]]},
    ],
}


def test_scenario_batch_first_leaf_not_mean_convex(tmp_path, capsys):
    cfg = write_config(tmp_path, NON_CONVEX_BATCH)
    out = tmp_path / "out"
    assert console_main(["scenario", "--config", cfg, "--out", str(out)]) == 3
    first = json.loads((out / "scenario_0.json").read_text())
    assert first["verdict"] == "inequality holds"
    second = json.loads((out / "scenario_1.json").read_text())
    assert second["verdict"] == "hypotheses not met"
    assert second["E0"] is None and second["margin"] is None
    assert not second["hypotheses"]["surface_conditions"]["passed"]
    assert "scenario_1: hypotheses not met; margin null" in \
        capsys.readouterr().out


def test_scenario_first_leaf_inside_inner_horizon(tmp_path, capsys):
    # the perturbed first leaf passes its monitors but reaches inside
    # r = 2 inner_m = 3.8, where the inner metric has no boundary data
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.9, r0=4.0,
                  s_max=0.3, n_theta=8, n_phi=16,
                  perturbation={(2, 0): 0.2})
    with pytest.raises(FlowError, match="inner metric degenerate"):
        penrose_report(sc)
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenarios": [NON_CONVEX_BATCH["scenarios"][0],
                      {"kind": "schwarzschild_interior", "inner_m": 1.9,
                       "r0": 4.0, "s_max": 0.3,
                       "perturbation": [[2, 0, 0.2]]}],
    })
    out = tmp_path / "out"
    assert console_main(["scenario", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "scenario_1.json").read_text())
    assert report == {"verdict": "error", "error": "run aborted (FlowError): "
                      "first leaf: inner metric degenerate on the surface"}
    assert "scenario_1: error" in capsys.readouterr().out


def test_scenario_batch_leaf_outside_profile(tmp_path, capsys):
    # the second block's first stored leaf reaches below the profile's
    # inner end; it ends as an error and the batch goes on
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenarios": [NON_CONVEX_BATCH["scenarios"][0],
                      {"inner_m": 0.5, "r0": 2.5, "s_max": 0.3,
                       "perturbation": [[2, 0, -0.9]]}],
    })
    out = tmp_path / "out"
    assert console_main(["scenario", "--config", cfg, "--out", str(out)]) == 3
    first = json.loads((out / "scenario_0.json").read_text())
    assert first["verdict"] == "inequality holds"
    report = json.loads((out / "scenario_1.json").read_text())
    assert report["verdict"] == "error"
    assert "s = 0: rho outside the profile range" in report["error"]
    assert "scenario_1: error" in capsys.readouterr().out
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16], "s_max": 0.3},
        "surface": {"r0": 2.5, "perturbation": [[2, 0, -0.9]]},
    }, name="flow.json")
    assert console_main(["flow", "--config", cfg, "--out", str(out)]) == 3


def test_scenario_flagship_margin(tmp_path):
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.2,
                     "r0": 4.0, "s_max": 10.0},
    })
    code = console_main(["scenario", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "scenario.json").read_text())
    assert abs(report["margin"] - 0.0111456) < 2e-4
    assert report["verdict"] == "inequality holds"
    trace = (tmp_path / "energy_trace.csv").read_text()
    assert trace.startswith("s,E,dEds_numeric,dEds_formula")


def test_scenario_equality_margin_zero(tmp_path):
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.0,
                     "r0": 4.0, "s_max": 6.0},
    })
    assert console_main(["scenario", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "scenario.json").read_text())
    assert report["margin"] == 0.0


def test_scenario_hypothesis_gate_exits_3(tmp_path):
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [16, 32]},
        "scenario": {"kind": "custom", "r0": 6.0,
                     "horizon_area": 16 * np.pi, "boundary_u0": 1.1,
                     "perturbation": [[3, 2, 0.15]],
                     "ds": 0.02, "s_max": 2.0},
    })
    code = console_main(["scenario", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "scenario.json").read_text())
    assert report["verdict"] == "hypotheses not met"


def test_scenario_declared_violation_exits_1(tmp_path):
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenario": {"kind": "custom", "r0": 6.0,
                     "horizon_area": 16 * np.pi * 9.0, "boundary_u0": 1.05,
                     "s_max": 5.0},
    })
    code = console_main(["scenario", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1


def test_scenario_batch_parallel_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenarios": [
            {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 4.0,
             "s_max": 6.0},
            {"kind": "schwarzschild_interior", "inner_m": 1.4, "r0": 8.0,
             "s_max": 6.0},
        ],
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert console_main(["scenario", "--config", cfg, "--out", str(out1),
                         "--jobs", "2"]) == 0
    assert console_main(["scenario", "--config", cfg,
                         "--out", str(out2)]) == 0
    for name in ("scenario_0.json", "scenario_1.json",
                 "energy_trace_0.csv", "energy_trace_1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_resolution_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.2,
                     "r0": 4.0, "s_max": 6.0}})
    assert console_main(["scenario", "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8x16"]) == 0
    report = json.loads((tmp_path / "scenario.json").read_text())
    assert report["scenario"]["resolution"] == [8, 16]
    code = console_main(["scenario", "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8y16"])
    assert code == 2
    assert "resolution" in capsys.readouterr().err


def test_normalized_units(tmp_path):
    # all lengths in units of the reference mass; doubling m doubles E
    cfg = write_config(tmp_path, {
        "normalized": True,
        "reference": {"kind": "schwarzschild", "m": 2.0},
        "flow": {"resolution": [8, 16]},
        "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.2,
                     "r0": 4.0, "s_max": 6.0},
    })
    assert console_main(["scenario", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "scenario.json").read_text())
    assert report["scenario"]["r0"] == 8.0
    assert abs(report["margin"] - 2 * 0.0111456) < 4e-4
    # the defaults are rescaled too: surface.r0 4 is 4 m = 8, not the
    # m = 2 horizon, so this flow runs and writes what the same config
    # in geometric units writes
    outputs = []
    for name, config in [
        ("normalized", {"normalized": True, "reference": {"m": 2.0},
                        "flow": {"ds": 0.1, "s_max": 0.2}}),
        ("geometric", {"reference": {"m": 2.0}, "surface": {"r0": 8.0},
                       "flow": {"ds": 0.2, "s_max": 0.4}}),
    ]:
        out = tmp_path / name
        assert console_main(["flow", "--config", write_config(
            tmp_path, config, f"{name}.json"), "--out", str(out),
            "--resolution", "8x16"]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["flow_report.json", "flow_series.csv"]
    assert json.loads(outputs[0]["flow_report.json"])["s_final"] == 0.4


def test_normalized_scenario_is_scale_covariant(tmp_path):
    # E and sqrt(A/16 pi) - m carry one power of the mass: a normalized
    # perturbed RN scenario at m gives m times its m = 1 energies, with its
    # default ds and dt_max rescaled like the lengths it writes
    reports = {}
    for m in (1.0, 2.0, 0.37):
        cfg = write_config(tmp_path, {
            "normalized": True,
            "reference": {"kind": "reissner_nordstrom", "m": m, "e": 0.3},
            "flow": {"resolution": [8, 16]},
            "scenario": {"kind": "rn_interior", "inner_m": 1.1, "r0": 5.0,
                         "s_max": 3.0,
                         "perturbation": [[2, 1, 0.02], [3, 0, 0.01]]},
        })
        out = tmp_path / str(m)
        assert console_main(["scenario", "--config", cfg,
                             "--out", str(out)]) == 0
        reports[m] = json.loads((out / "scenario.json").read_text())
    base = reports[1.0]
    for m in (2.0, 0.37):
        assert reports[m]["verdict"] == base["verdict"]
        for key in ("E0", "E_inf", "margin"):
            assert reports[m][key] / m == pytest.approx(base[key], rel=1e-12)



# a short scenario that runs to a verdict when its config is accepted
SHORT_SCENARIO = {"kind": "schwarzschild_interior", "inner_m": 1.2,
                  "r0": 4.0, "s_max": 0.5}


@pytest.mark.parametrize("command, config, message", [
    # a horizon taken from |2 inner_m| would give a false violation
    ("scenario", {"scenario": dict(SHORT_SCENARIO, inner_m=-1.0)}, "inner_m"),
    # each of these would run a Schwarzschild reference, not the one given
    ("scenario", {"reference": {"table": "flat.csv"}}, "table"),
    ("scenario", {"reference": {"kind": "reissner_nordstrom", "m": 1.0,
                                "e": 0.5}}, "charge"),
    ("scenario", {"reference": {"kind": "schwarzschild", "e": 0.5}}, "charge"),
    ("scenario", {"reference": {"kind": "de_sitter"}}, "de_sitter"),
    ("profile", {"reference": {"kind": "schwarzschild", "e": 0.5}}, "charge"),
    # an unread key would fall back silently to a default
    ("scenario", {"scenarios": [dict(SHORT_SCENARIO, smax=0.1)]},
     "key(s): smax"),
    ("scenario", {"scenarios": [dict(SHORT_SCENARIO, m=3.0)]}, "key(s): m"),
    # a NaN lapse ratio would give a NaN margin, a false violation
    ("scenario", {"scenario": {"kind": "custom", "horizon_area": 1.0,
                               "boundary_u0": float("nan"), "r0": 6.0,
                               "s_max": 0.05, "ds": 0.02}}, "boundary_u0"),
    # rejected before the batch runs, not after the first scenario's report
    ("scenario", {"scenarios": [SHORT_SCENARIO, {
        "kind": "custom", "horizon_area": 1.0, "boundary_u0": [1.1, 1.2],
        "r0": 6.0}]}, "boundary_u0"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, r0=float("nan"))]}, "r0"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, ds=-0.02)]}, "ds"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, dt_max=0)]}, "dt_max"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, store_every=0)]},
     "store_every"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, s_max=float("nan"))]},
     "s_max"),
    ("scenario", {"scenarios": [SHORT_SCENARIO,
                                dict(SHORT_SCENARIO, dt_max=float("nan"))]},
     "dt_max"),
    ("scenario", {"scenarios": [SHORT_SCENARIO, dict(
        SHORT_SCENARIO, perturbation=[[2, 3, 0.1]])]}, "|m| > ell"),
    ("scenario", {"scenarios": [SHORT_SCENARIO, dict(
        SHORT_SCENARIO, perturbation=[[2, 0, 3.0]])]}, "G > 0"),
    # bool("false") is true: these would rescale every length, compute the
    # residual, or run nothing and exit 0
    ("flow", {"normalized": "false", "reference": {"m": 2.0},
              "surface": {"r0": 5.0}, "flow": {"ds": 0.1, "s_max": 0.2}},
     "normalized"),
    ("solve", {"solver": {"with_residual": "false"},
               "flow": {"ds": 0.05, "s_max": 0.15, "store_every": 1}},
     "with_residual"),
    ("scenario", {"scenarios": [dict(SHORT_SCENARIO,
                                     with_residual="false")]},
     "with_residual"),
    ("scenario", {"scenarios": []}, "non-empty list"),
    # an object would be read key by key as scenario blocks
    ("scenario", {"scenarios": SHORT_SCENARIO}, "non-empty list"),
    ("scenario", {"scenarios": [SHORT_SCENARIO, [1, 2]]}, "non-empty list"),
    ("scenario", {"scenario": "dink"}, "scenario one object"),
    # a misspelled key or block would fall back silently to its default;
    # each subcommand reads every block, not only its own
    ("profile", {"reference": {"mass": 2.0}},
     "unknown reference key(s): mass"),
    ("profile", {"profile": {"point": 50}}, "unknown profile key(s): point"),
    ("flow", {"surface": {"r_0": 5.0}, "flow": {"s_max": 0.2}},
     "unknown surface key(s): r_0"),
    ("flow", {"flow": {"sMax": 0.2}}, "unknown flow key(s): sMax"),
    ("solve", {"solver": {"dtmax": 0.02},
               "flow": {"ds": 0.05, "s_max": 0.15, "store_every": 1}},
     "unknown solver key(s): dtmax"),
    ("flow", {"scenario": dict(SHORT_SCENARIO, smax=0.1),
              "flow": {"s_max": 0.2}}, "unknown scenario key(s): smax"),
    ("profile", {"normalised": True}, "unknown config key(s): normalised"),
    ("flow", {"solvr": {"u0": 3.0}, "flow": {"s_max": 0.2}},
     "unknown config key(s): solvr"),
    # counts are whole numbers, not truncated
    ("profile", {"profile": {"points": 2.7}}, "points must be a whole number"),
    # the profile block's own range, named by its keys; NaN fails too
    ("profile", {"profile": {"points": 1}},
     "profile points must be at least 2"),
    ("constants", {"profile": {"points": -3}},
     "profile points must be at least 2"),
    ("profile", {"profile": {"r_min": 6.0, "r_max": 5.0}},
     "profile r_min must lie below r_max"),
    ("constants", {"profile": {"r_min": 5.0, "r_max": 5.0}},
     "profile r_min must lie below r_max"),
    ("constants", {"profile": {"r_min": float("nan")}},
     "profile r_min must lie below r_max"),
    ("profile", {"profile": {"r_max": float("nan")}},
     "profile r_min must lie below r_max"),
    ("flow", {"flow": {"resolution": [8.9, 16.5], "s_max": 0.2}},
     "resolution must be a whole number"),
    ("flow", {"surface": {"perturbation": [[2.6, 0.4, 0.1]]},
              "flow": {"s_max": 0.2}}, "perturbation must be a whole number"),
    # a number is a JSON number: float("0.1") and float(True) would run
    ("flow", {"flow": {"ds": "0.1", "s_max": 0.2}}, "ds must be a number"),
    ("flow", {"flow": {"ds": 0.1, "s_max": True}}, "s_max must be a number"),
    # a dict would keep only the last amplitude of a repeated mode
    ("flow", {"surface": {"perturbation": [[2, 0, 0.1], [2, 0, 0.2]]},
              "flow": {"s_max": 0.2}}, "perturbation repeats a mode"),
    ("scenario", {"scenarios": [SHORT_SCENARIO, dict(
        SHORT_SCENARIO, perturbation=[[2, 0, 0.1], [3, 1, 0.01],
                                      [2, 0, 0.2]])]},
     "perturbation repeats a mode"),
    # P_8 vanishes on the 8 Gauss nodes: the run would be the round one
    ("scenario", {"scenarios": [SHORT_SCENARIO, dict(
        SHORT_SCENARIO, perturbation=[[8, 0, 0.05]])]},
     "mode (8, 0) is outside the grid's band (lmax 7, mmax 7)"),
], ids=["negative-inner-mass", "scenario-table", "charged-interior",
        "charged-schwarzschild", "unknown-reference-kind",
        "profile-charged-schwarzschild", "unknown-key-smax", "unknown-key-m",
        "nan-boundary-u0", "batch-unbroadcastable-boundary-u0",
        "batch-nan-r0", "batch-negative-ds", "batch-zero-dt-max",
        "batch-zero-store-every", "batch-nan-s-max", "batch-nan-dt-max",
        "batch-mode-m-above-ell", "batch-nonpositive-bump",
        "string-normalized", "string-solver-with-residual",
        "string-scenario-with-residual", "empty-scenarios",
        "object-scenarios", "non-object-scenario", "string-scenario",
        "misspelled-reference-key", "misspelled-profile-key",
        "misspelled-surface-key", "misspelled-flow-key",
        "misspelled-solver-key", "misspelled-scenario-key",
        "unknown-block-normalised", "unknown-block-solvr",
        "fractional-points", "one-profile-point", "constants-negative-points",
        "reversed-profile-range", "constants-empty-range",
        "constants-nan-r-min", "nan-r-max", "fractional-resolution",
        "fractional-perturbation-mode", "string-ds", "boolean-s-max",
        "repeated-surface-mode", "batch-repeated-mode",
        "batch-unresolved-mode"])
def test_mismatched_config_exits_2(tmp_path, monkeypatch, capsys, command,
                                   config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.csv").write_text("r,phi,V\n" + "\n".join(
        f"{v:.17g},1.0,1.0" for v in np.linspace(0.5, 50.0, 200)) + "\n")
    cfg = write_config(tmp_path, {"scenario": SHORT_SCENARIO, **config})
    code = console_main([command, "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8x16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: schema error" in err and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "flat.csv"]


@pytest.mark.parametrize("command, config", [
    ("flow", {"flow": {"ds": 0.05, "s_max": 0.25, "store_every": 2.5}}),
    ("scenario", {"scenario": dict(SHORT_SCENARIO, store_every=2.5)}),
])
def test_fractional_store_every_exits_2(tmp_path, capsys, command, config):
    # neither truncated to 2 nor read as every 5th step
    cfg = write_config(tmp_path, config)
    code = console_main([command, "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8x16"])
    assert code == 2
    assert "store_every must be a whole number" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_flow_and_scenario_start_alike(tmp_path):
    # penlab flow and penrose_report build the same first leaf and flow:
    # equal G on every stored leaf, bit for bit
    modes = [[2, 1, 0.03], [3, 0, 0.01]]
    cfg = write_config(tmp_path, {
        "reference": {"kind": "reissner_nordstrom", "m": 1.0, "e": 0.3},
        "surface": {"r0": 5.0, "perturbation": modes},
        "flow": {"resolution": [8, 16], "s_max": 1.0}})
    fol = penlab.cli._flow_from_config(penlab.cli._read_config(
        argparse.Namespace(config=cfg, resolution=None)))
    rep = penrose_report(Scenario(
        kind="rn_interior", m=1.0, e=0.3, inner_m=1.1, r0=5.0,
        perturbation={(l, m): eps for l, m, eps in modes},
        n_theta=8, n_phi=16, s_max=1.0))
    assert fol.s == rep.foliation.s and len(fol) == 11
    assert [s.G.tobytes() for s in fol.surfaces] == [
        s.G.tobytes() for s in rep.foliation.surfaces]


def _raise(exc):
    def stage(*args, **kwargs):
        raise exc
    return stage


def test_flow_abort_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(penlab.energy, "run_flow",
                        _raise(FlowError("step 7 (s = 0.14): G <= 0")))
    assert console_main(["flow", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "run aborted (FlowError): step 7 (s = 0.14): G <= 0\n"


def test_exhausted_lapse_step_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(penlab.cli, "penrose_report",
                        _raise(StepRejected("linear solve stalled")))
    cfg = write_config(tmp_path, {
        "scenario": {"kind": "schwarzschild_interior", "inner_m": 1.2,
                     "r0": 4.0, "s_max": 1.0}})
    code = console_main(["scenario", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "run aborted (StepRejected): linear solve stalled\n"


def test_short_flow_solve_exits_2(tmp_path, capsys):
    # two stored slices cannot carry the lapse solve: unusable input
    cfg = write_config(tmp_path, {
        "flow": {"ds": 0.05, "s_max": 0.05, "store_every": 1}})
    code = console_main(["solve", "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8x16"])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err
    assert not (tmp_path / "solve_report.json").exists()


def test_nonpositive_coefficient_solve_exits_3(tmp_path, monkeypatch, capsys):
    # the gate reads the flow's own slice summaries; slice 1 reports a
    # nonpositive reaction coefficient
    message = "coefficient detA0 + T/2 - Ric(nu,nu) not positive on slice 1"
    summary, slices = penlab.flow._slice_summary, itertools.count()

    def bad_slice_1(geom):
        out = summary(geom)
        if next(slices) == 1:
            out["min_coefficient"] = -1.0
        return out

    monkeypatch.setattr(penlab.flow, "_slice_summary", bad_slice_1)
    cfg = write_config(tmp_path, {
        "flow": {"ds": 0.05, "s_max": 0.15, "store_every": 1}})
    code = console_main(["solve", "--config", cfg, "--out", str(tmp_path),
                         "--resolution", "8x16"])
    assert code == 3
    assert capsys.readouterr().err == f"foliation condition failed: {message}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("other, code", [("inequality holds", 3),
                                         ("inequality violated", 1)])
def test_scenario_batch_records_error(tmp_path, monkeypatch, capsys, jobs,
                                      other, code):
    # the second of two scenarios aborts; the first still gets its report
    def report(sc):
        if sc.r0 == 8.0:
            raise FlowError("step 3 (s = 0.06): G <= 0")
        return PenroseReport(report={"verdict": other, "margin": 0.5},
                             trace=None, foliation=None, ufield=None)

    monkeypatch.setattr(penlab.cli, "penrose_report", report)
    cfg = write_config(tmp_path, {
        "flow": {"resolution": [8, 16]},
        "scenarios": [
            {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 4.0},
            {"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": 8.0},
        ],
    })
    out = tmp_path / "out"
    assert console_main(["scenario", "--config", cfg, "--out", str(out),
                         "--jobs", jobs]) == code
    first = json.loads((out / "scenario_0.json").read_text())
    assert first["verdict"] == other
    message = "run aborted (FlowError): step 3 (s = 0.06): G <= 0"
    assert json.loads((out / "scenario_1.json").read_text()) == {
        "verdict": "error", "error": message}
    streams = capsys.readouterr()
    assert "scenario_1: error" in streams.out
    assert streams.err == message + "\n"
