"""End-to-end acceptance: one test per shipped numerical guarantee.

Each test pins a closed-form value, an exact identity, or a stated
tolerance; the conftest hook prints a one-line PASS/FAIL summary per
criterion at the end of the run.
"""

import time

import numpy as np
import pytest

from diagnostics import nonincreasing, t_function
from penlab.bartnik import solve_u
from penlab.energy import Scenario, monotonicity_check, penrose_report
from penlab.flow import FlowConfig, compute_constants, run_flow
from penlab.oracle import round_flow_u, scenario_closed_form
from penlab.refgeom import isothermal_profile, make_reference, reference_from_csv
from penlab.sphere import SphereGrid
from penlab.surfgeom import curved_geometry, perturbed_surface, round_surface

H0_ROUND = 2.0 * np.sqrt(0.5) / 4.0      # 0.3535534 at m=1, r=4
KAPPA_ROUND = np.sqrt(0.5) / 4.0         # 0.1767767


@pytest.fixture(scope="module")
def schw_ref():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def schw_profile(schw_ref):
    return isothermal_profile(schw_ref, np.geomspace(2.02, 200.0, 900))


def schwarzschild_table(tmp_path, n):
    r = np.geomspace(2.2, 60.0, n)
    phi = 1.0 - 2.0 / r
    path = tmp_path / f"schw_{n}.csv"
    rows = "\n".join("%.17g,%.17g,%.17g" % (rv, pv, np.sqrt(pv))
                     for rv, pv in zip(r, phi))
    path.write_text("r,phi,V\n" + rows + "\n")
    return path


@pytest.mark.criterion(1, "isothermal profile reproduces the closed form")
def test_01_isothermal_profile_closed_form(record_property):
    t0 = time.perf_counter()
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 200.0, 900))
    r = np.linspace(2.5, 100.0, 391)
    rho = profile.rho_of_r(r)
    elapsed = time.perf_counter() - t0
    closed = (r - 1.0 + np.sqrt(r**2 - 2.0 * r)) / 2.0
    rel = float(np.max(np.abs(rho / closed - 1.0)))
    record_property("detail", f"max rel err {rel:.2e}, {elapsed:.2f}s")
    assert rel < 1e-8
    assert elapsed < 1.0


@pytest.mark.criterion(2, "conformal curvature matches closed forms")
def test_02_curvature_closed_forms(schw_profile, tmp_path, record_property):
    # analytic radial derivatives: spectral geometry hits the closed
    # forms at the profile's interpolation error, near roundoff
    grid = SphereGrid(16, 32)
    rho0 = float(schw_profile.rho_of_r(4.0))
    geom = curved_geometry(round_surface(grid, rho0), schw_profile)
    err_h = float(np.max(np.abs(geom.H0 - H0_ROUND)))
    err_k = max(float(np.max(np.abs(geom.kappa_min - KAPPA_ROUND))),
                float(np.max(np.abs(geom.kappa_max - KAPPA_ROUND))))
    assert err_h < 1e-10
    assert err_k < 1e-10

    # tabulated radial data: the interpolation error dominates and must
    # shrink with the table density at better than first order
    errs = []
    for n in (40, 80, 160):
        ref_t = reference_from_csv(schwarzschild_table(tmp_path, n))
        prof_t = isothermal_profile(ref_t, np.geomspace(2.3, 55.0, 700))
        g = curved_geometry(
            round_surface(grid, float(prof_t.rho_of_r(4.0))), prof_t)
        errs.append(max(float(np.max(np.abs(g.H0 - H0_ROUND))),
                        float(np.max(np.abs(g.kappa_min - KAPPA_ROUND)))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    record_property(
        "detail", "analytic err %.1e; table errs %.1e->%.1e, order %.1f"
        % (err_h, errs[0], errs[-1], np.mean(orders)))
    assert errs[0] > errs[1] > errs[2]
    assert np.mean(orders) > 1.8
    assert errs[-1] < 5e-7


@pytest.mark.criterion(3, "matter function bounded by scalar curvature")
def test_03_matter_function_bounds(record_property):
    ref = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    r = np.linspace(2.0, 20.0, 100)[:, None]
    c = np.linspace(0.0, 1.0, 20)[None, :]
    t_val = t_function(ref, r, c)
    rbar = 2.0 * ref.e**2 / r**4 * np.ones_like(c)

    assert float(np.min(t_val)) >= -1e-15
    assert float(np.max(t_val - rbar)) <= 1e-14

    # the potential-based definition vanishes along the radial direction
    # and carries the full charge term tangentially
    closed = 2.0 * ref.e**2 * (1.0 - c**2) / r**4
    err = float(np.max(np.abs(t_val - closed)))
    record_property("detail", f"closed-form err {err:.2e}")
    assert err < 1e-8
    assert float(np.max(np.abs(t_function(ref, r[:, 0], 1.0)))) < 1e-15


@pytest.mark.criterion(4, "surface curvature identity closed under refinement")
def test_04_gauss_identity(schw_profile, record_property):
    # both curvature routes are built from the same spectral derivatives,
    # so the identity residual sits at roundoff; refinement must keep it
    # pinned there instead of exciting an inconsistency
    rho0 = float(schw_profile.rho_of_r(4.0))
    worst = 0.0
    for res in ((8, 16), (16, 32), (32, 64)):
        grid = SphereGrid(*res)
        for surf in (round_surface(grid, rho0),
                     perturbed_surface(grid, rho0, {(2, 0): 0.1})):
            geom = curved_geometry(surf, schw_profile)
            resid = 0.5 * float(np.max(np.abs(geom.gauss_residual)))
            worst = max(worst, resid)
            assert resid < 1e-5
            assert resid < 1e-12
    record_property("detail", f"max residual {worst:.2e} over 3 resolutions")


@pytest.mark.criterion(5, "energy rate matches the variational integral")
def test_05_energy_rate_identity(schw_profile, record_property):
    grid = SphereGrid(16, 32)
    surf = round_surface(grid, float(schw_profile.rho_of_r(4.0)))
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=1e-3, s_max=0.2, store_every=1))
    uf = solve_u(fol, 1.2, dt_max=1e-3, with_residual=False)
    trace = monotonicity_check(uf)
    record_property(
        "detail", "mismatch %.2e, dE/ds(0) %.7f"
        % (trace.max_mismatch, trace.rate_formula[0]))
    assert trace.max_mismatch < 1e-6
    assert trace.rate_formula[0] == pytest.approx(-0.0117851, abs=1e-5)
    assert nonincreasing(trace)
    assert trace.max_rate < 0.0

    # u identically 1 is the reference itself: zero energy, zero rate,
    # bitwise, not just small
    uf1 = solve_u(fol, 1.0, dt_max=1e-3, with_residual=False)
    trace1 = monotonicity_check(uf1)
    assert np.all(trace1.energy == 0.0)
    assert np.all(trace1.rate_formula == 0.0)
    assert trace1.max_mismatch == 0.0


@pytest.mark.criterion(6, "lapse bounds, far-field decay, oracle agreement")
def test_06_lapse_bounds_and_decay(record_property):
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, (4 + 50) * 1.6, 900))
    grid = SphereGrid(32, 64)
    t0 = time.perf_counter()
    surf = round_surface(grid, float(profile.rho_of_r(4.0)))
    fol = run_flow(surf, profile,
                   FlowConfig(ds=0.04, s_max=50.0, store_every=1))
    uf = solve_u(fol, 1.2, dt_max=0.04, with_residual=False)
    elapsed = time.perf_counter() - t0

    assert uf.bounds[0] >= 1.0 - 1e-12
    assert uf.bounds[1] <= 1.2 + 1e-12
    assert uf.halvings == 0
    assert uf.decay_bounded

    # s * max|u-1| settling to a constant is the 1/s decay signature
    s = np.array(fol.s)
    y = s * np.array([np.max(np.abs(u - 1.0)) for u in uf.u])
    tail = y[s > 25.0]
    spread = float(tail.max() / tail.min() - 1.0)
    assert spread < 0.02
    assert 0.2 < tail.min() <= tail.max() < 0.5

    states, _ = round_flow_u(ref, 4.0, 1.2, 50.0, n_samples=len(fol))
    assert np.allclose([st.s for st in states], s, atol=1e-12)
    diffs = [float(np.max(np.abs(uf.u[k] - states[k].u)))
             for k in range(len(fol))]
    record_property(
        "detail", "oracle diff %.2e, decay spread %.4f, %.0fs"
        % (max(diffs), spread, elapsed))
    assert max(diffs) < 1e-6
    assert elapsed < 60.0


@pytest.mark.criterion(7, "prescribed-curvature residual, 2nd order in ds")
def test_07_prescribed_curvature_residual(schw_profile, record_property):
    grid = SphereGrid(16, 32)
    rho0 = float(schw_profile.rho_of_r(4.0))
    maxes = []
    for ds in (0.02, 0.01, 0.005):
        surf = round_surface(grid, rho0)
        fol = run_flow(surf, schw_profile,
                       FlowConfig(ds=ds, s_max=2.0, store_every=1))
        uf = solve_u(fol, 1.2, dt_max=ds, with_residual=True)
        maxes.append(float(np.max(np.abs(uf.residual))))
    ratios = (maxes[0] / maxes[1], maxes[1] / maxes[2])
    record_property(
        "detail", "residual %.2e at ds=0.02; halving ratios %.2f, %.2f"
        % (maxes[0], *ratios))
    assert maxes[0] < 1e-5
    for ratio in ratios:
        assert 3.2 < ratio < 4.8


@pytest.mark.criterion(8, "foliation conditions preserved to s = 100")
def test_08_condition_preservation(record_property):
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref,
                                 np.geomspace(2.02, (6 + 100) * 1.6, 1100))
    grid = SphereGrid(24, 48)
    surf = perturbed_surface(grid, float(profile.rho_of_r(6.0)),
                             {(2, 0): 0.05})
    g0 = curved_geometry(surf, profile)

    angle_floor = 1.0 / np.sqrt(3.0)
    assert float(np.min(g0.flat.cos_theta)) > angle_floor + 0.05
    assert float(np.min(g0.flat.kappa_min * surf.G**2)) > np.sqrt(3.0) + 0.05
    assert float(np.min(surf.G)) > 3.1

    fol = run_flow(surf, profile,
                   FlowConfig(ds=0.05, s_max=100.0, store_every=5))
    assert not fol.aborted
    assert fol.s[-1] == pytest.approx(100.0, abs=1e-9)
    cos_margin = np.array([sm["min_cos_theta"] for sm in fol.summaries])
    kap_margin = np.array([sm["min_kappa_rho2"] for sm in fol.summaries])
    worst_cos = float(np.min(cos_margin - angle_floor))
    worst_kap = float(np.min(kap_margin - np.sqrt(3.0)))
    record_property(
        "detail", "worst margins: angle %.3f, convexity %.3f over %d slices"
        % (worst_cos, worst_kap, len(fol)))
    assert worst_cos > 0.0
    assert worst_kap > 0.0


@pytest.mark.criterion(9, "energy inequality holds, desk scale and sweep")
def test_09_energy_inequality(record_property):
    t0 = time.perf_counter()
    flagship = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2,
                        r0=4.0)
    rep = penrose_report(flagship).report
    closed = scenario_closed_form(1.2, 1.0, 4.0)

    assert rep["hypotheses"]["all_passed"]
    assert rep["rhs"] == pytest.approx(0.2, abs=1e-14)
    assert rep["E0"] == pytest.approx(0.2111456, abs=1e-4)
    assert rep["E0"] == pytest.approx(closed["LHS"], abs=1e-9)
    assert rep["E0"] >= 0.2
    # extrapolation noise allowance on the closed lower endpoint
    assert 0.2 - 1e-4 <= rep["E_inf"] <= rep["E0"]
    assert rep["margin"] == pytest.approx(0.0111456, abs=1e-4)
    assert rep["monotonicity_margin"] <= 1e-8
    assert rep["verdict"] == "inequality holds"

    margins = []
    for inner_m in (1.0, 1.25, 1.5, 1.75, 2.0):
        for r0 in (4.5, 20.0, 60.0, 100.0):
            sc = Scenario(kind="schwarzschild_interior", m=1.0, r0=r0,
                          inner_m=inner_m, n_theta=8, n_phi=16, ds=0.05,
                          s_max=5.0, store_every=5, profile_points=700)
            out = penrose_report(sc).report
            assert out["hypotheses"]["all_passed"]
            assert out["margin"] >= -1e-9
            assert out["verdict"] == "inequality holds"
            margins.append(out["margin"])
    elapsed = time.perf_counter() - t0
    record_property(
        "detail", "E0 %.7f, E_inf %.7f; sweep min margin %.2e; %.0fs"
        % (rep["E0"], rep["E_inf"], min(margins), elapsed))
    assert elapsed < 600.0


@pytest.mark.criterion(10, "decay constants match the analytic supremum")
def test_10_decay_constants(tmp_path, record_property):
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.005, 100.0, 800))
    cons = compute_constants(profile)

    # closed isotropic factor: F = 1 + m/(2 rho); the bounded field for
    # the flow-speed gradient is m(1/F + 1/(rho^2 F^3))
    lo, hi = cons["details"]["rho_range"]
    rho = np.geomspace(lo, hi, 20000)
    F = 1.0 + 0.5 / rho
    sup_closed = float(np.max(1.0 / F + 1.0 / (rho**2 * F**3)))
    rel = abs(cons["C3"] / sup_closed - 1.0)
    record_property("detail", "C3 %.6f vs closed sup %.6f (rel %.2e)"
                    % (cons["C3"], sup_closed, rel))
    assert rel < 0.01

    r = np.linspace(0.5, 60.0, 300)
    table = tmp_path / "flat.csv"
    table.write_text("r,phi,V\n" + "\n".join(
        f"{v:.17g},1.0,1.0" for v in r) + "\n")
    flat_prof = isothermal_profile(reference_from_csv(table),
                                   np.geomspace(1.0, 50.0, 400))
    flat_cons = compute_constants(flat_prof)
    for key in ("C1", "C2", "C3", "C4", "C5"):
        assert flat_cons[key] == 0.0
