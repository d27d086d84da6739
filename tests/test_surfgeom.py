import dataclasses

import numpy as np
import pytest

from diagnostics import (DisplacedSphere, gauss_curvature, potential_at,
                         ricci_normal, scalar_curvature, t_function)
from penlab.bartnik import _laplacian, _make_bundle
from penlab.flow import _slice_summary
from penlab.sphere import SphereGrid
from penlab.refgeom import _cone, make_reference, isothermal_profile
from penlab.surfgeom import (
    StarSurface,
    round_surface,
    perturbed_surface,
    flat_geometry,
    curved_geometry,
    metric_partials,
    brioschi_curvature,
)


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(24, 48)


@pytest.fixture(scope="module")
def schw():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def schw_profile(schw):
    return isothermal_profile(schw, np.geomspace(2.05, 500.0, 400))


@pytest.fixture(scope="module")
def rn_profile():
    rn = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    return isothermal_profile(rn, np.geomspace(1.9, 500.0, 400))


def test_surface_validation(grid):
    with pytest.raises(ValueError):
        StarSurface(grid, np.ones((3, 3)))
    with pytest.raises(ValueError):
        round_surface(grid, -2.0)
    with pytest.raises(ValueError):
        perturbed_surface(grid, 1.0, {(2, 0): 3.0})  # dips below zero


@pytest.mark.parametrize("n_theta, n_phi, mode", [
    (8, 16, (8, 0)),    # P_8 vanishes on the 8 nodes: the run is round
    (8, 8, (4, 4)),     # m = 4 is past mmax 3: slice 0's partials miss it
    (16, 32, (16, 2)),  # past lmax 15
])
def test_unresolved_mode_rejected(n_theta, n_phi, mode):
    grid = SphereGrid(n_theta, n_phi)
    with pytest.raises(ValueError) as err:
        perturbed_surface(grid, 1.0, {mode: 0.05})
    assert str(err.value) == (f"mode {mode} is outside the grid's band "
                              f"(lmax {grid.lmax}, mmax {grid.mmax})")
    # the band's own corner is accepted (P_l^m reaches about 6e15 at 16x32)
    perturbed_surface(grid, 1.0, {(grid.lmax, grid.mmax): 1e-20})


def test_round_flat_values(grid):
    rho0 = 2.9142136
    geom = flat_geometry(round_surface(grid, rho0))
    assert np.allclose(geom.kappa_min, 1.0 / rho0, atol=1e-12)
    assert np.allclose(geom.kappa_max, 1.0 / rho0, atol=1e-12)
    assert np.allclose(geom.H, 0.6862915, atol=1e-6)
    assert np.allclose(geom.support, rho0, atol=1e-12)
    assert np.allclose(geom.cos_theta, 1.0, atol=1e-14)
    assert np.allclose(geom.W, rho0, atol=1e-12)
    assert geom.grid.integrate(geom.area_density) == pytest.approx(
        4.0 * np.pi * rho0**2, rel=1e-12)


def test_round_curved_frozen_values(grid, schw, schw_profile):
    rho0 = float(schw_profile.rho_of_r(4.0))
    assert rho0 == pytest.approx(2.9142136, abs=1e-6)
    geom = curved_geometry(round_surface(grid, rho0), schw_profile)
    assert np.allclose(geom.r, 4.0, atol=1e-9)
    assert np.allclose(geom.F, 1.1715729, atol=1e-6)
    assert np.allclose(geom.kappa_min, 0.1767767, atol=1e-6)
    assert np.allclose(geom.kappa_max, 0.1767767, atol=1e-6)
    assert np.allclose(geom.H0, 0.3535534, atol=1e-6)
    assert np.allclose(geom.V, 0.7071068, atol=1e-6)
    assert np.allclose(geom.det_a0, 0.03125, atol=1e-8)
    assert np.allclose(geom.ric_nu, -0.03125, atol=1e-8)
    assert np.allclose(geom.dV_dnu, 0.0625, atol=1e-8)
    assert np.allclose(geom.t_field, 0.0, atol=1e-10)
    assert np.allclose(geom.gauss_k, 0.0625, atol=1e-8)
    assert np.max(np.abs(geom.gauss_residual)) < 1e-8
    assert geom.area_radius() == pytest.approx(4.0, abs=1e-9)
    # H0 = 2√φ/r holds down to the horizon, where it vanishes
    near = isothermal_profile(schw, np.geomspace(2.00005, 5.0, 50))
    geom = curved_geometry(round_surface(grid, float(near.rho_of_r(2.0001))), near)
    assert np.allclose(geom.H0, np.sqrt(1.0 - 2.0 / 2.0001) / 1.00005, atol=1e-9)


def test_round_rn_values(grid, rn_profile):
    rho0 = float(rn_profile.rho_of_r(4.0))
    geom = curved_geometry(round_surface(grid, rho0), rn_profile)
    assert np.allclose(geom.det_a0, 0.0322266, atol=1e-7)
    assert np.allclose(geom.H0, 0.5 * np.sqrt(0.515625), rtol=1e-9)
    assert np.allclose(geom.V, np.sqrt(0.515625), rtol=1e-12)
    # radial normal: the directional curvature quantity vanishes
    assert np.max(np.abs(geom.t_field)) < 1e-10
    assert np.max(np.abs(geom.gauss_residual)) < 1e-8


def test_rn_t_field_off_radial(grid, rn_profile):
    surf = perturbed_surface(grid, 2.7, {(2, 0): 0.05})
    geom = curved_geometry(surf, rn_profile)
    c2 = geom.flat.cos_theta**2
    expected = 2.0 * 0.25 * (1.0 - c2) / geom.r**4
    assert np.max(np.abs(geom.t_field - expected)) < 1e-12
    assert np.max(geom.t_field) > 1e-6


def test_flat_brioschi_matches_shape_operator(grid):
    surf = perturbed_surface(grid, 3.0, {(2, 0): 0.05, (3, 1): 0.02, (2, -2): 0.015})
    geom = flat_geometry(surf)
    # the flat table φ = V = 1 has F = 1, so its metric is the flat chart's
    K_intrinsic = brioschi_curvature(**metric_partials(
        surf, DisplacedSphere.profile()))
    K_extrinsic = gauss_curvature(geom)
    assert np.max(np.abs(K_intrinsic - K_extrinsic)) < 1e-9


def test_gauss_bonnet_flat(grid):
    surf = perturbed_surface(grid, 3.0, {(2, 0): 0.06, (4, 2): 0.01})
    geom = flat_geometry(surf)
    total = grid.integrate(gauss_curvature(geom) * geom.area_density)
    assert total == pytest.approx(4.0 * np.pi, rel=1e-8)


def test_gauss_bonnet_curved(grid, schw_profile):
    surf = perturbed_surface(grid, 3.5, {(2, 0): 0.04, (3, -1): 0.01})
    geom = curved_geometry(surf, schw_profile)
    total = grid.integrate(geom.gauss_k * geom.area_density)
    assert total == pytest.approx(4.0 * np.pi, rel=1e-8)


def test_curved_gauss_residual_converges(schw_profile):
    # the intrinsic/extrinsic identity holds pointwise at any resolution;
    # the Gauss-Bonnet quadrature defect is what sees truncation on a
    # non-band-limited shape, and it dies off spectrally
    defects = {}
    for nt in (8, 16):
        g = SphereGrid(nt, 2 * nt)
        x = np.sin(g.theta)[:, None] * np.cos(g.phi)[None, :]
        surf = StarSurface(g, 3.5 * (1.0 + 0.4 * np.exp(x) / np.e))
        geom = curved_geometry(surf, schw_profile)
        assert np.max(np.abs(geom.gauss_residual)) < 1e-12
        defects[nt] = abs(g.integrate(geom.gauss_k * geom.area_density)
                          - 4.0 * np.pi)
    assert defects[8] > 1e-10
    assert defects[16] < 1e-12


def test_laplacian_round_eigenfunction(schw_profile):
    # every real harmonic of the band, m >= 1 included, on a round leaf of
    # area radius 4: Δ Y = −l(l+1)/16 Y.  A divergence of the flux f_φ/sinθ,
    # which goes like sin^(m−1)θ at the poles, missed this by O(1)
    rho0 = float(schw_profile.rho_of_r(4.0))
    for shape in ((8, 16), (16, 32), (32, 64)):
        g = SphereGrid(*shape)
        b = _make_bundle(curved_geometry(round_surface(g, rho0), schw_profile))
        for ell in range(g.lmax + 1):
            for m in range(min(ell, g.mmax) + 1):
                for part in (0, 1) if m else (0,):
                    C = np.zeros((1, g.mmax + 1, 2, g.lmax + 1))
                    C[0, m, part, ell] = 1.0
                    Y = g.synthesize(C, 0)
                    lam = ell * (ell + 1) / 16.0
                    lap = _laplacian(b, g.partials(Y))
                    err = np.max(np.abs(lap + lam * Y))
                    assert err <= 1e-10 * max(lam, 1.0) * np.max(np.abs(Y)), (
                        shape, ell, m, part, err)


def test_laplacian_is_self_adjoint_off_the_round_leaf(schw_profile):
    # ∫ h Δf dA = ∫ f Δh dA on a leaf with m >= 1 bumps, for smooth f and
    # h: the one check of the first-order (B) rows away from round data
    g = SphereGrid(32, 64)
    surf = perturbed_surface(g, float(schw_profile.rho_of_r(6.0)),
                             {(2, 1): 0.01, (3, 3): 0.005})
    geom = curved_geometry(surf, schw_profile)
    b = _make_bundle(geom)
    th, ph = g.theta[:, None], g.phi[None, :]
    x, y, z = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
    f = np.exp(0.5 * x) * (1.0 + 0.2 * y * z)
    h = np.cos(1.5 * y) + 0.3 * x * x * z
    hf = g.integrate(h * _laplacian(b, g.partials(f)) * geom.area_density)
    fh = g.integrate(f * _laplacian(b, g.partials(h)) * geom.area_density)
    assert abs(hf - fh) <= 1e-12 * abs(hf)


def test_laplacian_integrates_to_zero(grid, schw_profile):
    surf = perturbed_surface(grid, 3.5, {(2, 0): 0.04, (2, 2): 0.02})
    geom = curved_geometry(surf, schw_profile)
    x = grid.cos_theta[:, None]
    field = np.broadcast_to(x**3, geom.H0.shape) + 0.1 * np.cos(grid.phi)[None, :] * np.sin(grid.theta)[:, None]
    lap = _laplacian(_make_bundle(geom), grid.partials(field))
    assert abs(grid.integrate(lap * geom.area_density)) < 1e-9


def test_condition_report_round(grid, schw_profile):
    # the slice summary of a round Schwarzschild sphere at r = 4
    rho0 = float(schw_profile.rho_of_r(4.0))
    geom = curved_geometry(round_surface(grid, rho0), schw_profile)
    summary = _slice_summary(geom)
    assert summary["passed"] and summary["failed_monitors"] == []
    assert np.max(_cone(*geom.ricci)) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    assert summary["angle_margin"] == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-9)
    assert np.min(geom.H0) == pytest.approx(0.3535534, abs=1e-6)
    assert summary["area_radius"] == pytest.approx(4.0, abs=1e-9)


def test_condition_report_flags_distortion(grid, schw_profile):
    surf = perturbed_surface(grid, 3.5, {(2, 0): 0.45})
    summary = _slice_summary(curved_geometry(surf, schw_profile))
    assert not summary["passed"]
    assert summary["failed_monitors"]


@pytest.mark.parametrize("kind", ["schwarzschild", "reissner_nordstrom",
                                  "tabulated"])
def test_curved_geometry_evaluates_each_reference_function_once(kind):
    if kind == "tabulated":
        r_t = np.geomspace(2.5, 120.0, 300)
        ref = make_reference("tabulated", tabulated_data=(
            r_t, 1.0 - 2.0 / r_t, np.sqrt(1.0 - 2.0 / r_t)))
        r_grid = np.geomspace(2.6, 110.0, 50)
    else:
        ref = make_reference(kind, m=1.0, e=0.5 if kind != "schwarzschild" else 0.0)
        r_grid = np.geomspace(2.1, 150.0, 50)
    profile = isothermal_profile(ref, r_grid)
    names = ("phi", "dphi", "potential")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(ref, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    counted = dataclasses.replace(profile, ref=dataclasses.replace(
        ref, **{name: counting(name) for name in names}))
    surf = perturbed_surface(SphereGrid(12, 24), float(profile.rho_of_r(6.0)),
                             {(2, 0): 0.05, (3, 2): 0.01})
    geom = curved_geometry(surf, counted)
    assert all(n <= 1 for n in calls.values()), calls

    # the one-evaluation fields equal the per-quantity formulas bitwise
    r, c = geom.r, geom.flat.cos_theta
    V, dV, _ = potential_at(ref, r)
    expected = {
        "V": V,
        "dV_dnu": np.sqrt(ref.phi(r)) * dV * c,
        "ric_nu": ricci_normal(ref, r, c),
        "t_field": t_function(ref, r, c),
        "scalar_curv": scalar_curvature(ref, r),
    }
    for name, want in expected.items():
        assert getattr(geom, name).tobytes() == want.tobytes(), name
