"""Lapse-equation solver: stepping, maximum principle, residual checks."""

import dataclasses
import json

import numpy as np
import pytest

import penlab.bartnik as bartnik
from penlab.bartnik import StepRejected, initial_u, solve_u
from penlab.cli import console_main
from penlab.flow import FlowConfig, Foliation, run_flow, step_flow
from penlab.oracle import round_flow_u, schwarzschild_rho
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import (CurvedGeometry, curved_geometry, metric_partials,
                             perturbed_surface, reaction_coefficient,
                             round_surface)


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(16, 32)


@pytest.fixture(scope="module")
def schw():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def schw_profile(schw):
    return isothermal_profile(schw, np.geomspace(2.02, 800.0, 500))


@pytest.fixture(scope="module")
def round_geom(grid, schw_profile):
    return curved_geometry(round_surface(grid, schwarzschild_rho(1.0, 4.0)), schw_profile)


@pytest.fixture(scope="module")
def round_fol(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    return run_flow(round_surface(grid, rho0), schw_profile,
                    FlowConfig(ds=0.05, s_max=5.0, store_every=1))


# ------------------------------------------------------------- ingredients

def test_reaction_coefficient_schwarzschild(round_geom):
    c = reaction_coefficient(round_geom)
    assert c == pytest.approx(0.0625, abs=1e-10)


def test_reaction_coefficient_rn(grid):
    rn = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    prof = isothermal_profile(rn, np.geomspace(1.9, 500.0, 500))
    rho = prof.rho_of_r(4.0)
    geom = curved_geometry(round_surface(grid, float(rho)), prof)
    # radial closed form phi/r^2 + phi'/r at r = 4
    phi, dphi = 0.515625, 0.1171875
    assert reaction_coefficient(geom) == pytest.approx(
        phi / 16.0 + dphi / 4.0, abs=1e-9)


def test_bundle_operator_is_the_rescaled_metrics(grid):
    # √det σ σ^ab is conformally invariant in two dimensions, so the
    # bundle takes its Laplacian from the flat chart; its rows must equal
    # Δ_σ f = σ^ab f_ab − σ^ab Γ^c_ab f_c formed from σ = F⁴σ̃ itself,
    # whose partials (metric_partials with the profile) carry F⁴'s
    rn = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    prof = isothermal_profile(rn, np.geomspace(1.9, 500.0, 500))
    surf = perturbed_surface(grid, float(prof.rho_of_r(6.0)),
                             {(2, 0): 0.05, (3, 2): 0.01, (2, 1): 0.02})
    geom = curved_geometry(surf, prof)
    assert not {"sig_tt", "sig_tp", "sig_pp", "det_sig"} & {
        f.name for f in dataclasses.fields(CurvedGeometry)}
    assert not hasattr(CurvedGeometry, "inverse_metric")
    assert not hasattr(CurvedGeometry, "laplacian")

    p = metric_partials(surf, prof)
    assert np.allclose(p["E"], geom.F**4 * geom.flat.sig_tt, rtol=1e-14)
    det = p["E"] * p["G"] - p["F"] ** 2
    inv = np.array([[p["G"], -p["F"]], [-p["F"], p["E"]]]) / det
    # d_sig[a, b, c] = ∂_a σ_bc
    d_sig = np.array([[[p["E_u"], p["F_u"]], [p["F_u"], p["G_u"]]],
                      [[p["E_v"], p["F_v"]], [p["F_v"], p["G_v"]]]])
    # σ^ab Γ^c_ab = σ^cd (σ^ab ∂_a σ_bd − ½ σ^ab ∂_d σ_ab)
    v = (np.einsum("ab...,abd...->d...", inv, d_sig)
         - 0.5 * np.einsum("ab...,dab...->d...", inv, d_sig))
    gamma = np.einsum("cd...,d...->c...", inv, v)
    want = np.array([-gamma[0], -gamma[1], inv[0, 0], 2.0 * inv[0, 1],
                     inv[1, 1]])
    b = bartnik._make_bundle(geom)
    assert b.fields.shape == (9,) + surf.G.shape
    for k, (got, row) in enumerate(zip(b.lap, want)):
        assert np.max(np.abs(got - row)) <= 1e-13 * np.max(np.abs(row)), k


def test_initial_u_flagship(round_geom):
    h_phys = 0.5 * np.sqrt(1.0 - 2.4 / 4.0)
    u0 = initial_u(h_phys, round_geom.H0)
    assert u0 == pytest.approx(np.sqrt(1.25), abs=1e-9)
    assert initial_u(round_geom.H0, round_geom.H0) == pytest.approx(1.0, abs=0)


def test_initial_u_rejects_nonpositive(round_geom):
    H0 = round_geom.H0
    # NaN fails too, alone or at one point of a field
    nan_point = H0.copy()
    nan_point.flat[3] = np.nan
    for h, h0 in ((-0.1, H0), (H0, 0.0 * H0), (np.nan, 1.0), (1.0, np.nan),
                  (nan_point, H0), (H0, nan_point)):
        with pytest.raises(ValueError, match="positive"):
            initial_u(h, h0)


# ------------------------------------------------------------ linear solve

def _dominant_system(n=24, seed=1):
    # nonsymmetric, strictly diagonally dominant by rows
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + rng.uniform(1.0, 5.0, n)
    return a, rng.uniform(-1.0, 1.0, n)


def _six_eigenvalue_system(n=30, seed=2):
    # diagonalizable with six distinct eigenvalues: unrestarted GMRES
    # solves it in six iterations, two-step cycles need several restarts
    rng = np.random.default_rng(seed)
    s = np.eye(n) + 0.1 * rng.uniform(-1.0, 1.0, (n, n))
    lam = 1.0 + 0.4 * (np.arange(n) % 6)
    return s @ np.diag(lam) @ np.linalg.inv(s), rng.uniform(-1.0, 1.0, n)


def _then(A, M=lambda v: v):
    """The MA gmres takes: v -> (z, A(z)) with z = M(v)."""
    def ma(v):
        z = M(v)
        return z, A(z)

    return ma


def _counted(f):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    return counted, calls


def _start_pair(grid, b, u):
    """(L_b(u), partials of u), the pair solve_u hands a window's first
    substep."""
    parts = grid.partials(u)
    return bartnik._laplacian(b, parts), parts


@pytest.mark.parametrize("precond", ["identity", "jacobi"])
def test_gmres_matches_dense_solve(precond):
    a, b = _dominant_system()
    diag = np.diag(a)
    m = (lambda x: x) if precond == "identity" else (lambda x: x / diag)
    x0 = np.zeros_like(b)
    x, _, info = bartnik.gmres(b, x0, (a @ x0,),
                               _then(lambda x: (a @ x,), m))
    assert info == 0
    exact = np.linalg.solve(a, b)
    assert np.max(np.abs(x - exact)) <= bartnik._GMRES_RTOL * 100 * np.max(np.abs(exact))
    assert np.linalg.norm(b - a @ x) <= bartnik._GMRES_RTOL * np.linalg.norm(b)


def test_gmres_converges_across_restarts(monkeypatch):
    a, b = _six_eigenvalue_system()
    x0 = np.zeros_like(b)
    counts = {}
    for restart in (30, 2):
        monkeypatch.setattr(bartnik, "_GMRES_RESTART", restart)
        cb, calls = _counted(lambda _: None)
        x, _, info = bartnik.gmres(b, x0, (a @ x0,),
                                   _then(lambda x: (a @ x,)), callback=cb)
        assert info == 0
        assert np.linalg.norm(b - a @ x) <= bartnik._GMRES_RTOL * np.linalg.norm(b)
        counts[restart] = calls[0]
    assert 5 <= counts[30] <= 7
    assert counts[2] > counts[30]


def test_gmres_reports_the_iteration_cap(monkeypatch):
    a, b = _six_eigenvalue_system()
    monkeypatch.setattr(bartnik, "_GMRES_MAXITER", 3)
    cb, calls = _counted(lambda _: None)
    x0 = np.zeros_like(b)
    x, _, info = bartnik.gmres(b, x0, (a @ x0,), _then(lambda x: (a @ x,)),
                               callback=cb)
    assert info == 3 == calls[0]
    assert np.linalg.norm(b - a @ x) > bartnik._GMRES_RTOL * np.linalg.norm(b)


def test_imex_step_rejects_at_the_iteration_cap(grid, schw_profile, monkeypatch):
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0), {(2, 0): 0.05})
    b = bartnik._make_bundle(curved_geometry(surf, schw_profile))
    u0 = 1.1 + 0.05 * grid.cos_theta[:, None] * np.ones((grid.n_theta, grid.n_phi))
    ops = _start_pair(grid, b, u0)
    _, _, iters, _ = bartnik._imex_step(grid, u0, ops, b, b, 0.05)
    assert iters >= 2
    monkeypatch.setattr(bartnik, "_GMRES_MAXITER", 1)
    with pytest.raises(StepRejected, match="gmres info 1"):
        bartnik._imex_step(grid, u0, ops, b, b, 0.05)


def test_imex_step_guess_moves_only_the_start(grid, schw_profile):
    # pass 1 freezes u0 whatever the guess, so a guess changes only where
    # GMRES starts: the step ends where the cold one does, to within the
    # GMRES tolerance, and a guess near that end saves pass-1 iterations
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0), {(2, 0): 0.05})
    b = bartnik._make_bundle(curved_geometry(surf, schw_profile))
    u0 = 1.1 + 0.05 * grid.cos_theta[:, None] * np.ones((grid.n_theta, grid.n_phi))
    ops = _start_pair(grid, b, u0)
    v, (lap, grad), iters, first = bartnik._imex_step(grid, u0, ops, b, b, 0.05)
    assert iters >= first >= 2
    for guess in (u0 + 0.01 * grid.cos_theta[:, None] ** 2, v + 1e-6 * u0):
        w, (lap_w, grad_w), _, first_w = bartnik._imex_step(
            grid, u0, ops, b, b, 0.05, guess)
        assert np.max(np.abs(w - v)) < 1e-11
        assert np.max(np.abs(lap_w - lap)) < 1e-9
        assert np.max(np.abs(grad_w - grad)) < 1e-10
    assert first_w < first


@pytest.mark.parametrize("restart", [30, 2])
def test_gmres_takes_a_x0_and_ends_at_its_solution(monkeypatch, restart):
    # the lapse march relies on both: A(x0) comes with x0, and the tuple
    # returned is A's at the x returned, formed by linearity with no A
    # call there, so A runs once per iteration, inside MA, and no more
    monkeypatch.setattr(bartnik, "_GMRES_RESTART", restart)
    a, b = _six_eigenvalue_system()
    x0 = np.linspace(-1.0, 1.0, len(b))
    seen = []

    def apply_a(x):
        seen.append(x.copy())
        return a @ x, 2.0 * x

    cb, iterations = _counted(lambda _: None)
    x, ax, info = bartnik.gmres(b, x0, (a @ x0, 2.0 * x0), _then(apply_a),
                                callback=cb)
    assert info == 0
    assert np.linalg.norm(b - a @ x) <= bartnik._GMRES_RTOL * np.linalg.norm(b)
    assert not any(np.array_equal(arg, x0) for arg in seen)
    assert len(seen) == iterations[0] >= 2
    for got, direct in zip(ax, (a @ x, 2.0 * x), strict=True):
        assert np.max(np.abs(got - direct)) <= 1e-13 * (1.0 + np.max(np.abs(direct)))


def test_gmres_callback_once_per_iteration():
    a, b = _dominant_system()
    diag = np.diag(a)
    ma, m_calls = _counted(_then(lambda x: (a @ x,), lambda x: x / diag))
    cb, cb_calls = _counted(lambda _: None)
    x0 = np.zeros_like(b)
    x, _, info = bartnik.gmres(b, x0, (a @ x0,), ma, callback=cb)
    assert info == 0
    # one MA application per iteration; the residual at the solution is
    # formed by linearity
    assert cb_calls[0] == m_calls[0] >= 2

    # a starting guess that already solves the system makes no iteration
    # and comes back with its own tuple
    m_calls[0] = cb_calls[0] = 0
    x0 = np.linalg.solve(a, b)
    ax0 = (a @ x0,)
    x, ax, info = bartnik.gmres(ax0[0], x0, ax0, ma, callback=cb)
    assert info == 0 and x is x0 and ax is ax0
    assert cb_calls[0] == m_calls[0] == 0


def test_gmres_kept_exact_direction_needs_no_preconditioner():
    # a kept direction that solves the system is the first Arnoldi column;
    # its residual meets the target, so MA never runs
    a, b = _dominant_system()
    x0 = np.linspace(-1.0, 1.0, len(b))
    z = np.linalg.solve(a, b) - x0
    ma, m_calls = _counted(_then(lambda x: (a @ x,)))
    cb, cb_calls = _counted(lambda _: None)
    x, ax, info = bartnik.gmres(b, x0, (a @ x0,), ma, callback=cb,
                                kept=((z, (a @ z,)),))
    assert info == 0
    assert m_calls[0] == 0 and cb_calls[0] == 1
    assert np.linalg.norm(b - a @ x) <= bartnik._GMRES_RTOL * np.linalg.norm(b)
    assert np.max(np.abs(ax[0] - a @ x)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("system", [_dominant_system, _six_eigenvalue_system])
def test_gmres_drops_a_vanishing_kept_direction(system):
    # a zero kept direction adds no Arnoldi column and no iteration, and
    # is not a breakdown: the call is bitwise the plain solve
    a, b = system()
    zero = np.zeros_like(b)
    runs = []
    for kept in ((), ((zero, (zero,)),)):
        cb, cb_calls = _counted(lambda _: None)
        x, ax, info = bartnik.gmres(b, zero, (a @ zero,),
                                    _then(lambda x: (a @ x,)), callback=cb,
                                    kept=kept)
        assert info == 0
        runs.append((x, ax[0], cb_calls[0]))
    (plain, a_plain, n_plain), (x, ax, n) = runs
    assert np.array_equal(x, plain) and np.array_equal(ax, a_plain)
    assert n == n_plain >= 2


def test_gmres_forms_one_direction_inline_and_more_by_combine(monkeypatch):
    # a cycle of one direction updates x and each tuple entry by one
    # multiply-add, base + y z; two or more go through _combine
    a, b = _dominant_system()
    combine, combined = bartnik._combine, []

    def recording(base, coef, vectors):
        combined.append((base, list(coef), list(vectors)))
        return combine(base, coef, vectors)

    monkeypatch.setattr(bartnik, "_combine", recording)

    def apply_a(x):
        # the tuple's middle entry x[:1] reads y off a direction z with
        # z[0] = 1 at an x0 with x0[0] = 0
        return a @ x, x[:1], 2.0 * x

    x0 = np.linspace(-1.0, 1.0, len(b))
    x0[0] = 0.0
    z = np.linalg.solve(a, b) - x0
    z = z / z[0]
    ax0, az = apply_a(x0), apply_a(z)
    x, ax, info = bartnik.gmres(b, x0, ax0, _then(apply_a), kept=((z, az),))
    assert info == 0 and not combined
    y = ax[1][0]
    assert np.array_equal(x, x0 + y * z)
    for got, base, col in zip(ax, ax0, az, strict=True):
        assert np.array_equal(got, base + y * col)

    directions, tuples = [], []

    def ma(v):
        directions.append(v / np.diag(a))
        tuples.append(apply_a(directions[-1]))
        return directions[-1], tuples[-1]

    x, ax, info = bartnik.gmres(b, x0, ax0, ma)
    assert info == 0 and len(directions) >= 2
    # one cycle: x and each tuple entry by one _combine of its directions
    # and of their tuples' entries
    (base, y, vectors), *entries = combined
    assert base is x0 and len(y) == len(directions)
    assert all(v is d for v, d in zip(vectors, directions, strict=True))
    assert np.array_equal(x, combine(x0, y, directions))
    for k, (got, entry) in enumerate(zip(ax, entries, strict=True)):
        base, coef, cols = entry
        assert base is ax0[k] and coef == y
        assert all(c is t[k] for c, t in zip(cols, tuples, strict=True))
        assert np.array_equal(got, combine(base, y, cols))


def test_gmres_residual_by_linearity_holds_directly(grid, schw_profile,
                                                    monkeypatch):
    # success is judged on the residual formed by linearity plus its
    # rounding allowance; the residual of a direct A call at the solution
    # must meet the same target, and the tuple must be A's there; so must
    # the start tuple, which the march carries from the last substep, the
    # tuple MA hands over with each direction, whose gradient in the
    # lapse march comes from the Helmholtz stack, not from A's own, and
    # the tuple of each kept direction, which the march forms from the
    # previous pass's pairs by linearity.  gmres never calls A, so the
    # test forms each pass's operator itself:
    # x -> (x − scale L_b1(x), L_b1(x), partials of x), scale = ds v²/(2 H0)
    # at the state v the pass freezes, u0 and then the last pass's end
    gmres, step = bartnik.gmres, bartnik._imex_step
    checked, directions, kept_checked = [0], [0], [0]
    operator = {}

    def tracking(grid, u0, ops0, b0, b1, ds, guess=None):
        def march_a(x):
            x = x.reshape(u0.shape)
            parts = grid.partials(x)
            lap = bartnik._laplacian(b1, parts)
            scale = 0.5 * ds * (operator["frozen"] ** 2 / b1.H0)
            return (x - scale * lap).ravel(), lap, parts

        operator.update(A=march_a, frozen=u0)
        return step(grid, u0, ops0, b0, b1, ds, guess)

    def check_tuple(got_tuple, want_tuple):
        for got, want in zip(got_tuple, want_tuple, strict=True):
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def checking(b, x0, ax0, MA, kept=(), **kwargs):
        A = operator["A"]

        def checked_ma(v):
            z, az = MA(v)
            check_tuple(az, A(z))
            directions[0] += 1
            return z, az

        check_tuple(ax0, A(x0))
        for z, az in kept:
            check_tuple(az, A(z))
            kept_checked[0] += 1
        x, ax, info = gmres(b, x0, ax0, checked_ma, kept=kept, **kwargs)
        if info == 0:
            direct = A(x)
            target = max(bartnik._GMRES_ATOL,
                         bartnik._GMRES_RTOL * np.linalg.norm(b))
            assert np.linalg.norm(b - direct[0]) <= target
            check_tuple(ax, direct)
            checked[0] += 1
            operator["frozen"] = x.reshape(np.shape(operator["frozen"]))
        return x, ax, info

    monkeypatch.setattr(bartnik, "_imex_step", tracking)
    monkeypatch.setattr(bartnik, "gmres", checking)
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0),
                             {(2, 1): 0.01, (3, 3): 0.005})
    fol = run_flow(surf, schw_profile, FlowConfig(ds=0.1, s_max=0.5,
                                                  store_every=1))
    u0 = 1.2 + 0.05 * grid.cos_theta[:, None]
    solve_u(fol, u0, with_residual=False)
    assert checked[0] >= 50 and directions[0] >= checked[0]

    # a two-iteration cap rejects windows, so halved ones run up to 320
    # substeps on the pair carried by linearity, none of it recomputed
    checked[0] = 0
    with monkeypatch.context() as m:
        m.setattr(bartnik, "_GMRES_MAXITER", 2)
        assert solve_u(fol, u0, with_residual=False).halvings > 0
    assert checked[0] >= 1000

    # on round leaves the first pass takes one iteration, so the second
    # starts from its correction as a kept direction; a lapse with a small
    # angular part keeps the gate open and gives that correction a
    # Laplacian well above the bound
    round_fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)),
                         schw_profile, FlowConfig(ds=0.1, s_max=0.5,
                                                  store_every=1))
    for u0 in (1.2, 1.2 + 1e-4 * grid.cos_theta[:, None]):
        checked[0] = kept_checked[0] = 0
        solve_u(round_fol, u0, with_residual=False)
        assert kept_checked[0] >= 40 and checked[0] >= 2 * kept_checked[0]

    # two-step cycles carry x and its tuple across several restarts
    monkeypatch.setattr(bartnik, "_GMRES_RESTART", 2)
    a, b = _six_eigenvalue_system()
    checked[0] = 0

    def apply_a(x):
        return a @ x, 3.0 * x[::2]

    operator.update(A=apply_a, frozen=np.zeros_like(b))
    x0 = np.zeros_like(b)
    x, _, info = bartnik.gmres(b, x0, apply_a(x0), _then(apply_a))
    assert info == 0 and checked[0] == 1


# ------------------------------------------------------------------ solves

def test_solve_matches_ode_oracle(schw, round_fol):
    uf = solve_u(round_fol, 1.2, with_residual=False)
    states, _ = round_flow_u(schw, 4.0, 1.2, 5.0, n_samples=101)
    for i in (10, 40, 100):
        u_mean = float(np.mean(uf.u[i]))
        assert u_mean == pytest.approx(states[i].u, abs=1e-6)
        assert np.max(uf.u[i]) - np.min(uf.u[i]) < 1e-10
    assert uf.halvings == 0
    assert uf.decay_bounded
    assert uf.bounds == (1.0, 1.2)


def test_solve_max_principle_every_slice(round_fol):
    uf = solve_u(round_fol, 1.2, with_residual=False)
    eps = 1e-10
    for ui in uf.u:
        assert np.min(ui) >= 1.0 - eps
        assert np.max(ui) <= 1.2 + eps
    # monotone relaxation toward 1 for constant supersolution data
    devs = uf.max_u_minus_1
    assert np.all(np.diff(devs) < 0.0)


def test_solve_whole_run_fixed_point(round_fol):
    uf = solve_u(round_fol, 1.0)
    assert all(np.array_equal(ui, np.ones_like(ui)) for ui in uf.u)
    assert np.all(uf.residual == 0.0)
    assert np.all(uf.max_u_minus_1 == 0.0)


def test_solve_angular_perturbation_decays(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    fol = run_flow(round_surface(grid, rho0), schw_profile,
                   FlowConfig(ds=0.05, s_max=3.0, store_every=1))
    tt, pp = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    u0 = 1.0 + 0.1 * np.sin(tt) ** 2 * np.cos(2.0 * pp)
    uf = solve_u(fol, u0, with_residual=False)
    lo, hi = uf.bounds
    eps = 1e-10
    for ui in uf.u:
        assert np.min(ui) >= lo - eps and np.max(ui) <= hi + eps
    devs = uf.max_u_minus_1
    # the flow expands the surfaces, so angular smoothing weakens with s;
    # the deviation still shrinks every step and lands well below start
    assert np.all(np.diff(devs) < 0.0)
    assert devs[-1] < 0.1 * devs[0]
    assert uf.halvings == 0


def test_solve_rotated_lapse_is_the_rotated_solution(grid, schw_profile):
    # the lapse equation is geometric, so on round leaves a start lapse
    # f(n·e) tilted from e = z to e = x must march to the aligned
    # solution, rotated; the aligned lapse is a Legendre series in cosθ,
    # evaluated at n·x.  The tilted lapse has m = 1 and m = 2 content, on
    # which a divergence-form Laplacian was off by 4e-3 at the last slice
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)),
                   schw_profile, FlowConfig(ds=0.1, s_max=3.0, store_every=1))
    th, ph = grid.theta[:, None], grid.phi[None, :]

    def u0(mu):
        return 1.2 + 0.1 * mu + 0.05 * (3.0 * mu**2 - 1.0)

    aligned = solve_u(fol, u0(np.cos(th) + 0.0 * ph), with_residual=False)
    mu = np.sin(th) * np.cos(ph)
    tilted = solve_u(fol, u0(mu), with_residual=False)
    ells = np.arange(grid.lmax + 1)
    coef = grid.analyze(aligned.u[-1])[0, 0, 0] * np.sqrt(ells + 0.5)
    rotated = np.polynomial.legendre.legval(mu, coef)
    assert np.max(np.abs(tilted.u[-1] - rotated)) < 1e-8
    assert tilted.max_gmres_iters == aligned.max_gmres_iters
    assert tilted.halvings == aligned.halvings == 0


def test_blend_sums_each_named_field_bitwise(grid, schw_profile):
    # one weighted sum of the stacked fields is, element by element, the
    # per-field sum(w * f) over the three neighbouring slices
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 4.0),
                             {(2, 0): 0.05, (3, 2): 0.01})
    fol = run_flow(surf, schw_profile, FlowConfig(ds=0.05, s_max=0.1, store_every=1))
    bundles = [bartnik._make_bundle(fol.geometry(i)) for i in range(3)]
    weights = np.array([-0.125, 0.75, 0.375])
    out = bartnik._blend(bundles, weights)
    names = ("H0", "c", "tau_t", "tau_p", "lap")
    assert out.fields.shape == (9,) + surf.G.shape
    assert out.lap.shape == (5,) + surf.G.shape
    for name in names:
        want = sum(w * getattr(b, name) for w, b in zip(weights, bundles))
        assert getattr(out, name).tobytes() == want.tobytes(), name
    assert out.area_radius == sum(w * b.area_radius
                                  for w, b in zip(weights, bundles))


def test_solve_blends_once_per_substep_node(monkeypatch, round_fol):
    # the blend at a substep's end is the next substep's start, and a
    # window starts from its first slice's own bundle: n_sub blends per
    # window
    counts = {"blend": 0, "step": 0}
    blend, step = bartnik._blend, bartnik._imex_step

    def counted_blend(*args):
        counts["blend"] += 1
        return blend(*args)

    def counted_step(*args, **kwargs):
        counts["step"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(bartnik, "_blend", counted_blend)
    monkeypatch.setattr(bartnik, "_imex_step", counted_step)
    uf = solve_u(round_fol, 1.2, with_residual=False)
    assert uf.halvings == 0
    assert counts["step"] > len(round_fol)
    assert counts["blend"] == counts["step"]


def _cold(step):
    """_imex_step with any guess dropped: every substep starts at u0."""
    return lambda *args: step(*args[:6])


def test_solve_warm_start_saves_helmholtz_inverses(grid, schw_profile,
                                                   monkeypatch):
    # on a perturbed march pass 1 takes several GMRES iterations, so each
    # substep starts from the march extrapolated to its end; that saves at
    # least 15% of the Helmholtz inverses of the same march started cold,
    # with the same iteration cap, no halving and the same lapse to
    # within the GMRES tolerance
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0),
                             {(2, 0): 0.05, (3, 2): 0.01})
    fol = run_flow(surf, schw_profile, FlowConfig(ds=0.1, s_max=1.0,
                                                  store_every=1))
    helmholtz, step = SphereGrid.round_helmholtz_inverse, bartnik._imex_step
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return helmholtz(*args)

    monkeypatch.setattr(SphereGrid, "round_helmholtz_inverse", counted)
    warm = solve_u(fol, 1.2, with_residual=False)
    warm_calls, calls[0] = calls[0], 0
    monkeypatch.setattr(bartnik, "_imex_step", _cold(step))
    cold = solve_u(fol, 1.2, with_residual=False)
    assert warm_calls <= 0.85 * calls[0]
    assert warm.halvings == cold.halvings == 0
    assert warm.max_gmres_iters == cold.max_gmres_iters
    for a, b in zip(warm.u, cold.u, strict=True):
        assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("ripple", [0.0, 1e-4])
def test_solve_forms_no_guess_on_round_leaves(grid, schw_profile, monkeypatch,
                                              ripple):
    # on round leaves pass 1 takes one GMRES iteration, with a constant
    # lapse and with a near-round one alike, so no substep gets a guess
    # and the march is bitwise the one with every guess dropped
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)),
                   schw_profile, FlowConfig(ds=0.1, s_max=1.0, store_every=1))
    u0 = 1.2 + ripple * grid.cos_theta[:, None]
    step, steps, guesses = bartnik._imex_step, [0], []

    def recording(*args):
        steps[0] += 1
        guesses.extend(g for g in args[6:] if g is not None)
        return step(*args)

    monkeypatch.setattr(bartnik, "_imex_step", recording)
    uf = solve_u(fol, u0, with_residual=False)
    assert steps[0] > len(fol) and not guesses
    monkeypatch.setattr(bartnik, "_imex_step", _cold(step))
    cold = solve_u(fol, u0, with_residual=False)
    for a, b in zip(uf.u, cold.u, strict=True):
        assert a.tobytes() == b.tobytes()
    assert uf.energy.tobytes() == cold.energy.tobytes()
    assert uf.max_gmres_iters == cold.max_gmres_iters


def test_solve_retries_wild_step(schw_profile, monkeypatch):
    # one substep across a 10-wide window overshoots the maximum-principle
    # bounds; halving it brings every slice back inside them
    grid8 = SphereGrid(8, 16)
    fol = run_flow(round_surface(grid8, schwarzschild_rho(1.0, 4.0)),
                   schw_profile, FlowConfig(ds=10.0, s_max=30.0, store_every=1))
    uf = solve_u(fol, 1.2, dt_max=100.0, with_residual=False)
    assert uf.halvings >= 1
    assert uf.bounds == (1.0, 1.2)
    eps = 1e-10
    for ui in uf.u:
        assert np.min(ui) >= 1.0 - eps and np.max(ui) <= 1.2 + eps
    monkeypatch.setattr(bartnik, "_MAX_HALVINGS", 0)
    with pytest.raises(StepRejected):
        solve_u(fol, 1.2, dt_max=100.0, with_residual=False)


def test_solve_requires_positive_coefficient(grid):
    # a potential well with phi' < -phi/r makes the reaction coefficient negative
    r = np.linspace(1.0, 30.0, 600)
    phi = 0.5 + 0.4 * np.cos(r)
    ref = make_reference("tabulated", tabulated_data=(r, phi, np.ones_like(r)))
    prof = isothermal_profile(ref, np.linspace(1.5, 25.0, 400))
    # the flow itself stops at slice 0 (its angle monitor fails), so the
    # three slices are stepped by hand
    surfaces = [round_surface(grid, float(prof.rho_of_r(2.0)))]
    for _ in range(2):
        surfaces.append(step_flow(surfaces[-1], prof, 0.01)[0])
    fol = Foliation(profile=prof, s=[0.0, 0.01, 0.02], surfaces=surfaces,
                    summaries=[])
    with pytest.raises(ValueError, match="not positive"):
        solve_u(fol, 1.1)


def test_solve_rejects_nan_coefficient(schw_profile, monkeypatch):
    # a NaN in c is no positive coefficient; it must not reach the march
    fol = run_flow(round_surface(SphereGrid(8, 16), schwarzschild_rho(1.0, 4.0)),
                   schw_profile, FlowConfig(ds=0.05, s_max=0.1, store_every=1))
    assert len(fol) == 3
    coefficient = bartnik.reaction_coefficient

    def one_nan(geom):
        c = coefficient(geom)
        c[0, 0] = np.nan
        return c

    monkeypatch.setattr(bartnik, "reaction_coefficient", one_nan)
    with pytest.raises(ValueError, match="not positive"):
        solve_u(fol, 1.2, with_residual=False)


def test_solve_requires_three_slices(grid, schw_profile):
    # the quadratic coefficient interpolation needs three distinct nodes
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)),
                   schw_profile, FlowConfig(ds=0.05, s_max=0.05, store_every=1))
    assert len(fol) == 2
    with pytest.raises(ValueError, match="at least 3 slices"):
        solve_u(fol, 1.2)


# ---------------------------------------------------------------- residual

def test_residual_small_and_second_order(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    maxima = []
    for ds in (0.04, 0.02, 0.01):
        fol = run_flow(round_surface(grid, rho0), schw_profile,
                       FlowConfig(ds=ds, s_max=0.8, store_every=1))
        uf = solve_u(fol, 1.2, dt_max=10.0)
        maxima.append(float(np.max(np.abs(uf.residual))))
    assert maxima[1] < 1e-5
    assert 3.0 < maxima[0] / maxima[1] < 5.0
    assert 3.0 < maxima[1] / maxima[2] < 5.0


def test_residual_short_last_interval(grid, schw_profile):
    # the last stored interval is shorter than the others, so the end
    # slice's s-derivative must not assume even spacing
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)), schw_profile,
                   FlowConfig(ds=0.02, s_max=0.46, store_every=5))
    assert np.allclose(fol.s, [0.0, 0.1, 0.2, 0.3, 0.4, 0.46], atol=1e-12)
    uf = solve_u(fol, 1.2)
    per_slice = np.max(np.abs(uf.residual), axis=(1, 2))
    assert per_slice[-1] <= 3.0 * np.max(per_slice[:-1])


def test_residual_term_isolation_rn(grid):
    rn = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    prof = isothermal_profile(rn, np.geomspace(1.9, 500.0, 500))
    rho3 = float(prof.rho_of_r(3.0))
    surf = perturbed_surface(grid, rho3, {(2, 0): 0.15})
    fol = run_flow(surf, prof, FlowConfig(ds=0.005, s_max=0.05, store_every=1))
    uf = solve_u(fol, 1.1)
    term = np.array([(1.0 / uf.u[k] ** 2 - 1.0) * fol.geometry(k).t_field
                     for k in range(len(fol))])
    assert np.max(np.abs(uf.residual)) < 1.2e-5
    assert np.max(np.abs(term)) > 4e-5


def test_ufield_series_csv(tmp_path):
    # penlab solve writes the march's record, one row per stored slice;
    # with the residual no row reads nan
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"s_max": 0.5},
                               "solver": {"with_residual": True}}))
    assert console_main(["solve", "--config", str(cfg), "--resolution", "8x16",
                         "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "u_series.csv").read_text().strip().split("\n")
    assert lines[0] == "s,max_u_minus_1,min_u,max_residual"
    assert len(lines) == 6 + 1
    assert not any("nan" in row for row in lines)
