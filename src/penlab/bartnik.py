"""Conformal lapse solver: prescribed scalar curvature along a foliation.

Given a foliation of the reference exterior and boundary mean-curvature
data, solves the parabolic equation

    H0 du/ds = u² Δ_σ u + (u − u³) c,   c = detA0 + T/2 − Ric(ν, ν),

along the leaves.  The resulting metric u² ds² + σ_s has scalar
curvature R̄ + (1/u² − 1) T by construction, which scalar_residual
verifies discretely.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flow import (Foliation, advected_derivative, drift_fields, lagrange3,
                   neighbour_windows)
from .surfgeom import CurvedGeometry, rate_bracket, reaction_coefficient

__all__ = [
    "StepRejected",
    "UField",
    "gmres",
    "initial_u",
    "solve_u",
    "scalar_residual",
    "slice_energy",
    "slice_energy_rate",
]


# relative and absolute GMRES tolerances of each frozen-coefficient
# solve, its restart length and its iteration cap over all restarts, how
# many times solve_u halves a window's substep before giving up, and how
# many frozen-coefficient fixed-point passes each substep makes
_GMRES_RTOL = 1e-12
_GMRES_ATOL = 1e-14
_GMRES_RESTART = 30
_GMRES_MAXITER = 60
_MAX_HALVINGS = 8
_FIXED_POINT_PASSES = 2
# machine epsilon, the unit of gmres's rounding allowance
_EPS = float(np.finfo(float).eps)


class StepRejected(RuntimeError):
    """A step left the maximum-principle bounds; retry with a smaller ds."""


def initial_u(h_physical, h_background) -> np.ndarray:
    """Lapse from boundary mean-curvature data: u0 = H0/H.

    The glued metric carries mean curvature H0/u on each leaf, so matching
    the physical boundary data H means u0 = H0/H.  Both fields must be
    strictly positive.
    """
    h = np.asarray(h_physical, dtype=float)
    h0 = np.asarray(h_background, dtype=float)
    # written as negations so that NaN fails too
    if not np.all(h > 0.0):
        raise ValueError("physical mean curvature must be positive")
    if not np.all(h0 > 0.0):
        raise ValueError("background mean curvature must be positive")
    return h0 / h


# ----------------------------------------------------------------------
# coefficient bundles: everything one step needs, interpolable in s

class _Bundle(NamedTuple):
    """The eight grid fields stacked as one (8, n_theta, n_phi) array, so a
    blend is one weighted sum; the fields read by name.  A slice's own
    bundle also carries, unblended, the three fields its energy and rate
    read, (V H0, rate bracket, area density); a blend has none."""

    fields: np.ndarray
    area_radius: float
    audit: tuple | None = None

    H0 = property(lambda b: b.fields[0])
    c = property(lambda b: b.fields[1])
    tau_t = property(lambda b: b.fields[2])
    tau_p = property(lambda b: b.fields[3])
    p_tt = property(lambda b: b.fields[4])
    p_tp = property(lambda b: b.fields[5])
    p_pp = property(lambda b: b.fields[6])
    inv_root = property(lambda b: b.fields[7])


def _make_bundle(geom: CurvedGeometry) -> _Bundle:
    # √det σ σ^ab is conformally invariant in two dimensions, so Δ_σ's divergence
    # coefficients are the flat chart's adj σ̃ / √det σ̃; only 1/√det σ has F⁴
    flat, sin = geom.flat, geom.grid.sin_theta[:, None]
    k = 1.0 / (flat.area_density * sin)
    tau_t, tau_p = drift_fields(geom)
    fields = np.array([geom.H0, reaction_coefficient(geom), tau_t, tau_p,
                       k * flat.sig_pp, -k * flat.sig_tp, k * flat.sig_tt,
                       1.0 / (geom.area_density * sin)])
    return _Bundle(fields, geom.area_radius(),
                   (geom.V * geom.H0, rate_bracket(geom), geom.area_density))


def _blend(bundles, weights) -> _Bundle:
    # sum() keeps each element's order (0 + w0 f0) + w1 f1 + w2 f2
    return _Bundle(sum(w * b.fields for w, b in zip(weights, bundles)),
                   sum(w * b.area_radius for w, b in zip(weights, bundles)))


def slice_energy(grid, vh0, area_density, u) -> float:
    """E = (1/8π) ∫ V H0 (1 − 1/u) dA on one slice, from V H0 and the
    area density per unit solid angle."""
    return float(grid.integrate(vh0 * (1.0 - 1.0 / u) * area_density)
                 / (8.0 * np.pi))


def slice_energy_rate(grid, bracket, area_density, u) -> float:
    """Closed-form dE/ds = −(1/8π) ∫ (u − 1)²/u · bracket dA on one slice,
    the bracket being rate_bracket's."""
    w = (u - 1.0) ** 2 / u
    return float(-grid.integrate(w * bracket * area_density) / (8.0 * np.pi))


def _audit(grid, b: _Bundle, u) -> tuple:
    """(E, closed-form dE/ds) of a slice's own bundle at its lapse u."""
    vh0, bracket, density = b.audit
    return (slice_energy(grid, vh0, density, u),
            slice_energy_rate(grid, bracket, density, u))


def _laplacian(grid, b: _Bundle, v: np.ndarray, grad=None) -> np.ndarray:
    return b.inv_root * grid.div_grad(v, b.p_tt, b.p_tp, b.p_pp, grad)


def _operators(grid, b: _Bundle, v: np.ndarray):
    """(L_b(v), gradient of v): the pair one substep hands the next."""
    grad = grid.gradient(v)
    return _laplacian(grid, b, v, grad), grad


def _rate(grid, b: _Bundle, u: np.ndarray, ops) -> np.ndarray:
    lap, grad = ops
    out = (u**2 * lap + (u - u**3) * b.c) / b.H0
    return out + advected_derivative(grid, u, b.tau_t, b.tau_p, grad)


def _combine(base, coef, vectors):
    """base + Σ coef[j] vectors[j]: two or more vectors as one matrix
    product, which at these grid sizes beats a multiply-add per vector;
    a single vector as one multiply-add, bitwise the same, since the
    matrix product's setup made flagship's result_s 6.7% slower
    (BENCH_24.json, combine_single_direction)."""
    if len(vectors) == 1:
        return base + coef[0] * vectors[0]
    stack = np.array(vectors).reshape(len(vectors), -1)
    return base + (np.array(coef) @ stack).reshape(base.shape)


def gmres(A, b, x0, MA, callback=None, ax0=None, kept=()):
    """Solve A x = b by restarted GMRES, right-preconditioned by M.

    A maps a flat array x to a tuple of arrays that are linear in x, whose
    first entry is the flat A x.  MA maps a flat v to (z, A's tuple at z)
    with z = M(v), so a preconditioner that yields more than z (here the
    gradient of the Helmholtz inverse) hands it to A.  Arnoldi runs
    modified Gram-Schmidt on the directions Z[j] and Givens rotations on
    Python floats, so each iteration costs one MA.  gmres keeps the tuple
    MA returned for each Z[j], and forms x = x0 + Z y and its tuple
    A x0 + Σ y_j A Z[j] by linearity, with no further call (flexible
    GMRES keeps its directions the same way: Saad, Iterative Methods for
    Sparse Linear Systems, §9.4).  With right preconditioning the rotated
    Hessenberg residual estimates the true residual ‖b − A x‖ (§9.3).
    That estimate ends a cycle, but a call succeeds only once the
    residual formed by linearity, plus the rounding allowance
    (k + 2) ε (‖A x0‖ + Σ |y_j| ‖A Z[j]‖) of a cycle of k directions
    (Higham, Accuracy and Stability of Numerical Algorithms, §3.1), is at
    most max(_GMRES_ATOL, _GMRES_RTOL ‖b‖); otherwise the next cycle
    restarts from it.  ``callback`` receives the residual estimate once
    per Arnoldi column.  The allowance counts the rounding of this
    call's own combinations only: a tuple passed as ax0, in kept or
    returned by MA is taken as exact, so any drift it carries is not
    counted, and that the direct residual then meets the target too is
    held by tests, not by construction.

    kept holds (z, A's tuple at z) pairs the caller already has, such as
    the previous solve's correction in a sequence of related systems
    (Krylov recycling: Parks et al., SIAM J. Sci. Comput. 28 (2006)
    1651-1674).  Their A z open the first cycle as its first Arnoldi
    columns, at no MA call, and the cycle goes on with z = M(v) of its
    newest Arnoldi vector.  A kept column counts as an iteration, for the
    callback and the cap alike; one that vanishes after orthogonalization
    is dropped, with no callback, and is not a breakdown.

    A is called only at x0, and not when the caller passes the tuple
    there as ax0.  Returns (x, the tuple at x, info): info is 0 on
    success, and the number of iterations made (at least 1) when the
    total cap _GMRES_MAXITER is reached or an Arnoldi column from MA
    vanishes.  x0 is not modified, and is returned as is, with its
    tuple, when it already solves the system.
    """
    target = max(_GMRES_ATOL, _GMRES_RTOL * math.sqrt(float(b @ b)))
    x = x0
    ax = A(x) if ax0 is None else ax0
    r = b - ax[0]
    beta = math.sqrt(float(r @ r))
    allowance = 0.0   # rounding in a residual formed by linearity
    iters = 0
    given = list(kept)
    while not beta + allowance <= target:   # a NaN residual never converges
        if iters >= _GMRES_MAXITER:
            return x, ax, max(iters, 1)
        # cols[j] is (Z[j], A(Z[j]), ‖A Z[j]‖)
        V, cols, R, g, rotations = [r / beta], [], [], [beta], []
        room = min(_GMRES_RESTART, _GMRES_MAXITER - iters)
        while len(R) < room:
            from_kept = bool(given)
            z, az = given.pop(0) if from_kept else MA(V[-1])
            w = az[0]
            norm = math.sqrt(float(w @ w))
            h = []
            for v in V:
                hv = float(w @ v)
                w = w - hv * v
                h.append(hv)
            h_next = math.sqrt(float(w @ w))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = math.hypot(h[-1], h_next)
            if not d > 0.0:
                if from_kept:
                    continue   # a kept column that adds nothing is dropped
                # A M annihilates the direction (or it is not finite)
                return x, ax, max(iters, 1)
            cols.append((z, az, norm))
            c, s = h[-1] / d, h_next / d
            rotations.append((c, s))
            h[-1] = d
            g.append(-s * g[-1])
            g[-2] *= c
            R.append(h)
            iters += 1
            if callback is not None:
                callback(abs(g[-1]))
            if abs(g[-1]) <= target:
                break
            V.append(w / h_next)
        # back-substitute the rotated Hessenberg system R y = g; R[j] is
        # column j of the upper triangle
        y = [0.0] * len(R)
        for i in reversed(range(len(R))):
            acc = g[i] - sum(R[j][i] * y[j] for j in range(i + 1, len(R)))
            y[i] = acc / R[i][i]
        z_cols, az_cols, norms = zip(*cols)
        size = math.sqrt(float(ax[0] @ ax[0])) + sum(
            abs(yi) * norm for yi, norm in zip(y, norms))
        x = _combine(x, y, z_cols)
        ax = tuple(_combine(p, y, col) for p, col in zip(ax, zip(*az_cols)))
        r = b - ax[0]
        beta = math.sqrt(float(r @ r))
        allowance = (len(y) + 2) * _EPS * size
    return x, ax, 0


def _imex_step(grid, u0, ops0, b0, b1, ds):
    """One trapezoidal step, Laplacian implicit with frozen u² coefficient.

    ops0 is _operators(grid, b0, u0).  Returns the end state v, the pair
    (L_b1(v), gradient of v) for the next substep, and the most GMRES
    iterations a pass made.  Each pass's operator returns
    (x − scale L_b1(x), L_b1(x), gradient of x), all linear in x, so
    GMRES hands back the pair at its solution, formed by linearity, and
    the next pass and the next substep read it from there: no Laplacian
    or gradient is taken twice.  A GMRES direction z comes from the
    round-sphere Helmholtz inverse with its gradient, at a gain taken
    once per pass, so the Laplacian of z costs only its flux's two
    transforms: four per iteration.

    Every pass solves against the same L_b1; only scale and the right-
    hand side change.  So a pass's correction d = v_new − v comes with
    L d and ∇d as differences of the pairs at both ends, and the next
    pass gets d as a kept GMRES direction with the tuple
    (d − scale L d, L d, ∇d), at no transform.  It gets d only when the
    pass that made d took exactly one iteration, as on round leaves,
    where the next correction is parallel to d and one kept column
    replaces a Helmholtz inverse and a Laplacian; where GMRES takes
    several iterations, d barely shortens the next solve, and its extra
    column made a perturbed march slower.

    Only solve_u's start of a window takes the gradient directly, so
    within a window the carried pair drifts by rounding, uncounted by
    gmres's allowance.  On a perturbed 16x32 Schwarzschild march the
    linear A x stayed within 1.4e-4 of the GMRES target of a direct one,
    alike for windows of 10 substeps and of up to 320 after halvings;
    that the direct residual meets the target is an empirical fact,
    checked by test_gmres_residual_by_linearity_holds_directly, kept
    columns included.
    """
    shape = u0.shape
    base = u0 + 0.5 * ds * _rate(grid, b0, u0, ops0)
    v = u0
    grad = ops0[1]
    lap = _laplacian(grid, b1, v, grad)
    iters = 0
    last = None   # a one-iteration pass's (d, L d and ∇d at its start)
    for _ in range(_FIXED_POINT_PASSES):
        coef = v**2 / b1.H0
        scale = 0.5 * ds * coef

        def tuple_at(x, g):
            lap_x = _laplacian(grid, b1, x, g)
            return (x - scale * lap_x).ravel(), lap_x, g

        def matvec(x):
            x = x.reshape(shape)
            return tuple_at(x, grid.gradient(x))

        rhs = base + 0.5 * ds * ((v - v**3) * b1.c / b1.H0)
        rhs = rhs + 0.5 * ds * advected_derivative(grid, v, b1.tau_t, b1.tau_p,
                                                   grad)

        alpha = 0.5 * ds * float(np.mean(coef)) / b1.area_radius**2
        gain = grid.round_helmholtz_gain(alpha)

        def precond_matvec(x):
            stack = grid.round_helmholtz_inverse(x.reshape(shape), gain)
            return stack[0].ravel(), tuple_at(stack[0], stack[1:])

        kept = ()
        if last is not None:
            d, lap0, grad0 = last
            lap_d = lap - lap0
            kept = ((d.ravel(), ((d - scale * lap_d).ravel(), lap_d,
                                 grad - grad0)),)

        count = [0]

        def cb(_):
            count[0] += 1

        sol, (_, lap_new, grad_new), info = gmres(
            matvec, rhs.ravel(), v.ravel(), precond_matvec, callback=cb,
            ax0=((v - scale * lap).ravel(), lap, grad), kept=kept)
        if info != 0:
            # non-convergence means the step size overwhelmed the
            # frozen-coefficient linearization; callers retry smaller
            raise StepRejected(f"linear solve stalled (gmres info {info})")
        iters = max(iters, count[0])
        v_new = sol.reshape(shape)
        d = v_new - v
        last = (d, lap, grad) if count[0] == 1 else None
        v, lap, grad = v_new, lap_new, grad_new
        if np.max(np.abs(d)) < 1e-14:
            break
    return v, (lap, grad), iters


def _check_bounds(u, lo, hi):
    eps = 1e-10 * (1.0 + abs(hi))
    if np.min(u) < lo - eps or np.max(u) > hi + eps:
        raise StepRejected(
            f"u in [{np.min(u):.15g}, {np.max(u):.15g}] left [{lo:.15g}, {hi:.15g}]")


@dataclass
class UField:
    """Lapse solution sampled on the stored slices of a foliation, with
    the energy E and its closed-form rate dE/ds on each slice."""

    s: np.ndarray
    u: list
    max_u_minus_1: np.ndarray   # max |u - 1| on each slice
    energy: np.ndarray
    rate_formula: np.ndarray
    bounds: tuple
    decay_bounded: bool
    halvings: int
    max_gmres_iters: int
    residual: np.ndarray | None = None

    def series_csv(self) -> str:
        dev = self.max_u_minus_1
        res = (np.full(len(self.u), np.nan) if self.residual is None
               else np.max(np.abs(self.residual), axis=(1, 2)))
        lines = ["s,max_u_minus_1,min_u,max_residual"]
        for i in range(len(self.u)):
            lines.append(f"{self.s[i]:.17g},{dev[i]:.17g},"
                         f"{float(np.min(self.u[i])):.17g},{res[i]:.17g}")
        return "\n".join(lines) + "\n"


def solve_u(fol: Foliation, u0, dt_max: float = 0.01,
            with_residual: bool = True) -> UField:
    """March the lapse equation across every stored window of a foliation.

    Coefficients are interpolated quadratically in s through the three
    nearest stored slices, once per substep node, so the substep size
    dt_max is decoupled from the slice spacing.  The substep grows as
    |u − 1| decays (local error scales with the deviation), up to 4x
    dt_max.  Steps that break the maximum-principle bounds are retried
    with halved substeps.

    Each slice's energy and closed-form rate are taken from the build its
    bundle came from, at the lapse the march reached there, so no pass
    after the march builds a slice for them.
    """
    if not dt_max > 0.0:
        raise ValueError("dt_max must be positive")
    n = len(fol)
    if n < 3:
        raise ValueError("foliation must hold at least 3 slices")
    grid = fol.surfaces[0].grid
    u = np.broadcast_to(np.asarray(u0, dtype=float), fol.surfaces[0].G.shape).copy()
    if not np.all(u > 0.0):
        raise ValueError("u0 must be positive")

    lo = min(1.0, float(np.min(u)))
    hi = max(1.0, float(np.max(u)))

    def checked_bundles():
        for i in range(n):
            b = _make_bundle(fol.geometry(i))
            if not float(np.min(b.c)) > 0.0:   # NaN fails too
                raise ValueError(
                    f"coefficient detA0 + T/2 - Ric(nu,nu) not positive on slice {i}")
            yield b

    us = [u.copy()]
    energy, rate = np.empty(n), np.empty(n)
    halvings = 0
    gmax = 0
    dev0 = float(np.max(np.abs(u - 1.0)))
    for k, nodes, nb in zip(range(n - 1), neighbour_windows(fol.s),
                            neighbour_windows(checked_bundles())):
        # slice k sits first in the first window and in the middle after
        energy[k], rate[k] = _audit(grid, nb[min(k, 1)], u)
        window = fol.s[k + 1] - fol.s[k]
        dev = float(np.max(np.abs(u - 1.0)))
        if dev0 == 0.0 or dev == 0.0:
            dt_allow = window
        else:
            dt_allow = dt_max * min(4.0, (dev0 / dev) ** (1.0 / 3.0))
        n_sub = max(1, int(np.ceil(window / dt_allow - 1e-12)))
        b_start = _blend(nb, lagrange3(nodes, fol.s[k])[0])
        ops_start = _operators(grid, b_start, u)
        for attempt in range(_MAX_HALVINGS + 1):
            try:
                v, b0, ops = u, b_start, ops_start
                dt = window / n_sub
                for i in range(1, n_sub + 1):
                    # each substep starts from the previous one's end blend
                    # and its Laplacian and gradient there
                    b1 = _blend(nb, lagrange3(nodes, fol.s[k] + i * dt)[0])
                    v, ops, it = _imex_step(grid, v, ops, b0, b1, dt)
                    b0 = b1
                    gmax = max(gmax, it)
                    _check_bounds(v, lo, hi)
                break
            except StepRejected:
                if attempt == _MAX_HALVINGS:
                    raise
                n_sub *= 2
                halvings += 1
        u = v
        us.append(u.copy())
    energy[-1], rate[-1] = _audit(grid, nb[2], u)

    s = np.asarray(fol.s, dtype=float)
    dev = np.array([float(np.max(np.abs(ui - 1.0))) for ui in us])
    decay = s * dev
    bounded = bool(decay[-1] <= 1.25 * float(np.max(decay[:-1], initial=0.0)) + 1e-12)

    out = UField(
        s=s, u=us, max_u_minus_1=dev, energy=energy, rate_formula=rate,
        bounds=(lo, hi),
        decay_bounded=bounded, halvings=halvings, max_gmres_iters=gmax)
    if with_residual:
        out.residual = scalar_residual(fol, out)
    return out


# ----------------------------------------------------------------------
# discrete scalar-curvature verification

def scalar_residual(fol: Foliation, ufield: UField) -> np.ndarray:
    """Residual of the prescribed-scalar-curvature relation per slice.

    Evaluates the 3D scalar curvature of u²ds² + σ_s through the
    mean-curvature first-variation identity plus the Gauss equation, with
    s-derivatives from lagrange3 slopes on the stored slices.  The
    same discrete functional evaluated at u ≡ 1 reproduces the reference
    background, so that case vanishes identically.  The Gauss equation's
    2K does not depend on u and cancels in that difference, so it is
    left out of both.
    """
    n = len(fol)
    if n < 3:
        raise ValueError("need at least 3 slices for s-derivatives")
    grid = fol.surfaces[0].grid
    ones = (np.ones_like(ufield.u[0]),) * 3

    out = np.empty((n,) + ufield.u[0].shape)
    windows = zip(neighbour_windows(fol.s),
                  neighbour_windows(map(fol.geometry, range(n))),
                  neighbour_windows(ufield.u))
    for k, (nodes, geoms, u_win) in enumerate(windows):
        at = 0 if k == 0 else 2 if k == n - 1 else 1   # slice k in its window
        g = geoms[at]
        b = _make_bundle(g)   # the march's own drift and Laplacian
        slopes = lagrange3(nodes, nodes[at])[1]

        def traj_dh(w):
            fd = sum(d * gi.H0 / wi for d, gi, wi in zip(slopes, geoms, w))
            here = g.H0 / w[at]
            return fd - advected_derivative(grid, here, b.tau_t, b.tau_p)

        def num(w):
            # one functional for both fields so the two evaluations cancel
            # bitwise when u is exactly 1
            wk = w[at]
            return (-(2.0 / wk) * (traj_dh(w) + _laplacian(grid, b, wk))
                    - (g.a0_sq + g.H0**2) / wk**2)

        u = u_win[at]
        target = (1.0 / u**2 - 1.0) * g.t_field
        out[k] = (num(u_win) - num(ones)) - target
    return out
