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
    """The nine grid fields stacked as one (9, n_theta, n_phi) array, so a
    blend is one weighted sum; the fields read by name, lap the Laplacian's
    five rows.  A slice's own bundle also carries, unblended, the three
    fields its energy and rate read, (V H0, rate bracket, area density)."""

    fields: np.ndarray
    area_radius: float
    audit: tuple | None = None

    H0 = property(lambda b: b.fields[0])
    c = property(lambda b: b.fields[1])
    tau_t = property(lambda b: b.fields[2])
    tau_p = property(lambda b: b.fields[3])
    lap = property(lambda b: b.fields[4:])


def _make_bundle(geom: CurvedGeometry) -> _Bundle:
    """A slice's bundle.  lap's rows, against the partials (f_θ, f_φ,
    f_θθ, f_θφ, f_φφ), are (B^θ, B^φ, H/√D, −2F/√D, E/√D)/√det σ: √det σ
    σ^ab is conformally invariant in two dimensions, so it is P = (H, −F,
    E)/√D of the flat chart's E, F, H = σ̃_θθ, σ̃_θφ, σ̃_φφ and D = EH − F²,
    and B^b = ∂_a P^ab is, with d_a = ∂_a D/(2D),
    B^θ = (H_θ − F_φ − H d_θ + F d_φ)/√D, B^φ = (E_φ − F_θ − E d_φ + F d_θ)/√D.
    E, F and H are differentiated by the product rule from G's partials,
    never spectrally, so a build takes no transform beyond flat_geometry's.
    """
    flat, sin = geom.flat, geom.grid.sin_theta[:, None]
    cos = geom.grid.cos_theta[:, None]
    G, (Gt, Gp, Gtt, Gtp, Gpp) = flat.surface.G, flat.partials
    E, F, H = flat.sig_tt, flat.sig_tp, flat.sig_pp
    E_t, E_p = 2.0 * (G * Gt + Gt * Gtt), 2.0 * (G * Gp + Gt * Gtp)
    F_t, F_p = Gtt * Gp + Gt * Gtp, Gtp * Gp + Gt * Gpp
    H_t = 2.0 * (Gp * Gtp + G * Gt * sin * sin + G * G * sin * cos)
    H_p = 2.0 * (Gp * Gpp + G * Gp * sin * sin)
    root = flat.area_density * sin   # √D = G W sinθ
    d_t = (E_t * H + E * H_t - 2.0 * F * F_t) / (2.0 * root**2)
    d_p = (E_p * H + E * H_p - 2.0 * F * F_p) / (2.0 * root**2)
    k = 1.0 / (root * geom.area_density * sin)
    tau_t, tau_p = drift_fields(geom)
    fields = np.array([geom.H0, reaction_coefficient(geom), tau_t, tau_p,
                       k * (H_t - F_p - H * d_t + F * d_p),
                       k * (E_p - F_t - E * d_p + F * d_t),
                       k * H, -2.0 * k * F, k * E])
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


def _laplacian(b: _Bundle, parts) -> np.ndarray:
    """Δ_σ v, b.lap's stencil on v's partials (v_θ, v_φ, v_θθ, v_θφ, v_φφ),
    at no transform: every caller takes grid.partials(v) itself."""
    return np.einsum("kij,kij->ij", b.lap, parts)


def _rate(b: _Bundle, u: np.ndarray, ops) -> np.ndarray:
    lap, parts = ops
    out = (u**2 * lap + (u - u**3) * b.c) / b.H0
    return out + advected_derivative(b.tau_t, b.tau_p, parts[:2])


def _combine(base, coef, vectors):
    """base + Σ coef[j] vectors[j] for two or more vectors, coef an array,
    as one matrix product, which at these grid sizes beats a multiply-add
    per vector.  gmres adds a single vector as one multiply-add instead,
    bitwise the same, since the matrix product's setup made flagship's
    result_s 6.7% slower (BENCH_24.json, combine_single_direction)."""
    stack = np.array(vectors).reshape(len(vectors), -1)
    return base + (coef @ stack).reshape(base.shape)


def gmres(b, x0, ax0, MA, callback=None, kept=()):
    """Solve A x = b by restarted GMRES, right-preconditioned by M.

    A is never called: it is known through tuples of arrays that are
    linear in x, whose first entry is the flat A x.  ax0 is A's tuple at
    x0, and MA maps a flat v to (z, A's tuple at z) with z = M(v), so a
    preconditioner that yields more than z (here the partials of the
    Helmholtz inverse) hands them on.  Arnoldi runs modified Gram-Schmidt
    on the directions Z[j] and Givens rotations on Python floats, so each
    iteration costs one MA.  gmres keeps the tuple MA returned for each
    Z[j], and forms x = x0 + Z y and its tuple A x0 + Σ y_j A Z[j] by
    linearity: one multiply-add per array for a cycle of one direction,
    one matrix product per array (_combine) for more (flexible GMRES
    keeps its directions the same way: Saad, Iterative Methods for
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

    Returns (x, the tuple at x, info): info is 0 on success, and the
    number of iterations made (at least 1) when the total cap
    _GMRES_MAXITER is reached or an Arnoldi column from MA vanishes.  x0
    is not modified, and is returned as is, with ax0, when it already
    solves the system.
    """
    target = max(_GMRES_ATOL, _GMRES_RTOL * math.sqrt(b @ b))
    x, ax = x0, ax0
    r = b - ax[0]
    beta = math.sqrt(r @ r)
    allowance = 0.0   # rounding in a residual formed by linearity
    iters = 0
    given = list(kept)
    while not beta + allowance <= target:   # a NaN residual never converges
        if iters >= _GMRES_MAXITER:
            return x, ax, max(iters, 1)
        V, R, g, rotations = [r / beta], [], [beta], []
        Z, AZ, norms = [], [], []   # directions, A's tuples there, ‖A Z[j]‖
        room = min(_GMRES_RESTART, _GMRES_MAXITER - iters)
        while len(R) < room:
            from_kept = bool(given)
            z, az = given.pop(0) if from_kept else MA(V[-1])
            w = az[0]
            norm = math.sqrt(w @ w)
            h = []
            for v in V:
                hv = float(w @ v)
                w = w - hv * v
                h.append(hv)
            h_next = math.sqrt(w @ w)
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = math.hypot(h[-1], h_next)
            if not d > 0.0:
                if from_kept:
                    continue   # a kept column that adds nothing is dropped
                # A M annihilates the direction (or it is not finite)
                return x, ax, max(iters, 1)
            Z.append(z)
            AZ.append(az)
            norms.append(norm)
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
        size = math.sqrt(ax[0] @ ax[0]) + sum(
            abs(yi) * norm for yi, norm in zip(y, norms))
        if len(y) == 1:
            x = x + y[0] * Z[0]
            ax = tuple(p + y[0] * q for p, q in zip(ax, AZ[0]))
        else:
            coef = np.array(y)
            x = _combine(x, coef, Z)
            ax = tuple(_combine(p, coef, col) for p, col in zip(ax, zip(*AZ)))
        r = b - ax[0]
        beta = math.sqrt(r @ r)
        allowance = (len(y) + 2) * _EPS * size
    return x, ax, 0


def _imex_step(grid, u0, ops0, b0, b1, ds, guess=None):
    """One trapezoidal step, Laplacian implicit with frozen u² coefficient.

    ops0 is (L_b0(u0), partials of u0).  Returns the end state v, the pair
    (L_b1(v), partials of v) for the next substep, the most GMRES
    iterations a pass made and the iterations of the first pass.  Each
    pass's operator returns (x − scale L_b1(x), L_b1(x), partials of x),
    all linear in x.  GMRES gets that tuple at its start and with each
    direction, never applies the operator itself, and hands back the
    pair at its solution, formed by linearity; the next pass and the
    next substep read it from there: no Laplacian or partial is taken
    twice.  A GMRES direction z comes from the round-sphere Helmholtz
    inverse with its five partials, at a gain a pass sets up on its first
    preconditioner call (a pass that converges on a kept direction sets
    none up), so the Laplacian of z is b1's stencil on them, at no
    transform: an iteration costs the inverse's two.

    Every pass solves against the same L_b1; only scale and the right-
    hand side change.  So a pass's correction d = v_new − x from its
    start x comes with L d and d's partials as differences of the pairs
    at both ends, and the next pass gets d as a kept GMRES direction with
    the tuple (d − scale L d, L d, partials of d), at no transform.  It
    gets d only when the pass that made d took exactly one iteration, as
    on round leaves, where the next correction is parallel to d and one
    kept column replaces a Helmholtz inverse; where GMRES takes several
    iterations, d barely shortens the next solve, and its extra column
    made a perturbed march slower.

    guess, when given, is solve_u's extrapolation of the march to the
    substep's end, and pass 1 starts GMRES there instead of at u0: its
    partials are taken directly and its Laplacian from them, two
    transforms more than a cold start.  Pass 1 still freezes u0 in its
    coefficient and right-hand side, and the fixed-point exit still
    compares its result v1 with u0.  Pass 2 then always gets the warm
    start's miss d = v1 − guess as its kept direction.

    Only solve_u's start of a window takes the partials directly, so
    within a window the carried pair drifts by rounding, uncounted by
    gmres's allowance; that the direct residual still meets the target
    is an empirical fact, checked by
    test_gmres_residual_by_linearity_holds_directly, kept columns
    included.  A guess's pair is taken directly, never extrapolated: an
    extrapolated gradient drifted to 3e-5 within a window and the march
    left its maximum-principle bounds.
    """
    shape = u0.shape
    base = u0 + 0.5 * ds * _rate(b0, u0, ops0)
    v, parts = u0, ops0[1]   # the state a pass freezes, and its partials
    x, parts_x = (v, parts) if guess is None else (guess, grid.partials(guess))
    lap_x = _laplacian(b1, parts_x)   # at GMRES's start x
    made = []   # GMRES iterations per pass
    last = None   # the start x of a pass whose correction the next one keeps
    for _ in range(_FIXED_POINT_PASSES):
        coef = v**2 / b1.H0
        scale = 0.5 * ds * coef

        def tuple_at(x, p):
            lap = _laplacian(b1, p)
            return (x - scale * lap).ravel(), lap, p

        rhs = base + 0.5 * ds * ((v - v**3) * b1.c / b1.H0)
        rhs = rhs + 0.5 * ds * advected_derivative(b1.tau_t, b1.tau_p,
                                                   parts[:2])

        gain = None

        def precond_matvec(x):
            nonlocal gain
            if gain is None:   # a pass that converges on kept d needs none
                mean = float(coef.sum()) / coef.size
                gain = grid.round_helmholtz_gain(
                    0.5 * ds * mean / b1.area_radius**2)
            stack = grid.round_helmholtz_inverse(x.reshape(shape), gain)
            return stack[0].ravel(), tuple_at(stack[0], stack[1:])

        kept = ()
        if last is not None:
            x0, lap0, parts0 = last
            d, lap_d = x - x0, lap_x - lap0
            kept = ((d.ravel(), ((d - scale * lap_d).ravel(), lap_d,
                                 parts_x - parts0)),)

        count = [0]

        def cb(_):
            count[0] += 1

        sol, (_, lap_new, parts_new), info = gmres(
            rhs.ravel(), x.ravel(),
            ((x - scale * lap_x).ravel(), lap_x, parts_x), precond_matvec,
            callback=cb, kept=kept)
        if info != 0:
            # non-convergence means the step size overwhelmed the
            # frozen-coefficient linearization; callers retry smaller
            raise StepRejected(f"linear solve stalled (gmres info {info})")
        made.append(count[0])
        v_new = sol.reshape(shape)
        # a warm pass's start is the guess, not the state it froze
        last = (x, lap_x, parts_x) if count[0] == 1 or x is not v else None
        d = v_new - v
        v, parts = x, parts_x = v_new, parts_new
        lap_x = lap_new
        if np.abs(d).max() < 1e-14:
            break
    return v, (lap_x, parts), max(made), made[0]


def _check_bounds(u, lo, hi):
    eps = 1e-10 * (1.0 + abs(hi))
    if u.min() < lo - eps or u.max() > hi + eps:
        raise StepRejected(
            f"u in [{u.min():.15g}, {u.max():.15g}] left [{lo:.15g}, {hi:.15g}]")


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


def solve_u(fol: Foliation, u0, dt_max: float = 0.01,
            with_residual: bool = True) -> UField:
    """March the lapse equation across every stored window of a foliation.

    Coefficients are interpolated quadratically in s through the three
    nearest stored slices, once per substep node, so the substep size
    dt_max is decoupled from the slice spacing.  The substep grows as
    |u − 1| decays (local error scales with the deviation), up to 4x
    dt_max.  Steps that break the maximum-principle bounds are retried
    with halved substeps, from the march's state at the window start.

    Where the last substep's first fixed-point pass took more than one
    GMRES iteration, as on perturbed leaves, the next substep's solves
    start from the quadratic extrapolation (lagrange3) of the last three
    substep ends to its own end, which holds the state O(dt³) from its
    answer instead of u0's O(dt) (Fischer, Comput. Methods Appl. Mech.
    Engrg. 163 (1998) 193-204).  On round and near-round leaves pass 1
    takes one iteration, so no guess is formed there.

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
            if not float(b.c.min()) > 0.0:   # NaN fails too
                raise ValueError(
                    f"coefficient detA0 + T/2 - Ric(nu,nu) not positive on slice {i}")
            yield b

    us = [u.copy()]
    energy, rate = np.empty(n), np.empty(n)
    halvings = 0
    gmax = 0
    # the last three substep ends (s, v), and whether the last substep's
    # first pass took more than one GMRES iteration
    history, warm = (), False
    dev0 = float(np.max(np.abs(u - 1.0)))
    for k, nodes, nb in zip(range(n - 1), neighbour_windows(fol.s),
                            neighbour_windows(checked_bundles())):
        # slice k sits first in the first window and in the middle after;
        # lagrange3 at a node weighs that slice 1 and the others 0, so its
        # own bundle is the window's start blend
        b_start = nb[min(k, 1)]
        energy[k], rate[k] = _audit(grid, b_start, u)
        window = fol.s[k + 1] - fol.s[k]
        dev = float(np.abs(u - 1.0).max())
        if dev0 == 0.0 or dev == 0.0:
            dt_allow = window
        else:
            dt_allow = dt_max * min(4.0, (dev0 / dev) ** (1.0 / 3.0))
        n_sub = max(1, int(np.ceil(window / dt_allow - 1e-12)))
        parts = grid.partials(u)
        ops_start = (_laplacian(b_start, parts), parts)
        # the window's start state is the last substep's end, placed at
        # the stored s; a halving retry restarts from this history
        start = history[:-1] + ((fol.s[k], u),), warm
        for attempt in range(_MAX_HALVINGS + 1):
            try:
                v, b0, ops = u, b_start, ops_start
                history, warm = start
                dt = window / n_sub
                for i in range(1, n_sub + 1):
                    # each substep starts from the previous one's end blend
                    # and its Laplacian and partials there
                    s1 = fol.s[k] + i * dt
                    b1 = _blend(nb, lagrange3(nodes, s1)[0])
                    guess = None
                    if warm and len(history) == 3:
                        ts, vs = zip(*history)
                        guess = sum(w * vi for w, vi
                                    in zip(lagrange3(ts, s1)[0], vs))
                    v, ops, it, first = _imex_step(grid, v, ops, b0, b1, dt,
                                                   guess)
                    b0, warm = b1, first > 1
                    history = history[-2:] + ((s1, v),)
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
            return fd - advected_derivative(b.tau_t, b.tau_p,
                                            grid.gradient(here))

        def num(w):
            # one functional for both fields so the two evaluations cancel
            # bitwise when u is exactly 1
            wk = w[at]
            lap = _laplacian(b, grid.partials(wk))
            return (-(2.0 / wk) * (traj_dh(w) + lap)
                    - (g.a0_sq + g.H0**2) / wk**2)

        u = u_win[at]
        target = (1.0 / u**2 - 1.0) * g.t_field
        out[k] = (num(u_win) - num(ones)) - target
    return out
