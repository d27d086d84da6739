"""Unit-speed normal foliations of the reference exterior by star surfaces.

The physical flow moves each surface at unit speed along its outward
normal.  In the isothermal chart this is the graph evolution
∂G/∂s = W/(G F²(G)) with W² = G² + |∇G|², which keeps the surfaces
star-shaped and makes the swept metric ds² + σ_s have unit lapse.
"""

from dataclasses import dataclass

import numpy as np

from .refgeom import ConformalProfile, _cone, _ricci, _trace
from .surfgeom import (
    CurvedGeometry,
    StarSurface,
    curved_geometry,
    reaction_coefficient,
)

__all__ = [
    "FlowError",
    "FlowConfig",
    "Foliation",
    "neighbour_windows",
    "lagrange3",
    "flow_speed",
    "step_flow",
    "run_flow",
    "drift_fields",
    "advected_derivative",
    "compute_constants",
]

# log-grid points on which compute_constants searches each sup
_CONSTANTS_GRID = 4000


class FlowError(RuntimeError):
    """Surface update broke a flow precondition."""


@dataclass
class FlowConfig:
    ds: float
    s_max: float
    store_every: int

    def __post_init__(self):
        # written as negations so that NaN fails too; an infinite s_max
        # would overflow the step count, and inf % 1 is NaN
        if not (self.ds > 0.0 and 0.0 < self.s_max < np.inf):
            raise ValueError("ds and s_max must be positive, s_max finite")
        if not (self.store_every >= 1 and self.store_every % 1 == 0):
            raise ValueError("store_every must be a whole number >= 1")


def _speed_and_gradient(surface: StarSurface, profile: ConformalProfile):
    """Flow speed of a surface plus the gradient (G_θ, G_φ) and W it came from."""
    g = surface.grid
    G = surface.G
    Gt, Gp = g.gradient(G)
    W = np.sqrt(G**2 + Gt**2 + (Gp / g.sin_theta[:, None]) ** 2)
    return W / profile.r_of_rho(G), Gt, Gp, W


def flow_speed(surface: StarSurface, profile: ConformalProfile) -> np.ndarray:
    """Graph speed Ġ = W/(G F²) = W/r, the unit normal speed written radially."""
    return _speed_and_gradient(surface, profile)[0]


def _drift(gdot, Gt, Gp, W, sin_theta):
    """Label drift Ġ σ̃^ab ∂_b G = Ġ (G_θ, G_φ/sin²θ)/W² of a radial graph."""
    scale = gdot / W**2
    return scale * Gt, scale * Gp / sin_theta**2


def step_flow(surface: StarSurface, profile: ConformalProfile, ds: float):
    """One classical RK4 step of the graph flow, projected onto the band.

    Returns (new surface, info); info carries a CFL-style advection
    number for the tangential drift of the input surface.
    Raises FlowError if the update loses star-shapedness.
    """
    g = surface.grid

    def rate(G):
        return flow_speed(StarSurface(g, G), profile)

    G0 = surface.G
    try:
        # the first stage's gradient and W also set the CFL number below
        k1, Gt, Gp, W = _speed_and_gradient(surface, profile)
        k2 = rate(G0 + 0.5 * ds * k1)
        k3 = rate(G0 + 0.5 * ds * k2)
        k4 = rate(G0 + ds * k3)
    except ValueError as exc:
        # stage surfaces losing positivity or leaving profile coverage
        raise FlowError(f"flow step failed: {exc}") from exc
    G1 = g.project(G0 + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    if not np.all(np.isfinite(G1)) or np.min(G1) <= 0.0:
        raise FlowError("flow update lost star-shapedness (G <= 0 or non-finite)")

    # tangential label drift limits the usable step, not the normal motion
    tau_t, tau_p = _drift(k1, Gt, Gp, W, g.sin_theta[:, None])
    d_theta = float(np.min(np.diff(g.theta)))
    d_phi = 2.0 * np.pi / g.n_phi
    cfl = ds * float(np.max(np.abs(tau_t)) / d_theta + np.max(np.abs(tau_p)) / d_phi)
    return StarSurface(g, G1), {"cfl": cfl}


def drift_fields(geom: CurvedGeometry):
    """Tangential velocity τ^a of grid labels relative to normal trajectories.

    The same field serves the flat and curved pictures; trajectory
    derivatives of any scalar are ∂_s|grid − τ^a ∂_a.  The graph speed
    is flow_speed's W/r.
    """
    flat = geom.flat
    return _drift(flat.W / geom.r, *flat.partials[:2], flat.W,
                  geom.grid.sin_theta[:, None])


def advected_derivative(tau_t, tau_p, grad):
    """τ^a ∂_a field, the drift correction for trajectory derivatives, from
    the caller's grad = (field_θ, field_φ), at no transform."""
    d_t, d_p = grad
    return tau_t * d_t + tau_p * d_p


def neighbour_windows(items):
    """Yield (x[j-1], x[j], x[j+1]) with j = clip(k, 1, n-2) for k = 0..n-1.

    Each item is pulled from the iterable once, so a pass over
    map(fol.geometry, range(n)) builds every slice once.  Needs n >= 3.
    """
    it = iter(items)
    window = (next(it), next(it), next(it))
    yield window
    yield window
    for item in it:
        window = window[1:] + (item,)
        yield window
    yield window


def lagrange3(nodes, t):
    """Quadratic Lagrange weights on three nodes at t, and their t-slopes.

    Σ values_i f_i interpolates f and Σ slopes_i f_i differentiates the
    interpolant; the nodes need not be evenly spaced, and t may lie
    outside them, where Σ values_i f_i extrapolates (solve_u's warm start
    of a substep).  This is the one s-stencil of every pass over a
    neighbour window and of the lapse march's history.
    """
    s0, s1, s2 = nodes
    values, slopes = [], []
    for si, a, b in ((s0, s1, s2), (s1, s0, s2), (s2, s0, s1)):
        d = (si - a) * (si - b)
        values.append((t - a) * (t - b) / d)
        slopes.append(((t - a) + (t - b)) / d)
    return tuple(values), tuple(slopes)


@dataclass
class Foliation:
    """Stored slices of a flow run plus per-slice summaries.

    Surfaces are kept for every stored slice; full geometry is rebuilt
    on demand through geometry(), which keeps long runs at a few
    kilobytes per slice.  Passes that need every slice walk them in
    order, building each once: run_flow builds a slice to store it, and
    solve_u builds it again for its coefficients and records the slice's
    energy and rate there, so the energy audit builds nothing.
    """

    profile: ConformalProfile
    s: list
    surfaces: list
    summaries: list
    abort_reason: str | None = None   # set when a stored slice fails
    max_cfl: float | None = None      # over all steps; None if none ran

    def __len__(self):
        return len(self.surfaces)

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def geometry(self, i: int) -> CurvedGeometry:
        return curved_geometry(self.surfaces[i], self.profile)


def _slice_summary(geom: CurvedGeometry) -> dict:
    """Monitor verdicts and recorded minima of one stored slice.

    The essential monitors, in failed_monitors order, ask that H0, the
    flat κ_min, the support function, cosθ less the reference cone bound
    and dV/dν be positive; a slice that fails one ends the run.  A
    constant potential (flat reference) has dV/dν identically zero and
    passes; a NaN fails every check it reaches.  tail_fraction, the
    spectral tail of G, is recorded but gates nothing.
    """
    flat, G = geom.flat, geom.flat.surface.G
    angle_margin = float(np.min(flat.cos_theta - _cone(*geom.ricci)))
    checks = {
        "mean_curvature": np.min(geom.H0) > 0.0,
        "flat_convexity": np.min(flat.kappa_min) > 0.0,
        "support": np.min(flat.support) > 0.0,
        "angle": angle_margin > 0.0,
        "potential_slope": (np.min(geom.dV_dnu) > 0.0
                            or not np.any(geom.dV_dnu)),
    }
    failed = [name for name, ok in checks.items() if not ok]
    return {
        "min_rho": float(np.min(G)),
        "min_kappa_rho2": float(np.min(flat.kappa_min * G**2)),
        "angle_margin": angle_margin,
        "area_radius": geom.area_radius(),
        "tail_fraction": geom.grid.spectral_tail_fraction(G),
        "passed": not failed,
        "failed_monitors": failed,
        "min_coefficient": float(np.min(reaction_coefficient(geom))),
        "min_shear": float(np.min(geom.det_a0 - 0.5 * geom.t_field)),
        "min_cos_theta": float(np.min(flat.cos_theta)),
    }


def run_flow(surface: StarSurface, profile: ConformalProfile,
             config: FlowConfig) -> Foliation:
    """Advance the unit normal flow to s_max, storing every k-th slice.

    Stored slices carry condition summaries; when a stored slice fails an
    essential monitor the run stops there, so the failing slice is the
    last one, and the foliation records the failing monitors.  A step, or
    a stored slice's own build, that leaves the profile raises FlowError.
    """
    n_steps = max(1, int(round(config.s_max / config.ds)))
    ds = config.s_max / n_steps

    fol = Foliation(profile=profile, s=[], surfaces=[], summaries=[])
    prev_speed = None   # flow speed W/r of the last stored slice

    def store(s_val, surf):
        nonlocal prev_speed
        try:
            geom = curved_geometry(surf, profile)
        except ValueError as exc:
            # a stored slice leaving profile coverage, as in step_flow
            raise FlowError(f"slice at s = {s_val:.6g}: {exc}") from exc
        speed = geom.flat.W / geom.r
        summary = _slice_summary(geom)
        # discrete unit-lapse residual against the slice before it
        summary["unit_lapse_residual"] = 0.0
        if fol.s:
            fd = (surf.G - fol.surfaces[-1].G) / (s_val - fol.s[-1])
            summary["unit_lapse_residual"] = float(
                np.max(np.abs(fd / (0.5 * (speed + prev_speed)) - 1.0)))
        prev_speed = speed
        fol.s.append(s_val)
        fol.surfaces.append(surf)
        fol.summaries.append(summary)
        return summary

    summary = store(0.0, surface)
    if not summary["passed"]:
        fol.abort_reason = f"initial surface fails: {summary['failed_monitors']}"
        return fol

    current = surface
    fol.max_cfl = 0.0
    for k in range(1, n_steps + 1):
        try:
            current, info = step_flow(current, profile, ds)
        except FlowError as exc:
            raise FlowError(f"step {k} (s = {k * ds:.6g}): {exc}") from exc
        fol.max_cfl = max(fol.max_cfl, info["cfl"])
        if k % config.store_every == 0 or k == n_steps:
            summary = store(k * ds, current)
            if not summary["passed"]:
                fol.abort_reason = (
                    f"condition failure at s = {k * ds:.6g}: "
                    f"{summary['failed_monitors']}")
                break
    return fol


# ----------------------------------------------------------------------
# quantitative decay constants

def compute_constants(profile: ConformalProfile) -> dict:
    """Smallest constants bounding the conformal-factor decay fields.

    Evaluates the three candidate fields on a log grid over the
    profile's own ρ range and compares the grid sup with the analytic
    ρ → ∞ limit (analytic references), reporting the larger; the
    aggregate constants follow from the maxima.
    """
    ref = profile.ref
    lo = profile.rho_lo * (1.0 + 1e-12)
    hi = 0.99 * profile.rho_hi
    if hi <= lo:
        raise ValueError("empty rho range for constants")
    rho = np.geomspace(lo, hi, _CONSTANTS_GRID)

    radial = profile.radial_factors(rho)
    r, F, dF = radial.r, radial.F, radial.dF
    h1 = np.abs(radial.dh)
    h2 = np.abs(radial.d2h)

    ricci = _ricci(r, radial.phi, radial.dphi)
    rbar = np.maximum(_trace(*ricci), 0.0)
    c3_field = h1 * (F**2 * rho**2 + 1.0)
    c4_field = (2.0 * np.abs(dF) / F + F**2 * np.sqrt(rbar)) * (rho**2 + 1.0)
    c5_field = np.maximum(h2, h1 / rho) * (rho**3 * F**2 + 1.0)

    tails = {"C3": 0.0, "C4": 0.0, "C5": 0.0}
    if ref.kind in ("schwarzschild", "reissner_nordstrom"):
        tails = {"C3": ref.m, "C4": ref.m + np.sqrt(2.0) * ref.e, "C5": 2.0 * ref.m}

    def sup(name, fieldval):
        i = int(np.argmax(fieldval))
        grid_max = float(fieldval[i])
        value = max(grid_max, tails[name])
        # sup pinned to the open outer end without a covering tail limit
        unstable = (i == _CONSTANTS_GRID - 1) and (grid_max > tails[name] * (1.0 + 1e-9))
        return value, {"grid_max": grid_max, "argmax_rho": float(rho[i]),
                       "tail": tails[name], "tail_flag": bool(unstable)}

    C3, d3 = sup("C3", c3_field)
    C4, d4 = sup("C4", c4_field)
    C5, d5 = sup("C5", c5_field)

    g_range = float(np.max(_cone(*ricci)))
    r_lo_ext = (ref.r_horizon * (1.0 + 1e-9) if ref.r_horizon > 0
                else max(ref.r_min, 1e-6))
    r_ext = np.geomspace(r_lo_ext, profile.r_hi * 0.99, _CONSTANTS_GRID)
    g_ext = float(np.max(_cone(*_ricci(r_ext, ref.phi(r_ext),
                                       ref.dphi(r_ext)))))

    def c2_of(gmax):
        if C3 == 0.0 and C4 == 0.0 and C5 == 0.0:
            return 0.0
        if gmax >= 1.0:
            return float("inf")
        return max(C3 / np.sqrt(1.0 - gmax**2), np.sqrt(3.0) * C4, np.sqrt(3.0) * C5)

    out = {
        "C1": np.sqrt(3.0) * max(C4, C5),
        "C2": c2_of(g_range),
        "C3": C3,
        "C4": C4,
        "C5": C5,
        "C2_full_exterior": c2_of(g_ext),
        "angle_bound": g_range,
        "angle_bound_full_exterior": g_ext,
        "details": {"C3": d3, "C4": d4, "C5": d5,
                    "rho_range": [float(rho[0]), float(rho[-1])]},
    }
    if ref.kind == "reissner_nordstrom":
        # alternative cone bound quoted for charged references
        out["angle_bound_variant"] = float(np.max(
            np.sqrt(ref.m / (3.0 * ref.m - ref.e**2 / r))))
    return out
