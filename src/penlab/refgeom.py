"""Static spherically symmetric reference manifolds.

A reference manifold here is the time-symmetric slice of a static
spacetime: a metric gbar = dr²/φ(r) + r² dS² together with a static
potential V(r), positive outside the horizon radius where φ vanishes.
The module provides the curvature of gbar, the direction-dependent
curvature quantity T defined through the Hessian of V, and the
isothermal (conformally flat) radial coordinate in which gbar takes the
form F⁴(ρ)(dρ² + ρ² dS²).

Builtin kinds cover vacuum (schwarzschild, φ = 1 − 2m/r) and
electrovacuum (reissner_nordstrom, φ = 1 − 2m/r + e²/r²), both with
V = √φ.  Arbitrary profiles enter through tabulated (r, φ, V) data with
monotone-cubic interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

__all__ = [
    "ReferenceManifold",
    "ConformalProfile",
    "RadialFactors",
    "make_reference",
    "isothermal_profile",
    "reference_fields",
    "reference_from_csv",
]


@dataclass(frozen=True)
class ReferenceManifold:
    """Immutable bundle of φ, φ′ and the static potential V.

    potential(r, φ(r), φ′(r)) returns (V, V′, V″) at r, the one route to
    V, so that a caller holding φ and φ′ there does not evaluate them again.
    """

    kind: str
    m: float
    e: float
    r_horizon: float
    r_min: float
    r_max: float
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]

    def require_exterior(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.r_horizon) or np.any(r < self.r_min):
            raise ValueError("r at or below the horizon / domain floor")
        if np.any(r > self.r_max):
            raise ValueError("r beyond the tabulated domain")
        return r


def make_reference(kind: str, m: float | None = None, e: float = 0.0,
                   tabulated_data=None) -> ReferenceManifold:
    """Build a reference manifold of the given kind.

    Parameters
    ----------
    kind : 'schwarzschild' | 'reissner_nordstrom' | 'tabulated'
    m, e : mass and charge for the analytic kinds (|e| < m required,
        e = 0 for schwarzschild).
    tabulated_data : (r, phi, V) arrays for kind='tabulated'; r strictly
        increasing, phi and V positive past the first zero of phi.
    """
    if kind == "schwarzschild" and e != 0.0:
        raise ValueError("a schwarzschild reference takes no charge e")
    if kind in ("schwarzschild", "reissner_nordstrom"):
        # written as negations so that NaN fails too; an extremal
        # reference has no isothermal horizon anchor
        if m is None or not m > 0:
            raise ValueError("mass must be positive")
        if not abs(e) < m:
            raise ValueError("extremal violation: the charge must satisfy |e| < m")
        m_, e_ = float(m), float(e)
        r_h = m_ + np.sqrt(m_**2 - e_**2)

        def phi(r):
            r = np.asarray(r, dtype=float)
            return 1.0 - 2.0 * m_ / r + e_**2 / r**2

        def dphi(r):
            r = np.asarray(r, dtype=float)
            return 2.0 * m_ / r**2 - 2.0 * e_**2 / r**3

        def potential(r, p, dp):
            # V = √φ and its r-derivatives over φ and φ′ given at r
            d2p = -4.0 * m_ / r**3 + 6.0 * e_**2 / r**4
            v = np.sqrt(p)
            return v, dp / (2.0 * v), (d2p - dp**2 / (2.0 * p)) / (2.0 * v)

        return ReferenceManifold(kind, m_, e_, r_h, r_h, np.inf,
                                 phi, dphi, potential)

    if kind == "tabulated":
        if tabulated_data is None:
            raise ValueError("tabulated kind needs (r, phi, V) data")
        r_t, phi_t, V_t = (np.asarray(a, dtype=float) for a in tabulated_data)
        if r_t.ndim != 1 or r_t.size < 4:
            raise ValueError("need at least 4 tabulated rows")
        if np.any(np.diff(r_t) <= 0):
            raise ValueError("tabulated r must be strictly increasing")
        interior = slice(1, None) if phi_t[0] <= 0.0 else slice(None)
        if np.any(phi_t[interior] <= 0) or np.any(V_t[interior] <= 0):
            raise ValueError("tabulated phi, V must be positive past the horizon")
        phi_i = PchipInterpolator(r_t, phi_t)
        V_i = PchipInterpolator(r_t, V_t)
        dV_i, d2V_i = V_i.derivative(1), V_i.derivative(2)
        r_h = float(r_t[0]) if phi_t[0] <= 1e-14 else 0.0
        m_eff = float(r_t[-1] * (1.0 - phi_t[-1]) / 2.0)  # asymptotic mass guess

        def table_potential(r, p, dp):
            # V is tabulated on its own, not derived from φ
            return V_i(r), dV_i(r), d2V_i(r)

        return ReferenceManifold(
            "tabulated", m_eff, 0.0, r_h, float(r_t[0]), float(r_t[-1]),
            phi_i, phi_i.derivative(1), table_potential)

    raise ValueError(f"unknown reference kind: {kind!r}")


def reference_from_csv(path) -> ReferenceManifold:
    """Load a tabulated reference from a CSV file with header r,phi,V."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("r", "phi", "V"):
        if col not in (data.dtype.names or ()):
            raise ValueError("CSV must have header r,phi,V")
    return make_reference("tabulated",
                          tabulated_data=(data["r"], data["phi"], data["V"]))


# ----------------------------------------------------------------------
# curvature of gbar = dr²/φ + r² dS², each formula written once over
# evaluated values of φ, φ′, V, V′ and V″

def _ricci(r, p, dp):
    """Orthonormal-frame Ricci eigenvalues (radial, tangential) from φ, φ′."""
    return -dp / r, -dp / (2.0 * r) + (1.0 - p) / r**2


def _trace(rad, tan):
    """Trace of a tensor with one radial and two tangential eigenvalues."""
    return rad + 2.0 * tan


def _along(c2, rad, tan):
    """Its value on a unit vector at angle θ to the radial one, c2 = cos²θ."""
    return c2 * rad + (1.0 - c2) * tan


def _cone(lam_rad, lam_tan):
    """Lower bound on cosθ below which normal convexity can fail.

    For a mixed-sign Ricci tensor (radial eigenvalue negative, tangential
    positive) the normal direction must stay within an angular cone of the
    radial one; the critical cosine is √(λ_tan / (λ_tan − λ_rad)).  A flat
    region has no restriction and reports 0.
    """
    denom = lam_tan - lam_rad
    flat = np.abs(denom) < 1e-300
    ratio = np.where(flat, 0.0, lam_tan / np.where(flat, 1.0, denom))
    return np.sqrt(np.clip(ratio, 0.0, 1.0))


def reference_fields(ref: ReferenceManifold, radial: RadialFactors, cos_theta):
    """(V, dV/dν, Ric(ν,ν), T, (λ_rad, λ_tan)) at radii radial.r.

    ν makes the angle θ with ∂r; (λ_rad, λ_tan) are the Ricci eigenvalues.
    T(r, ν) = (ΔV − D²V(ν,ν))/V + Ric(ν,ν), with the Hessian of V
    radial φV″ + ½φ′V′ and tangential (φ/r)V′ in the orthonormal frame.
    T vanishes identically in vacuum, and for V = √φ also in the radial
    direction; the complement R̄ − T carries the remaining null-energy
    component.  φ and φ′ come from radial, and V, V′ and V″ from one
    ref.potential call over them, so a surface evaluates φ and φ′ once
    each.
    """
    r = ref.require_exterior(radial.r)
    p, dp = radial.phi, radial.dphi
    V, dv, d2v = ref.potential(r, p, dp)
    c2 = cos_theta**2
    lam_rad, lam_tan = _ricci(r, p, dp)
    ric = _along(c2, lam_rad, lam_tan)
    rad = p * d2v + 0.5 * dp * dv
    tan = (p / r) * dv
    t = (_trace(rad, tan) - _along(c2, rad, tan)) / V + ric
    return V, np.sqrt(p) * dv * cos_theta, ric, t, (lam_rad, lam_tan)


# ----------------------------------------------------------------------
# isothermal (conformally flat) profile

# knots of the stored τ(σ) and Gauss–Legendre rule per knot interval;
# the cubic Hermite error at this spacing sits near roundoff
_PROFILE_KNOTS = 3000
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


class RadialFactors(NamedTuple):
    """r(ρ), F = √(r/ρ) and φ, φ′ at r, with ρ-derivatives of F and h = 1/F².

    dF = F′, d2F = F″, dh = h′, d2h = h″ (primes in ρ); dphi = dφ/dr.
    """

    r: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    d2F: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


@dataclass(frozen=True)
class ConformalProfile:
    """Change of radial variable with gbar = F⁴(ρ)(dρ² + ρ² dS²).

    The defining equation is d ln r / d ln ρ = √φ, anchored so that
    ρ/r → 1 at the outer end (at infinity for analytic kinds, at the
    last tabulated radius otherwise), making F = √(r/ρ) → 1.  The
    solution τ = ln r is held as one cubic Hermite spline in σ = ln ρ
    whose knot slopes are the exact √φ, so r(ρ) is a table lookup plus
    a cubic, with no φ call and no inversion.
    """

    ref: ReferenceManifold
    r_lo: float
    r_hi: float
    rho_lo: float
    rho_hi: float
    _tau_of_sigma: CubicHermiteSpline   # τ = ln r as a function of σ = ln ρ

    def rho_of_r(self, r):
        """Inverse of r_of_rho by Newton on the stored τ(σ), slope √φ(r)."""
        r = np.asarray(r, dtype=float)
        self._check_r(r)
        tau = np.log(r)
        poly = self._tau_of_sigma
        # start from the chords between the knots (τ increases with σ)
        sigma = np.interp(tau, poly(poly.x), poly.x)
        slope = np.sqrt(self.ref.phi(r))  # dτ/dσ at the root
        for _ in range(12):
            step = (poly(sigma) - tau) / slope
            sigma = np.clip(sigma - step, poly.x[0], poly.x[-1])
            if np.max(np.abs(step)) < 1e-13:
                break
        else:
            raise ValueError("rho_of_r failed to converge")
        return np.exp(sigma)

    def r_of_rho(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < self.rho_lo * (1 - 1e-12)) or np.any(rho > self.rho_hi * (1 + 1e-12)):
            raise ValueError("rho outside the profile range")
        return np.exp(self._tau_of_sigma(np.log(rho)))

    def radial_factors(self, rho) -> RadialFactors:
        """r(ρ) with F, F′, F″, h′, h″, φ and φ′, from one evaluation of r."""
        rho = np.asarray(rho, dtype=float)
        r = self.r_of_rho(rho)
        p = self.ref.phi(r)
        dp = self.ref.dphi(r)
        sqp = np.sqrt(p)
        F = np.sqrt(r / rho)
        dF = r * (sqp - 1.0) / (2.0 * rho**2 * F)
        dNdrho = (r / rho) * (sqp * (sqp - 1.0) + 0.5 * r * dp)
        d2F = dNdrho / (2.0 * rho**2 * F) - dF * (2.0 / rho + dF / F)
        return RadialFactors(
            r=r, F=F, dF=dF, d2F=d2F,
            dh=(1.0 - sqp) / r,
            d2h=(-0.5 * r * dp + p - sqp) / (rho * r),
            phi=p, dphi=dp,
        )

    def _check_r(self, r):
        if np.any(r < self.r_lo * (1 - 1e-12)) or np.any(r > self.r_hi * (1 + 1e-12)):
            raise ValueError("r outside the profile range")


def _tail_anchor(ref: ReferenceManifold, r_out: float) -> float:
    """y(r_out) = ln(ρ/r) = −∫_{r_out}^∞ (1/√φ − 1) dt/t for an analytic kind.

    The integral has the closed form of the Reissner–Nordström isotropic
    radius, ρ = (r − m + √(r² − 2mr + e²))/2, with e = 0 for Schwarzschild.
    """
    m, e = ref.m, ref.e
    return float(np.log((r_out - m + np.sqrt(r_out**2 - 2.0 * m * r_out + e**2))
                        / (2.0 * r_out)))


def isothermal_profile(ref: ReferenceManifold, r_grid) -> ConformalProfile:
    """Isothermal coordinate over the span of r_grid, by quadrature.

    The grid sets the represented range only.  The equation
    dτ/dσ = √φ(e^τ), τ = ln r and σ = ln ρ, separates, so σ is an
    integral over r.  With x = ln(r − r_h) (x = ln r without a horizon)
    the integrand dσ/dx = (r − r_h)/(r√φ) stays smooth up to the
    horizon.  _PROFILE_KNOTS knots run evenly in x from r_lo to r_hi;
    σ is summed inward from the outer anchor σ_hi = ln r_hi + y_hi,
    where y = ln(ρ/r) = y_hi is imposed, by 8-point Gauss–Legendre
    quadrature on each knot interval.  τ(σ) is then the cubic Hermite
    spline through the knots with the exact slopes √φ.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size < 2 or np.any(np.diff(r_grid) <= 0):
        raise ValueError("r_grid must be increasing with at least 2 points")
    if r_grid[0] <= ref.r_horizon:
        raise ValueError("r_grid touches the horizon")
    ref.require_exterior(r_grid[[0, -1]])
    r_lo, r_hi = float(r_grid[0]), float(r_grid[-1])
    r_h = ref.r_horizon

    x = np.linspace(np.log(r_lo - r_h), np.log(r_hi - r_h), _PROFILE_KNOTS)
    r_knots = r_h + np.exp(x)
    r_knots[[0, -1]] = r_lo, r_hi
    half = 0.5 * np.diff(x)
    r_nodes = r_h + np.exp((x[:-1] + half)[:, None]
                           + half[:, None] * _GAUSS_NODES)
    # a φ that overflows or is undefined is rejected just below, so its
    # floating-point warnings carry no news
    with np.errstate(all="ignore"):
        phi_nodes = ref.phi(r_nodes)
        phi_knots = ref.phi(r_knots)
    if not all(np.all((p > 0.0) & (p < np.inf)) for p in (phi_nodes, phi_knots)):
        raise ValueError("phi must be positive and finite over r_grid")
    dsigma_dx = (r_nodes - r_h) / (r_nodes * np.sqrt(phi_nodes))
    dsigma = half * (dsigma_dx @ _GAUSS_WEIGHTS)

    if ref.kind == "tabulated":
        y_hi = 0.0  # normalize at the last tabulated radius
    else:
        y_hi = _tail_anchor(ref, r_hi)
    sigma = np.log(r_hi) + y_hi - np.append(np.cumsum(dsigma[::-1])[::-1], 0.0)
    spline = CubicHermiteSpline(sigma, np.log(r_knots), np.sqrt(phi_knots))
    return ConformalProfile(ref, r_lo, r_hi, np.exp(sigma[0]), np.exp(sigma[-1]),
                            spline)

