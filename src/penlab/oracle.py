"""Rotationally symmetric ground truth.

Closed forms and one-dimensional ODE reductions for round surfaces in
the analytic reference manifolds:

- t_from_einstein, the matter function T through the static Einstein
  tensor rather than the potential Hessian;
- round_flow_u, the round flow and its lapse integrated by DOP853;
- scenario_closed_form, the exact energies of a Schwarzschild interior;
- schwarzschild_rho, the closed-form isotropic radius.

`penlab verify` checks the grid pipeline against all four, the
benchmark gates on round_flow_u and scenario_closed_form, and the tests
use them as witnesses.  Everything here is written straight from
φ(r) = 1 − 2m/r + e²/r², on purpose without importing the grid or
geometry modules, so the two code paths stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "t_from_einstein",
    "round_flow_u",
    "scenario_closed_form",
    "schwarzschild_rho",
]


def _params(ref):
    """Extract (m, e) from an analytic ReferenceManifold."""
    if ref.kind not in ("schwarzschild", "reissner_nordstrom"):
        raise ValueError("oracle covers the analytic kinds only")
    return float(ref.m), float(ref.e)


def _phi(m, e, r):
    return 1.0 - 2.0 * m / r + e**2 / r**2


def _horizon(m, e):
    return m + np.sqrt(m**2 - e**2)


def t_from_einstein(ref, r, cos_theta):
    """T via the static-spacetime Einstein tensor, T = G(e₀,e₀) + G(ν,ν).

    Independent of the potential-Hessian route: uses only φ and V = √φ
    through the closed-form orthonormal Einstein components of the
    static 4-metric −V²dt² + gbar.
    """
    m, e = _params(ref)
    r = np.asarray(r, dtype=float)
    p = _phi(m, e, r)
    dp = 2.0 * m / r**2 - 2.0 * e**2 / r**3
    d2p = -4.0 * m / r**3 + 6.0 * e**2 / r**4
    G_tt = (1.0 - p - r * dp) / r**2
    G_rr = (p - 1.0) / r**2 + dp / r
    G_ang = 0.5 * d2p + dp / r
    c2 = np.asarray(cos_theta, dtype=float) ** 2
    return G_tt + c2 * G_rr + (1.0 - c2) * G_ang


@dataclass
class RoundState:
    s: float
    r: float
    u: float


def round_flow_u(ref, r0, u0, s_max, n_samples: int = 201):
    """Integrate the unit-speed round flow and the reduced u equation.

    dr/ds = √φ;  du/ds = (u − u³)c/H0 with c = detA0 − Ric(ν,ν) + T/2,
    all closed forms.  Returns (states, E) where E[i] is the quasi-local
    energy (r²/2)·V·H0·(1 − 1/u) at sample i.
    """
    m, e = _params(ref)
    r0, u0, s_max = float(r0), float(u0), float(s_max)
    if r0 <= _horizon(m, e):
        raise ValueError("r0 at or below the horizon")
    if u0 <= 0:
        raise ValueError("u0 must be positive")

    def rhs(s, y):
        r, u = y
        p = _phi(m, e, r)
        dp = 2.0 * m / r**2 - 2.0 * e**2 / r**3
        c = p / r**2 + dp / r  # detA0 − ric_nu, T(radial) = 0
        H0 = 2.0 * np.sqrt(p) / r
        return [np.sqrt(p), (u - u**3) * c / H0]

    s_eval = np.linspace(0.0, s_max, n_samples)
    sol = solve_ivp(rhs, (0.0, s_max), [r0, u0], t_eval=s_eval,
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise ValueError(f"round flow integration failed: {sol.message}")
    states = [RoundState(float(s), float(r), float(u))
              for s, r, u in zip(sol.t, sol.y[0], sol.y[1])]
    r, u = sol.y
    p = _phi(m, e, r)
    E = (r**2 / 2.0) * np.sqrt(p) * (2.0 * np.sqrt(p) / r) * (1.0 - 1.0 / u)
    return states, E


def scenario_closed_form(M, m, r0):
    """Exact energies for a Schwarzschild interior matched inside a
    Schwarzschild reference over the coordinate sphere r0.

    LHS is the initial quasi-local energy, RHS = √(A_h/16π) − m with
    horizon area A_h = 16πM².
    """
    M, m, r0 = float(M), float(m), float(r0)
    if r0 <= 2.0 * M or r0 <= 2.0 * m:
        raise ValueError("r0 inside a horizon")
    if m > M:
        raise ValueError("reference mass exceeds interior mass")
    sm = np.sqrt(1.0 - 2.0 * m / r0)
    sM = np.sqrt(1.0 - 2.0 * M / r0)
    return {"LHS": r0 * sm * (sm - sM), "RHS": M - m}


def schwarzschild_rho(m, r):
    """Closed-form isothermal radius ρ(r) for the vacuum reference."""
    r = np.asarray(r, dtype=float)
    return (r - m + np.sqrt(r**2 - 2.0 * m * r)) / 2.0

