import numpy as np
import pytest
from scipy.special import sph_harm_y

from penlab.sphere import ENTRIES, SphereGrid


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(24, 48)


def swap_layout(C):
    """Complex sets (..., mmax+1, lmax+1) <-> analyze's real blocks (k, mmax+1,
    2, lmax+1), whose [j, m, 0] and [j, m, 1] are set j's real and imaginary
    parts.

    Complex input gives blocks; real blocks give the k complex sets stacked
    as (k, mmax+1, lmax+1).
    """
    if np.iscomplexobj(C):
        nm, nl = C.shape[-2:]
        return np.stack([C.real, C.imag], axis=-2).reshape(-1, nm, 2, nl)
    return C[:, :, 0] + 1j * C[:, :, 1]


def named(stack):
    """A partials stack keyed by its ENTRIES names."""
    assert len(stack) in (5, 9)
    return dict(zip(ENTRIES[1:], stack))


def degree_mask(g):
    """The (mmax+1, lmax+1) entries with l >= m."""
    return np.arange(g.lmax + 1) >= np.arange(g.mmax + 1)[:, None]


def harmonic(grid, ell, m):
    th = grid.theta[:, None] * np.ones((1, grid.n_phi))
    ph = np.ones((grid.n_theta, 1)) * grid.phi[None, :]
    return np.real(sph_harm_y(ell, m, th, ph))


def test_quadrature_kills_nonconstant_harmonics(grid):
    for ell in range(1, grid.n_theta):
        val = grid.integrate(harmonic(grid, ell, min(ell, 3)))
        assert abs(val) < 1e-12, (ell, val)


def test_quadrature_total_area(grid):
    assert grid.integrate(np.ones((grid.n_theta, grid.n_phi))) == pytest.approx(
        4 * np.pi, rel=1e-14
    )


def test_analysis_synthesis_roundtrip(grid):
    rng = np.random.default_rng(7)
    C = (rng.standard_normal((grid.mmax + 1, grid.lmax + 1))
         + 1j * rng.standard_normal((grid.mmax + 1, grid.lmax + 1)))
    C[0] = C[0].real  # m=0 coefficients of a real field are real
    C *= degree_mask(grid)
    # only keep moderately low degrees so the field is well inside the band
    C[:, grid.lmax - 1:] = 0.0
    f = grid.synthesize(swap_layout(C))
    C2 = swap_layout(grid.analyze(f))[0]
    assert np.allclose(C2, C, atol=1e-12)


def test_first_derivatives_analytic(grid):
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    f = np.sin(th) ** 2 * np.cos(2 * ph)  # proportional to Re Y_22
    d = named(grid.partials(f, third=True))
    assert np.allclose(d['t'], 2 * np.sin(th) * np.cos(th) * np.cos(2 * ph), atol=1e-12)
    assert np.allclose(d['p'], -2 * np.sin(th) ** 2 * np.sin(2 * ph), atol=1e-12)
    assert np.allclose(d['tt'], 2 * np.cos(2 * th) * np.cos(2 * ph), atol=1e-11)
    assert np.allclose(d['tp'], -4 * np.sin(th) * np.cos(th) * np.sin(2 * ph), atol=1e-11)
    assert np.allclose(d['pp'], -4 * np.sin(th) ** 2 * np.cos(2 * ph), atol=1e-11)
    assert np.allclose(d['ttt'], -4 * np.sin(2 * th) * np.cos(2 * ph), atol=1e-10)
    assert np.allclose(d['ttp'], -4 * np.cos(2 * th) * np.sin(2 * ph), atol=1e-10)
    assert np.allclose(d['tpp'], -8 * np.sin(th) * np.cos(th) * np.cos(2 * ph), atol=1e-10)
    assert np.allclose(d['ppp'], 8 * np.sin(th) ** 2 * np.sin(2 * ph), atol=1e-10)


def test_axisymmetric_derivatives(grid):
    # f = P_3(cos t): f' = -sin t P_3'(x); checked against the explicit cubic
    x = grid.cos_theta[:, None]
    s = grid.sin_theta[:, None]
    f = (0.5 * (5 * x**3 - 3 * x)) * np.ones((1, grid.n_phi))
    d = named(grid.partials(f))
    dfdx = 0.5 * (15 * x**2 - 3)
    assert np.allclose(d['t'], -s * dfdx, atol=1e-12)
    assert np.allclose(d['p'], 0.0, atol=1e-13)
    # d/dt(-s f_x) = -x f_x + s^2 f_xx with f_xx = 15 x
    assert np.allclose(d['tt'], -x * dfdx + s**2 * 15 * x, atol=1e-11)


def test_derivatives_match_finite_differences():
    g = SphereGrid(32, 64)
    th = g.theta[:, None]
    ph = g.phi[None, :]

    def f_of(t, p):
        return np.exp(0.3 * np.cos(t)) * (1 + 0.2 * np.sin(t) ** 3 * np.cos(3 * p))

    f = f_of(th, ph)
    d = named(g.partials(f, third=True))
    h = 1e-5
    ft = (f_of(th + h, ph) - f_of(th - h, ph)) / (2 * h)
    fp = (f_of(th, ph + h) - f_of(th, ph - h)) / (2 * h)
    assert np.allclose(d['t'], ft, atol=5e-9)
    assert np.allclose(d['p'], fp, atol=5e-9)
    # wider steps for higher orders: roundoff scales like eps/h^order
    h = 1e-4
    ftt = (f_of(th + h, ph) - 2 * f + f_of(th - h, ph)) / h**2
    assert np.allclose(d['tt'], ftt, atol=1e-6)
    h = 1e-3
    fttt = (f_of(th + 2 * h, ph) - 2 * f_of(th + h, ph)
            + 2 * f_of(th - h, ph) - f_of(th - 2 * h, ph)) / (2 * h**3)
    assert np.allclose(d['ttt'], fttt, atol=1e-4)


def test_project_removes_aliasing_but_keeps_resolved(grid):
    th = grid.theta[:, None]
    f = np.cos(th) ** 3 * np.ones((1, grid.n_phi))
    assert np.allclose(grid.project(f), f, atol=1e-13)


def test_tail_fraction_flags_unresolved():
    g = SphereGrid(8, 16)
    smooth = np.cos(g.theta)[:, None] * np.ones((1, g.n_phi))
    # Legendre generating function: coefficients decay only like 0.81^l,
    # so an 8-node grid leaves real energy in the top degrees
    x = g.cos_theta[:, None]
    rough = 1.0 / np.sqrt(1 - 2 * 0.81 * x + 0.81**2) * np.ones((1, g.n_phi))
    assert g.spectral_tail_fraction(smooth) < 1e-20
    assert g.spectral_tail_fraction(rough) > 1e-3


def test_round_helmholtz_inverse(grid):
    # (1 + a l(l+1)) u_lm = f_lm, checked on a single harmonic
    f = harmonic(grid, 4, 2)
    u = grid.round_helmholtz_inverse(f, grid.round_helmholtz_gain(0.1))[0]
    assert np.allclose(u, f / (1 + 0.1 * 20.0), atol=1e-12)


def test_round_helmholtz_inverse_is_identity_off_band(grid):
    # the resolved part is inverted, the unresolved remainder passes through
    f = np.random.default_rng(5).standard_normal((grid.n_theta, grid.n_phi))
    ells = np.arange(grid.lmax + 1)
    inverted = grid.synthesize(grid.analyze(f) / (1 + 0.1 * ells * (ells + 1)))
    u = grid.round_helmholtz_inverse(f, grid.round_helmholtz_gain(0.1))[0]
    assert np.allclose(u, inverted + (f - grid.project(f)), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("shape", [(8, 16), (16, 32), (32, 64)])
def test_round_helmholtz_inverse_stack_carries_its_gradient(shape):
    # row 0 is the inverse as one synthesis of the gain coefficients
    # gives it, bitwise; rows 1-5 are its gradient and second partials,
    # synthesized from the coefficients the inverse has on the band, with
    # no second analysis.  The field is noise, so it has energy in every
    # degree and off the band
    g = SphereGrid(*shape)
    f = np.random.default_rng(23).standard_normal(shape)
    gain = 1.0 / (1.0 + 0.1 * g._ell_ell1) - 1.0
    assert np.array_equal(g.round_helmholtz_gain(0.1), gain)
    stack = g.round_helmholtz_inverse(f, gain)
    assert stack.shape == (6,) + shape
    assert np.array_equal(stack[0], f + g.synthesize(g.analyze(f) * gain))
    parts = g.partials(stack[0])
    assert np.max(np.abs(stack[1:] - parts)) <= 1e-12 * (1.0 + np.max(np.abs(parts)))


def test_stacked_analysis_matches_per_field(grid):
    fields = np.random.default_rng(11).standard_normal(
        (2, 3, grid.n_theta, grid.n_phi))
    rows = grid.analyze(fields)
    assert rows.shape == (6, grid.mmax + 1, 2, grid.lmax + 1)
    C = swap_layout(rows).reshape(2, 3, grid.mmax + 1, grid.lmax + 1)
    for i in range(2):
        for j in range(3):
            ref = swap_layout(grid.analyze(fields[i, j]))[0]
            assert np.allclose(C[i, j], ref, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(ref)))


def test_stacked_synthesis_matches_single_orders(grid):
    rows = grid.analyze(np.random.default_rng(12).standard_normal(
        (3, grid.n_theta, grid.n_phi)))
    Cs = [swap_layout(C) for C in swap_layout(rows)]   # each set's own rows
    # one entry per stacked set, then every entry sharing one set
    stacked = grid.synthesize(rows, slice(6, 9))
    shared = grid.synthesize(Cs[1], slice(0, len(ENTRIES)))
    assert stacked.shape == (3, grid.n_theta, grid.n_phi)
    assert shared.shape == (len(ENTRIES), grid.n_theta, grid.n_phi)
    pairs = [(C, 6 + j, out) for j, (C, out) in enumerate(zip(Cs, stacked))]
    pairs += [(Cs[1], entry, out) for entry, out in enumerate(shared)]
    for C, entry, out in pairs:
        ref = grid.synthesize(C, entry)
        assert ref.shape == (grid.n_theta, grid.n_phi)
        assert np.allclose(out, ref, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(ref))), ENTRIES[entry]


def einsum_synthesis(g, C, entry):
    """One complex expansion's table entry (d/dtheta)^a (d/dphi)^b by plain
    contraction over the same theta table and an inverse FFT."""
    nm = g.mmax + 1
    Cm = C * ((1j * np.arange(nm)) ** ENTRIES[entry].count("p"))[:, None]
    full = np.zeros((g.n_theta, g.n_phi // 2 + 1), dtype=complex)
    full[:, :nm] = np.einsum('mli,ml->im', g._synthesis[entry], Cm)
    return np.fft.irfft(full * g.n_phi, n=g.n_phi, axis=1)


@pytest.mark.parametrize("shape", [(16, 32), (12, 16)])
def test_transforms_match_einsum_reference(shape):
    # the matmul transforms against the plain contraction over the same
    # tables; (12, 16) has mmax < lmax, so synthesis must zero-pad modes
    g = SphereGrid(*shape)
    nm = g.mmax + 1
    f = np.random.default_rng(3).standard_normal(shape)
    fhat = np.fft.rfft(f, axis=1)[:, :nm] / g.n_phi
    C_ref = np.einsum('mil,im->ml', g._analysis, fhat) * degree_mask(g)
    rows = g.analyze(f)
    C = swap_layout(rows)[0]
    assert np.allclose(C, C_ref, rtol=0.0, atol=1e-14 * np.max(np.abs(C_ref)))
    for entry, name in enumerate(ENTRIES):
        # an entry's theta table is the pure d/dtheta entry of its order
        pure = ENTRIES.index("t" * name.count("t"))
        assert np.array_equal(g._synthesis[entry], g._synthesis[pure]), name
        ref = einsum_synthesis(g, C, entry)
        out = g.synthesize(rows, entry)
        assert np.allclose(out, ref, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(ref))), name


@pytest.mark.parametrize("shape", [(16, 32), (12, 16)])
def test_synthesis_entries_repeat_bytes_and_match_einsum(shape):
    # every signature src/penlab synthesizes: one set against an entry or
    # a slice of entries, and the Helmholtz inverse's six sets against six
    g = SphereGrid(*shape)
    rng = np.random.default_rng(5)
    C = g.analyze(rng.standard_normal(shape))
    C6 = g.analyze(rng.standard_normal((6,) + shape))
    signatures = {
        "gradient": (C, slice(1, 3)),
        "helmholtz inverse": (C6, slice(0, 6)),
        "order 0": (C, 0),
        "partials": (C, slice(1, 6)),
        "partials third": (C, slice(1, 10)),
    }
    for name, (coeff, entries) in signatures.items():
        first = g.synthesize(coeff, entries)
        again = g.synthesize(coeff, entries)
        assert first.shape == again.shape and first.tobytes() == again.tobytes()
        sets = swap_layout(coeff)
        indices = np.arange(len(ENTRIES))[entries].reshape(-1)
        for i, (out, entry) in enumerate(zip(first.reshape(-1, *shape),
                                             indices)):
            ref = einsum_synthesis(g, sets[i % len(sets)], entry)
            assert np.allclose(out, ref, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(ref))), (
                name, ENTRIES[entry])
    # what partials, gradient and project return goes through the same
    # entries
    f = rng.standard_normal(shape)
    assert g.partials(f, third=True).tobytes() == g.synthesize(
        g.analyze(f), slice(1, 10)).tobytes()
    assert g.partials(f).tobytes() == g.synthesize(
        g.analyze(f), slice(1, 6)).tobytes()
    assert g.gradient(f).tobytes() == g.synthesize(
        g.analyze(f), slice(1, 3)).tobytes()
    assert g.project(f).shape == shape


def test_grid_state_is_fixed_at_construction():
    # every operator reads the tables built with the grid and stores nothing
    g = SphereGrid(12, 16)
    state = dict(vars(g))
    # arrays and numbers only: no container that could grow
    assert all(isinstance(v, (np.ndarray, int, float)) for v in state.values())
    f = np.random.default_rng(19).standard_normal((g.n_theta, g.n_phi))
    operators = {
        "gradient": g.gradient,
        "project": g.project,
        "partials": g.partials,
        "partials third": lambda f: g.partials(f, third=True),
        "helmholtz": lambda f: g.round_helmholtz_inverse(
            f, g.round_helmholtz_gain(0.1)),
        "tail fraction": g.spectral_tail_fraction,
        "stacked analyze": lambda f: g.analyze(np.stack([f, 2.0 * f])),
    }
    for name, op in operators.items():
        op(f)
        assert vars(g).keys() == state.keys(), name
        assert all(vars(g)[k] is v for k, v in state.items()), name


@pytest.mark.parametrize("shape", [(8, 16), (12, 16), (16, 32)])
def test_coefficient_rows_are_re_im_pairs(shape):
    # the one coefficient layout: block j of a stack's analysis holds Re
    # and Im of field j's einsum reference; (12, 16) has mmax < lmax
    g = SphereGrid(*shape)
    nm, nl = g.mmax + 1, g.lmax + 1
    fields = np.random.default_rng(17).standard_normal((3,) + shape)
    fields[2] = np.cos(g.theta)[:, None] ** 2 * np.sin(g.phi)   # resolved
    rows = g.analyze(fields)
    assert rows.shape == (3, nm, 2, nl) and rows.dtype == np.float64
    ells = np.arange(nl)
    for j, f in enumerate(fields):
        fhat = np.fft.rfft(f, axis=1)[:, :nm] / g.n_phi
        ref = np.einsum('mil,im->ml', g._analysis, fhat) * degree_mask(g)
        atol = 1e-14 * np.max(np.abs(ref))
        assert np.allclose(rows[j, :, 0], ref.real, rtol=0.0, atol=atol)
        assert np.allclose(rows[j, :, 1], ref.imag, rtol=0.0, atol=atol)
        # the tail fraction (blocks squared) against the complex formula on
        # the same coefficients
        power = np.abs(swap_layout(rows)[j]) ** 2
        expected = power[:, ells >= g.lmax - 1].sum() / power.sum()
        assert g.spectral_tail_fraction(f) == pytest.approx(expected, rel=1e-15,
                                                            abs=0.0)
    # a complex (m, l) set is not a coefficient layout
    with pytest.raises(ValueError, match="blocks"):
        g.synthesize(swap_layout(rows)[0])
