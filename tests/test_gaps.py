"""The density gaps Theta_inf - Theta from the monotonicity identity: the
whole-orbit identity on the table, the verdicts and the linear decay of
the gaps on every spiral triple, the tail's error bar, and mpmath.

Bounds set from measurement are within a factor of two above the largest
value measured; each test's comment gives that value.
"""

import math

import mpmath
import numpy as np
import pytest

from lo_dynamics import (StabilityType, detect_phi_hits, enumerate_admissible, linearize_p1,
                         shoot_unstable_manifold)
from lo_dynamics.analysis import (
    _GL_NODES,
    _GL_WEIGHTS,
    _tail_logs,
    _verdict,
    density_report,
    gap_logs,
    theta_infinity,
)
from lo_dynamics.dynsys import p1_conjugacy
from lo_dynamics.integrate import DEFAULT_REL_TOL, _linear_flow
from oracles import ball_volume, mpmath_orbit, sphere_volume


def test_whole_orbit_identity(table_trajs):
    # the graph is smooth at the origin, with density 1, so the gap from
    # t[0] plus the part below t[0], where psi = (k-1) phi = (k-1) phi_start
    # e^{(k-1)(t - t[0])} and the other factors are 1, is Theta_inf - 1;
    # the residual is the stored trajectory's error, not the quadrature's
    # (measured: 70 rel_tol on (3,2,4), at most 10.4 rel_tol on the others)
    assert len(table_trajs) == 230
    for triple, traj in table_trajs.items():
        params = traj.params
        mu1 = params.k - 1
        phi_start = traj.eps_start / math.hypot(1.0, mu1)
        below = (sphere_volume(params.n) / ball_volume(params.n + 1)
                 * mu1 * phi_start ** 2 / 2.0)
        log_gap, log_err = gap_logs(traj, [traj.t[0]])
        t_inf = theta_infinity(params)
        residual = (math.exp(log_gap[0]) + below) / (t_inf - 1.0) - 1.0
        bound = 140.0 if triple == (3, 2, 4) else 21.0
        assert abs(residual) <= bound * DEFAULT_REL_TOL, triple
        assert math.exp(log_err[0]) <= 1e-12 * (t_inf - 1.0), triple


def test_spiral_gaps_positive_decreasing_and_resolved(spirals):
    assert len(spirals) == 17
    for triple, traj in spirals.items():
        report = density_report(traj)
        gaps = np.array(report.log10_gaps)
        errors = np.array(report.log10_gap_errors)
        assert len(gaps) == (29 if triple == (5, 4, 6) else 40), triple
        assert np.all(np.isfinite(gaps)), triple
        assert np.all(np.diff(gaps) < 0.0), triple
        # every gap above its error bar by at least 9.38 decades (measured, on (5,4,6))
        assert np.all(gaps - errors > 6.0), triple
        assert report.strictly_below_cone is True
        assert report.thetas == sorted(report.thetas)


def test_deep_gaps_decay_at_the_linear_rate(spirals):
    # past the splice the orbit is the linear flow at P1, so consecutive
    # crossings, half a period pi/omega apart, divide the gap by
    # e^{2 alpha pi / omega}; each gap there is the closed form at the flow's
    # state (measured: at most 2.74e-13 in log10, on (5,4,6))
    for triple, traj in spirals.items():
        lin = linearize_p1(traj.params)
        step = 2.0 * lin.mu3.real * math.pi / (lin.mu3.imag * math.log(10.0))
        hits = detect_phi_hits(traj, traj.params.phi0)
        deep = np.array([h.t for h in hits[:-1]]) > traj.t[traj.splice_index]
        assert deep.sum() >= 26, triple
        steps = np.diff(density_report(traj).log10_gaps)[deep]
        assert np.max(np.abs(steps - step)) <= 5.5e-13, triple


def test_tail_error_bar_covers_cut_runs(spirals):
    # a run cut at t_max before the splice ends its gaps with the closed-form
    # tail from an amplitude up to 2e-2; the full run integrates that part
    # (measured where the amplitude exceeds 1e-9: the tail's relative error
    # is about 1.1 |x*| and at most 0.050 of its bar, on (5,4,8); below that
    # amplitude the full run's own 1e-8 dominates).  The worst ratio must
    # stay above half that, so the bar does not loosen unseen
    checked = 0
    worst = 0.0
    for triple, traj in spirals.items():
        params = traj.params
        log_c = math.log(sphere_volume(params.n) / ball_volume(params.n + 1))
        t_hit = detect_phi_hits(traj, params.phi0)[0].t
        for t_max in (t_hit - 1.0, t_hit, t_hit + 1.0, t_hit + 3.0):
            cut = shoot_unstable_manifold(params, t_max=t_max)
            if max(abs(cut.u[-1]), abs(cut.psi[-1])) < 1e-9:
                continue
            log_tail, log_err = _tail_logs(params, cut.u[-1], cut.psi[-1])
            log_full = gap_logs(traj, [t_max])[0][0]
            ratio = abs(math.exp(log_tail + log_c - log_full) - 1.0) / math.exp(log_err - log_tail)
            assert ratio <= 1.0, (triple, t_max)
            worst = max(worst, ratio)
            checked += 1
    assert checked >= 60  # 65 of the 68 cut runs
    assert worst >= 0.025


@pytest.mark.parametrize("params", [p for p in enumerate_admissible(31, 20)
                                    if p.stability is StabilityType.SPIRAL_TYPE_II],
                         ids=lambda p: str(p.triple()))
def test_carried_error_bar_covers_the_true_flow(params):
    # from a splice state x* of max-norm 1e-4 the true orbit is Phi(z e^{mu
    # tau}) on the P1 series, z = P1Conjugacy.invert(x*), and where e^{alpha
    # tau} = 1e-12 that is the linear flow from z to about 1e-16; the gap the
    # linear flow from x*'s own coordinate gives there errs by the error
    # carried from x*, which its bar must cover.  At 8 phases of one turn
    # from 16 directions of x* (measured: the worst ratio of that error to
    # its bar is 2.0e-3 on (5,4,6) to 1.0e-2 on (3,2,4)), the worst ratio
    # must stay above half the least, so the bar does not loosen unseen
    conj = p1_conjugacy(params)
    lin = conj.lin
    tau = (math.log(1e-12) / lin.mu3.real
           + np.linspace(0.0, 2.0 * math.pi / lin.mu3.imag, 8, endpoint=False))
    worst = 0.0
    for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False).tolist():
        x0 = np.array([math.cos(angle), math.sin(angle)])
        x0 = (1e-4 / np.max(np.abs(x0)) * x0).tolist()
        z_lin = lin.coordinate(*x0)
        x = _linear_flow(lin, z_lin, tau)
        log_gap, log_err = _tail_logs(params, *x, splice=z_lin)
        log_true = _tail_logs(params, *_linear_flow(lin, conj.invert(*x0)[0], tau))[0]
        ratio = np.abs(np.expm1(log_true - log_gap)) / np.exp(log_err - log_gap)
        assert np.all(ratio <= 1.0), angle
        worst = max(worst, float(ratio.max()))
    assert worst >= 1e-3


def test_error_bars_cover_a_10_point_reference(spirals):
    # gaps 1-3 by a 10-point Gauss-Legendre rule in plain floats (psi^2 does
    # not underflow this early), written apart from gap_logs: per Hermite
    # segment up to the splice, and past it on the linear flow from the
    # splice state, from numpy's eigenpair (mu, v) of J as 2 Re(z e^{mu tau}
    # v), 16 pieces per tail segment; the part past t_end, below 1e-190, is
    # left out (measured: the 5-point gaps differ from it by at most
    # 7.0e-15 relative, 4.4e-2 of their bars; the flow's part is at most
    # 6.4e-12 of a gap)
    x, w = np.polynomial.legendre.leggauss(10)
    for triple in [(3, 2, 4), (3, 2, 10)]:
        traj = spirals[triple]
        params = traj.params
        n, p, lam2 = params.n, params.p, params.lambda_sq
        report = density_report(traj)
        t, s = traj.t, traj.splice_index

        def integral(a, b, phi, psi):
            f = (psi ** 2 * (1 + lam2 * phi ** 2) ** (p / 2)
                 / (np.sqrt(1 + (phi + psi) ** 2) * (1 + phi ** 2) ** ((n + 3) / 2)))
            return np.sum((b - a) / 2.0 * (w @ f))

        lin = linearize_p1(params)
        vals, vecs = np.linalg.eig(np.array([[0.0, 1.0], [lin.a, lin.b]]))
        mu, v = vals[np.argmax(vals.imag)], vecs[:, np.argmax(vals.imag)]
        z = np.linalg.solve(np.array([v, v.conj()]).T,
                            np.array([traj.u[s], traj.psi[s]], dtype=complex))[0]
        edges = np.append(np.linspace(t[s:-1], t[s + 1:], 16, endpoint=False).T.ravel(), t[-1])
        a, b = edges[:-1], edges[1:]
        flow = z * np.exp(mu * ((a + b) / 2.0 + (b - a) / 2.0 * x[:, None] - t[s]))
        tail = integral(a, b, params.phi0 + 2.0 * (flow * v[0]).real, 2.0 * (flow * v[1]).real)
        for i, hit in enumerate(detect_phi_hits(traj, params.phi0)[:3]):
            assert hit.t < t[s]
            j = np.arange(np.searchsorted(t, hit.t, side="right") - 1, s)
            a = np.concatenate([[hit.t], t[j[1:]]])
            b = t[j + 1]
            h = b - t[j]
            s_ = ((a + b) / 2.0 + (b - a) / 2.0 * x[:, None] - t[j]) / h

            def hermite(y, m):
                return ((2 * s_ ** 3 - 3 * s_ ** 2 + 1) * y[j]
                        + (s_ ** 3 - 2 * s_ ** 2 + s_) * h * m[j]
                        + (3 * s_ ** 2 - 2 * s_ ** 3) * y[j + 1] + (s_ ** 3 - s_ ** 2) * h * m[j + 1])

            phi = params.phi0 + hermite(traj.u, traj.psi)
            psi = hermite(traj.psi, traj.dpsi)
            reference = (n + 1) * (integral(a, b, phi, psi) + tail)
            gap = 10.0 ** report.log10_gaps[i]
            assert abs(gap - reference) <= 10.0 ** report.log10_gap_errors[i], (triple, i)


def test_mpmath_gaps_324(spirals):
    # gaps 1-3 of (3,2,4) from a 20-digit Taylor integration of the same
    # launch: tanh-sinh quadrature of the gap integrand between the exact
    # crossings 1-6, plus gap 6 from the report (below 1e-23, about 1e-9 of
    # gap 3); measured 3.6e-8, 2.5e-10 and 3.2e-9 relative
    traj = spirals[(3, 2, 4)]
    params = traj.params
    n, p = params.n, params.p
    report = density_report(traj)
    hits = detect_phi_hits(traj, params.phi0)[:6]
    with mpmath.workdps(20):
        sol, phi0, lam2 = mpmath_orbit(traj)

        def integrand(t):
            u, psi = sol(t)
            phi = phi0 + u
            return (psi ** 2 * (1 + lam2 * phi * phi) ** (mpmath.mpf(p) / 2)
                    / (mpmath.sqrt(1 + (phi + psi) ** 2)
                       * (1 + phi * phi) ** (mpmath.mpf(n + 3) / 2)))

        t_exact = [mpmath.findroot(lambda s: sol(s)[0], mpmath.mpf(h.t)) for h in hits]
        gap = mpmath.mpf(10) ** report.log10_gaps[5]
        exact = []
        for a, b in reversed(list(zip(t_exact, t_exact[1:]))):
            gap += (n + 1) * mpmath.quad(integrand, [a, b])
            exact.append(float(gap))
    for got, want in zip(report.log10_gaps[:3], exact[::-1][:3]):
        assert abs(10.0 ** got / want - 1.0) <= 1e-7


# twice the largest relative distance measured between the first three tail
# gaps and the true-flow reference of test_mpmath_tail_gaps
_TRUE_FLOW_GAP_TOL = {(3, 2, 4): 4.2e-14, (5, 4, 6): 5.5e-14, (5, 4, 14): 7.4e-14}


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 14)])
def test_mpmath_tail_gaps(triple, spirals):
    # the gaps at the first three phi0 hits past the splice, against two
    # 20-digit references from the splice state x* at t_s: the integral of
    # the gap integrand along the exact linear flow exp(J tau) x* (J from
    # the exact parameters), and along the true flow (mpmath odefun).  Each
    # is Gauss-Legendre on pieces of 1/(4|alpha|) from the cut over
    # max(pi/omega, 12/|alpha|), plus the closed form x^T P x at P1 beyond
    # (e^{-24} of the gap).  Both must lie within the gap's bar (5.2e-11 to
    # 4.1e-10 of it), and the true flow within _TRUE_FLOW_GAP_TOL: the tail
    # continues the conjugacy's coordinate, so it follows the true orbit.
    # Measured relative to the gap, linear and true flow: (3,2,4) 1.3e-13
    # and 2.1e-14, (5,4,6) 7.3e-12 and 2.8e-14, (5,4,14) 2.7e-13 and 3.7e-14
    traj = spirals[triple]
    params = traj.params
    n, p = params.n, params.p
    s = traj.splice_index
    report = density_report(traj)
    hits = detect_phi_hits(traj, params.phi0)
    tail = [i for i, hit in enumerate(hits) if hit.t > traj.t[s]][:3]
    assert len(tail) == 3
    with mpmath.workdps(20):
        sol, phi0, lam2 = mpmath_orbit(traj, start=s)
        a = 2 * n * (mpmath.mpf(n) / params.big_k - 1)
        b = mpmath.mpf(-n - 1)
        alpha, omega = b / 2, mpmath.sqrt(-(b * b + 4 * a)) / 2
        u0, psi0, t_s = (mpmath.mpf(float(col[s])) for col in (traj.u, traj.psi, traj.t))

        def linear(t):
            tau = t - t_s
            decay, cos = mpmath.exp(alpha * tau), mpmath.cos(omega * tau)
            sin = mpmath.sin(omega * tau) / omega
            return (decay * (u0 * cos + (psi0 - alpha * u0) * sin),
                    decay * (psi0 * cos + (a * u0 + (b - alpha) * psi0) * sin))

        def integrand(state):
            u, psi = state
            phi = phi0 + u
            return (psi ** 2 * (1 + lam2 * phi * phi) ** (mpmath.mpf(p) / 2)
                    / (mpmath.sqrt(1 + (phi + psi) ** 2)
                       * (1 + phi * phi) ** (mpmath.mpf(n + 3) / 2)))

        def beyond(state):
            u, psi = state
            return ((abs(a) * u * u + psi * psi) / (2 * abs(b))
                    * (1 + lam2 * phi0 ** 2) ** (mpmath.mpf(p) / 2)
                    / (1 + phi0 ** 2) ** (mpmath.mpf(n + 4) / 2))

        step = 1 / (4 * abs(alpha))
        pieces = int(mpmath.ceil(max(mpmath.pi / omega, 12 / abs(alpha)) / step))
        for i in tail:
            cuts = [mpmath.mpf(hits[i].t) + k * step for k in range(pieces + 1)]
            gap = 10.0 ** report.log10_gaps[i]
            bar = 10.0 ** report.log10_gap_errors[i]
            for flow in (linear, sol):
                exact = (n + 1) * (mpmath.quad(lambda t: integrand(flow(t)), cuts,
                                               method="gauss-legendre") + beyond(flow(cuts[-1])))
                assert abs(gap - float(exact)) <= bar, (triple, i, flow)
            assert abs(gap - float(exact)) <= _TRUE_FLOW_GAP_TOL[triple] * gap, (triple, i)


def test_verdict_is_three_valued():
    gaps = np.array([-4.0, -9.0, -14.0])
    assert _verdict(gaps, gaps - 12.0) is True
    assert _verdict(gaps, np.array([-16.0, -9.0, -26.0])) is None
    assert _verdict(np.array([-4.0, -math.inf]), np.array([-16.0, -math.inf])) is False


def test_gap_cuts_outside_the_orbit_are_rejected(traj324):
    for t_cut in (traj324.t[0] - 1.0, traj324.t_end + 1.0):
        with pytest.raises(ValueError):
            gap_logs(traj324, [t_cut])


def test_gauss_legendre_rules():
    for k, weights in ((5, _GL_WEIGHTS[0]), (3, _GL_WEIGHTS[1])):
        x, w = np.polynomial.legendre.leggauss(k)
        used = weights > 0.0
        order = np.argsort(_GL_NODES[used])
        assert np.allclose(_GL_NODES[used][order], 0.5 + 0.5 * x, rtol=0.0, atol=1e-15)
        assert np.allclose(weights[used][order], 0.5 * w, rtol=0.0, atol=1e-15)
