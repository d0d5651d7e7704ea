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
    # a run cut at t_max ends its gaps with the closed-form tail from its
    # last state, which gap_logs on the cut run reads as density does; the
    # full run integrates that part.  Cut before the hand-off the run has no
    # conjugacy, and the bar is the tail itself.  Cut past it, where the
    # amplitude exceeds 1e-9, the bar covers the full run's gap (measured:
    # at most 0.27 of the bar, on (5,4,8); below that amplitude the full
    # run's own Hermite error of about 1e-9 dominates).  The worst ratio
    # must stay above half that, so the bar does not loosen unseen
    checked = before = 0
    worst = 0.0
    for triple, traj in spirals.items():
        params = traj.params
        t_hit = detect_phi_hits(traj, params.phi0)[0].t
        for t_max in (t_hit - 1.0, t_hit, t_hit + 1.0, t_hit + 3.0):
            cut = shoot_unstable_manifold(params, t_max=t_max)
            log_gap, log_err = (x[0] for x in gap_logs(cut, [t_max]))
            if cut.conjugacy is None:
                assert log_err == log_gap, (triple, t_max)
                before += 1
                continue
            if max(abs(cut.u[-1]), abs(cut.psi[-1])) < 1e-9:
                continue
            log_full = gap_logs(traj, [t_max])[0][0]
            ratio = abs(math.expm1(log_gap - log_full)) / math.exp(log_err - log_gap)
            assert ratio <= 1.0, (triple, t_max)
            worst = max(worst, ratio)
            checked += 1
    assert before >= 25 and checked >= 35  # 28 and 37 of the 68 cut runs
    assert worst >= 0.13


@pytest.mark.parametrize("params", [p for p in enumerate_admissible(31, 20)
                                    if p.stability is StabilityType.SPIRAL_TYPE_II],
                         ids=lambda p: str(p.triple()))
def test_carried_error_bar_covers_the_true_flow(params):
    # the tail from a coordinate w is the linear flow from L(w), while the
    # orbit from there is Phi(w e^{mu tau}) on P1's series.  At |w| from the
    # splice radius to 1e-4, 12 phases each, the bar must cover a 12-point
    # Gauss-Legendre quadrature along Phi(w e^{mu tau}) (pieces of 1/(4
    # |alpha|) until e^{alpha tau} = 1e-9, then x^T P x at P1) of the exact
    # integrand, and of psi^2 alone, the other factors held at P1, which
    # the bar's remainder term covers whatever they add (measured: at most
    # 0.46 and 0.42 of the bar, on (5,4,6)).  Each worst ratio must stay
    # above half the least measured (0.30 and 0.27, on (3,2,20)), so the
    # bar does not loosen unseen
    conj = p1_conjugacy(params)
    lin, mu = conj.lin, conj.lin.mu3
    n, p, phi0, lam2 = params.n, params.p, params.phi0, params.lambda_sq
    x, weights = np.polynomial.legendre.leggauss(12)
    step = 1.0 / (4.0 * abs(mu.real))
    edges = np.arange(0.0, math.log(1e-9) / mu.real + step, step)
    tau = (edges[:-1] + step / 2.0 * (1.0 + x[:, None])).ravel()
    g0 = (1.0 + lam2 * phi0 * phi0) ** (p / 2.0) / (1.0 + phi0 * phi0) ** ((n + 4.0) / 2.0)
    worst = [0.0, 0.0]
    for r in (conj.splice_radius(DEFAULT_REL_TOL), 1e-10, 1e-8, 1e-6, 1e-4):
        for w in r * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)):
            ws = w * np.exp(mu * np.append(tau, edges[-1]))
            u, psi = conj.states(ws, ws.conjugate())
            end = (abs(lin.a) * u[-1] ** 2 + psi[-1] ** 2) / (2.0 * abs(lin.b))
            phi = phi0 + u[:-1]
            factors = ((1.0 + lam2 * phi * phi) ** (p / 2.0)
                       / (np.sqrt(1.0 + (phi + psi[:-1]) ** 2) * (1.0 + phi * phi) ** ((n + 3.0) / 2.0)))
            log_tail, log_err = (float(v[0]) for v in _tail_logs(
                params, *_linear_flow(lin, w, np.zeros(1)), conj))
            for k, f in enumerate((factors / g0, 1.0)):
                integral = (step / 2.0 * weights @ (psi[:-1] ** 2 * f).reshape(12, -1)).sum()
                ratio = abs(math.expm1(math.log((integral + end) * g0) - log_tail))
                ratio /= math.exp(log_err - log_tail)
                assert ratio <= 1.0, (r, w, k)
                worst[k] = max(worst[k], ratio)
    assert worst[0] >= 0.15 and worst[1] >= 0.13, worst


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
    # 20-digit references from the splice time t_s: the integral of the gap
    # integrand along the exact linear flow (J from the exact parameters)
    # of the stored coordinate w_s, the flow the tail continues, from
    # (Re w_s, Re mu w_s); and along the true flow (mpmath odefun) from the
    # splice sample Phi(w_s).  Each is Gauss-Legendre on pieces of
    # 1/(4|alpha|) from the cut over max(pi/omega, 12/|alpha|), plus the
    # closed form x^T P x at P1 beyond (e^{-24} of the gap).  Both must lie
    # within the gap's bar (1.5e-13 to 1.3e-11 of it), and the true flow
    # within _TRUE_FLOW_GAP_TOL: the tail continues the conjugacy's
    # coordinate, so it follows the true orbit.  Measured relative to the
    # gap, linear and true flow: (3,2,4) 1.8e-14 and 1.8e-14, (5,4,6)
    # 4.1e-14 and 4.8e-14, (5,4,14) 3.4e-14 and 3.9e-14
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
        w, t_s = traj.tail_coordinate, mpmath.mpf(float(traj.t[s]))
        u0, psi0 = mpmath.mpf(w.real), alpha * w.real - omega * w.imag

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


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20)])
def test_deep_gaps_match_an_exact_evaluation(triple, spirals):
    # the last three gaps, the closed form (n + 1) x^T P x times the other
    # factors at P1 at the tail's state L(w), w = w_s e^{mu (t - t_s)},
    # against the same closed form at 40 digits from the same float inputs
    # (w_s, t_s, the hit times, mu, a, b, phi0 and lambda^2): the float
    # evaluation is off by its rounding alone (measured: 1.4e-14 to 3.0e-13
    # relative, the largest on (5,4,20)), which the bar's rounding term must
    # cover, as its remainder and variation terms are below 1e-240 of the
    # gap there (the bars measured 9.2e-13 to 2.4e-12 of the gap)
    traj = spirals[triple]
    params, s = traj.params, traj.splice_index
    lin = traj.conjugacy.lin
    report = density_report(traj)
    hits = detect_phi_hits(traj, params.phi0)
    assert hits[-3].t > traj.t[s]
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        mu = mpmath.mpc(lin.mu3.real, lin.mu3.imag)
        w_s, t_s = mpmath.mpc(traj.tail_coordinate), mpf(float(traj.t[s]))
        phi0, lam2 = mpf(params.phi0), mpf(params.lambda_sq)
        factors = ((1 + lam2 * phi0 ** 2) ** (mpf(params.p) / 2)
                   / (1 + phi0 ** 2) ** (mpf(params.n + 4) / 2))
        for i in range(len(hits) - 3, len(hits)):
            w = w_s * mpmath.exp(mu * (mpf(hits[i].t) - t_s))
            u, psi = mpmath.re(w), mpmath.re(mu * w)
            exact = ((params.n + 1) * (-mpf(lin.a) * u * u + psi * psi) / (-2 * mpf(lin.b))
                     * factors)
            distance = abs(mpf(10) ** report.log10_gaps[i] / exact - 1)
            assert distance <= mpf(10) ** (report.log10_gap_errors[i] - report.log10_gaps[i]), i


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
