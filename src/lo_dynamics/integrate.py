"""Shooting the unstable manifold of the saddle (0,0) of the reduced system,
in three stretches: the launch series, the DP5 transit and P1's series.

The connecting orbit leaves the saddle along the eigenvector V1 = (1, k-1)
and limits to the equilibrium (phi0, 0).  The spiral case contracts by a
factor exp(Re(mu3) * pi / Im(mu3)) per half-oscillation, which for (3,2,4)
is about 3.6e-3: after ten crossings the distance to the equilibrium is
far below the resolution of phi as a float.  Every stretch therefore keeps
the deviation u = phi - phi0 instead of phi itself, with f1(phi)*phi
evaluated in the cancellation-free factored form, so the inward spiral
stays accurate relative to its own amplitude down to ~1e-290.

The launch: near the saddle the orbit is P(s), s = e^{(k-1)t}, the series
of dynsys.unstable_manifold_series, sampled from s = _LAUNCH_START =
1e-6 to s0 = _LAUNCH_END = 0.1 (_launch), with the field at each sample.
No step error enters there.  The orbit is one up to a shift in t, so the
launch has no setting: _LAUNCH_START only sets where its samples begin.

The DP5 transit: an embedded Dormand-Prince 5(4) pair with PI step-size
control against the purely relative error scale rel_tol * max(|u|,
|psi|), from P(s0).  The field is dynsys.offset_field, a scalar closure
returning dpsi/dt; du/dt is psi itself, so each stage's u-derivative is
that stage's psi argument.  Each attempted step calls the field 6 times:
the 7th stage, taken at the 5th-order solution, is the first stage of the
next step (FSAL), so the transit makes 1 + 6 x attempts calls.

P1's series: DP5 hands off at the first accepted state of max-norm below
_SERIES_AMPLITUDE = 1e-1 where the estimated invariance defect of
dynsys.p1_conjugacy's series at the state's own coordinates (|z1|, |z2|)
(P1Conjugacy.defect) is at most min(rel_tol, 1e-10)/10 of the state
(_SERIES_REL_TOL), at a spiral P1 and at a node (type I) alike.  From
there the orbit is one closed form in the coordinates (z1* e^{mu3 tau},
z2* e^{mu4 tau}) of P1's conjugacy, (z1*, z2*) by Newton's method from
the hand-off state (_closed_form): the series, with the field at each
sample, on a grid no coarser than DP5's steps there, spaced by |mu4| at
a node while its fast mode is above rel_tol/10 of the slow one.  A
node's series runs past its first sample with hypot(u, psi) below
_TYPE_I_STOP, the run's end.  A spiral's runs
down to its first sample with |w| inside the conjugacy's splice radius,
where the series' nonlinear terms are at most rel_tol/10 of the linear
part (the splice); then that linear part (Re w, Re mu w) of w = z1* e^{mu3
tau}, once per quarter-turn of w's phase with each psi zero in the middle
of its sample segment, so that the zeros equal the sample sign changes
(the tail).  Trajectory keeps the conjugacy, the splice index and w there.

The end rules are written once (_run_end), one cut over all of a run's
samples, tested at each in this order: max-norm below _DEEP_FLOOR or, at
a node, hypot(u, psi) below _TYPE_I_STOP (converged_to_p1);
max_crossings strict psi sign changes counted from the launch
(max_crossings); t_max (max_time).  The first sample where one holds is
the run's last; where none holds, the last sample is, converged_to_p1.
The DP5 loop only integrates, to t_max or the hand-off.

A run fails when |phi| exceeds 1e3 phi0 at DP5's start or at an accepted
step, or when a rejected step falls below 1e-13/(k-1).  The bound is on
phi alone, as the orbit's peak |psi| grows with k while its peak phi stays
bounded (1.435 for (3,2,k)); the floor follows the saddle's time scale 1/(k-1).

Trajectory.stats records the launch samples, the accepted and rejected
DP5 steps, the field evaluations of the transit (1 + 6 per attempt), the
smallest and largest accepted step and the numbers of series and
closed-form tail samples, of the run as kept.
Dense output is cubic Hermite on (value, slope) at the samples, of every
stretch alike (_hermite), on the segment the one segment rule
picks (_segments); events are refined by bisection on the interpolant of
the segment that holds them, to 1e-12 in t.  Past the splice, where the
quarter-turn samples leave the cubic far from the flow, psi zeros and
phi0 hits come from w's phase instead, and hits of any other phi by
bisection on the linear part between its u extrema.  state_at reads the
state at any time of a run, the dense output up to the splice and Phi(w)
past it; the densities (analysis) read it.
The tests check this path against a classical fixed-step RK4 in plain
(phi, psi) coordinates (tests/oracles.py), which shares no code with it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynsys import (P1Conjugacy, P1Linearization, offset_field, p1_conjugacy,
                     unstable_manifold_series)
from .errors import IntegrationFailure
from .params import LomseParams, StabilityType

# Dormand-Prince 5(4) tableau. Row 7 equals the 5th-order weights (FSAL).
# The field is autonomous, so the nodes c_i are not needed.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

DEFAULT_REL_TOL = 1e-10
DEFAULT_T_MAX = 400.0
DEFAULT_MAX_CROSSINGS = 40
EVENT_TOL = 1e-12
_H_MAX = 0.5
_H_MIN = 1e-13  # over k - 1, the saddle's time scale
_DEEP_FLOOR = 1e-290  # snap to the equilibrium before subnormal thrashing
_TYPE_I_STOP = 1e-8  # a real-eigenvalue run ends once hypot(u, psi) is below this
_BLOWUP_FACTOR = 1e3
_SERIES_AMPLITUDE = 1e-1  # a run may leave DP5 for the P1 series below this
# the hand-off's defect budget is min(rel_tol, _SERIES_REL_TOL)/10 of the
# state: the series costs the same at any accuracy, so a loose rel_tol
# coarsens DP5's steps but not the series (at rel_tol 1e-6 a budget of
# rel_tol/10 left the series 4.8e-9 off a rel_tol 1e-14 run on (5,4,20))
_SERIES_REL_TOL = 1e-10
_LAUNCH_START = 1e-6  # the launch series' samples begin at s = e^{(k-1)t} = this
_LAUNCH_END = 0.1  # s0: they end at s0, DP5's start
_LAUNCH_ORDER = 99  # the launch series' order at most
_EPS = float(np.finfo(float).eps)
# the launch and series samples' spacing times |mu| / rel_tol^(1/5), mu the
# eigenvalue of the stretch (k - 1, mu3); DP5's mean step over the P1
# series stretch from the hand-off at amplitude 1e-1 measured down to 2.83
# on the (31, 20) table at the default rel_tol, on (31,28,2), where its
# steps are held near |mu4| h = 1 by its own stiff mode
_SERIES_STEP = 2.75


class Termination(enum.Enum):
    CONVERGED_TO_P1 = "converged_to_p1"
    MAX_TIME = "max_time"
    MAX_CROSSINGS = "max_crossings"


def _hermite(t, t0, t1, y0, y1, m0, m1):
    """Cubic Hermite value at t on [t0, t1] from endpoint values and slopes."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * m0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * m1
    )


def _segments(knots: np.ndarray, q):
    """Index i of the segment [knots[i], knots[i + 1]] that holds each point
    of q: the last knot falls in the last segment, and points outside the
    span in the end segments."""
    return np.clip(np.searchsorted(knots, q, side="right") - 1, 0, len(knots) - 2)


def _strict_sign_change(v: np.ndarray) -> np.ndarray:
    """Mask of i with v[i] and v[i + 1] of strictly opposite signs.

    The product test v[i] * v[i + 1] < 0 misses sign changes once the
    product underflows to zero (amplitudes below about 1e-162); comparing
    signs does not.  A zero sample is no sign change, as with the product.
    """
    a, b = v[:-1], v[1:]
    return ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))


def _bisect(fn, ta, tb, fa, fb, tol=EVENT_TOL):
    """Bracketed bisection for a sign change of fn on [ta, tb]; tol=0.0 runs
    until ta and tb are adjacent floats."""
    while tb - ta > tol:
        tm = 0.5 * (ta + tb)
        if tm <= ta or tm >= tb:
            break
        fm = fn(tm)
        if fm == 0.0:
            return tm
        if (fa < 0.0) != (fm < 0.0):
            tb, fb = tm, fm
        else:
            ta, fa = tm, fm
    return 0.5 * (ta + tb)


@dataclass(frozen=True)
class PsiZero:
    """A refined zero of psi: time, slope value there, and sign of dpsi/dt."""

    t: float
    phi: float
    phi_offset: float  # phi - phi0 at full relative precision
    direction: int


@dataclass(frozen=True)
class PhiHit:
    """A refined solution of phi(t) = target with its dilation d = e^t."""

    t: float
    dilation: float


@dataclass(frozen=True)
class StepStats:
    """Work done by one integration run, up to its last sample: steps and
    samples the run computed past its end before the cut found it
    (_run_end) do not count.

    accepted and rejected count DP5 steps only.  rhs_evals counts 6 field
    evaluations per attempted step plus the one at the start (FSAL); an
    attempt cut short by an overflowing stage counts in full.  h_min and
    h_max are the smallest and largest accepted DP5 steps, None when no
    step was accepted.  launch_samples counts the samples of the saddle's
    series past the first, the last being DP5's start.  series_samples and
    tail_samples count the samples of the closed form that follow the DP5
    steps: the P1 series' up to a spiral's splice or to a node's end, then
    a spiral's linear part, one per quarter-turn of w's phase (each 0 when
    the run never reached it; tail_samples is 0 at a node).
    """

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None
    launch_samples: int
    series_samples: int
    tail_samples: int


@dataclass(frozen=True)
class CrossingReport:
    target: float
    psi_zeros: list[PsiZero]
    phi_hits: list[PhiHit]


class Trajectory:
    """Dense, ordered output of one integration run.

    Stores (t_i, u_i, psi_i) at every sample, the launch series' samples,
    the DP5 steps, then the P1 series samples and a spiral run's linear
    tail samples, together with
    the psi derivative, so the Hermite dense output reads (u, psi) with slopes
    (psi, dpsi) between samples.  phi values are reconstructed as phi0 + u;
    the offsets keep full relative precision long after phi0 + u rounds to
    phi0.  Completed trajectories are immutable.  `stats` counts the work
    (StepStats); splice_index is the index of the last sample before the
    linear tail, the last sample when there is none.  tail_coordinate is w
    there, whose linear part the tail samples; None exactly without a tail.
    conjugacy is the run's P1Conjugacy, None without a series sample.
    """

    def __init__(self, params, t, u, psi, dpsi, rel_tol, terminated_by,
                 rejected=0, tail_samples=0, series_samples=0, tail_coordinate=None,
                 conjugacy=None, launch_samples=0):
        self.params, self.rel_tol = params, rel_tol
        self.terminated_by, self.tail_coordinate = terminated_by, tail_coordinate
        self.conjugacy = conjugacy
        columns = [np.asarray(x, dtype=float) for x in (t, u, psi, dpsi)]
        for arr in columns:
            arr.setflags(write=False)
        self.t, self.u, self.psi, self.dpsi = columns
        steps = np.diff(self.t)
        if not np.all(steps > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not all(np.all(np.isfinite(arr)) for arr in columns):
            raise ValueError("trajectory states must be finite")
        if (tail_coordinate is None) != (tail_samples == 0) or (tail_samples and conjugacy is None):
            raise ValueError("a trajectory has a tail coordinate exactly when it has a tail, "
                             "and a tail needs its conjugacy")
        self.splice_index = len(steps) - tail_samples
        accepted = self.splice_index - series_samples - launch_samples
        dp5_steps = steps[launch_samples:launch_samples + accepted]
        self.stats = StepStats(
            accepted=accepted,
            rejected=rejected,
            rhs_evals=1 + 6 * (accepted + rejected),
            h_min=float(dp5_steps.min()) if accepted else None,
            h_max=float(dp5_steps.max()) if accepted else None,
            launch_samples=launch_samples,
            series_samples=series_samples,
            tail_samples=tail_samples,
        )

    def __len__(self) -> int:
        return len(self.t)

    @property
    def phi(self) -> np.ndarray:
        return self.params.phi0 + self.u

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


def _linear_flow(lin: P1Linearization, z, tau):
    """(u, psi) = exp(J tau) x at the times tau, an array, from the state x
    of coordinate z (P1Linearization): (Re w, Re mu w), w = z e^{mu tau}."""
    w = z * np.exp(lin.mu3 * tau)
    return w.real, (lin.mu3 * w).real


def state_at(traj: Trajectory, t) -> tuple[np.ndarray, np.ndarray]:
    """(u, psi) of the run at the times t (an array) in its span: up to the
    splice time the Hermite cubic of the segment that holds each time (the
    dense output), past it the orbit the tail stands for, Phi(w, conj w)
    of P1's conjugacy at w = w_s e^{mu (t - t_s)}, w_s the tail coordinate.
    The run ends at the _DEEP_FLOOR, so floats hold every state it reads."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((traj.t[0] <= t) & (t <= traj.t[-1])):
        raise ValueError(f"times must lie in the trajectory span [{traj.t[0]}, {traj.t[-1]}]")
    i = _segments(traj.t, t)
    t0, t1 = traj.t[i], traj.t[i + 1]
    u = _hermite(t, t0, t1, traj.u[i], traj.u[i + 1], traj.psi[i], traj.psi[i + 1])
    psi = _hermite(t, t0, t1, traj.psi[i], traj.psi[i + 1], traj.dpsi[i], traj.dpsi[i + 1])
    t_s = traj.t[traj.splice_index]
    tail = t > t_s
    if traj.tail_coordinate is not None and tail.any():
        w = traj.tail_coordinate * np.exp(traj.conjugacy.lin.mu3 * (t[tail] - t_s))
        u[tail], psi[tail] = traj.conjugacy.states(w, w.conjugate())
    return u, psi


def _flow_zeros(lin: P1Linearization, z, row, span):
    """The tau in (0, span), increasing, where one row (0: u, 1: psi) of the
    flow from the state of coordinate z vanishes: Re(w e^{mu tau}) = 0, w =
    z or mu z, at omega tau = pi/2 - arg w + j pi, j an integer."""
    omega, w = lin.mu3.imag, lin.mu3 * z if row else z
    theta = math.pi / 2.0 - math.atan2(w.imag, w.real)
    j = np.arange(math.floor(-theta / math.pi) + 1, math.ceil((omega * span - theta) / math.pi))
    return (theta + j * math.pi) / omega


def _run_end(t, u, psi, t_max, max_crossings, node):
    """(i, reason): the index of a run's last sample and why it ends there,
    over all its columns, DP5 steps and closed-form samples together.

    The end rules, tested at each sample in this order: max-norm below
    _DEEP_FLOOR or, at a node, hypot(u, psi) below _TYPE_I_STOP
    (CONVERGED_TO_P1); max_crossings strict sign changes of psi counted from
    the first sample (MAX_CROSSINGS); t at or past t_max (MAX_TIME).  The
    first sample where one holds ends the run.  Where none holds, the last
    sample does, CONVERGED_TO_P1: a tail sampled to its floor bound.
    """
    converged = np.maximum(np.abs(u), np.abs(psi)) < _DEEP_FLOOR
    if node:
        converged |= np.hypot(u, psi) < _TYPE_I_STOP
    crossed = np.concatenate(([False], np.cumsum(_strict_sign_change(psi)) >= max_crossings))
    rules = np.stack((converged, crossed, t >= t_max))
    ends = np.flatnonzero(rules.any(axis=0))
    if not len(ends):
        return len(t) - 1, Termination.CONVERGED_TO_P1
    stop = int(ends[0])
    return stop, (Termination.CONVERGED_TO_P1, Termination.MAX_CROSSINGS,
                  Termination.MAX_TIME)[int(np.argmax(rules[:, stop]))]


def _closed_form(params, conj: P1Conjugacy, t0, u0, psi0, t_max, rel_tol):
    """The orbit past the hand-off state (u0, psi0) at t0 in the coordinates
    (w1, w2) = (z1 e^{mu3 tau}, z2 e^{mu4 tau}) of P1's conjugacy, (z1, z2) =
    conj.invert(u0, psi0): (t, u, psi, dpsi, series samples, w1 at the
    splice or None).

    The series samples Phi(w1, w2), with the field at each (offset_field
    on the arrays), at tau = i h, h = _SERIES_STEP rel_tol^(1/5) / |mu3|;
    at a node first at steps of h |mu3| / |mu4| while the fast mode |z2
    e^{mu4 tau}| is above rel_tol/10 of |z1 e^{mu3 tau}|, then at steps of
    h.  They run up to the splice (t_s, w_s): at a spiral the first sample
    short of t_max with |w1| below conj.splice_radius; a node has none.  At
    a spiral the tail samples the linear part L(w) = (Re w, Re mu w) of w =
    w_s e^{mu tau} past t_s, with dpsi = a u + b psi, at tau = tau1 + (i -
    1/2) q, q = pi / (2 omega), tau1 the first psi zero (_flow_zeros), so each
    psi zero sits mid-segment.  In each part t_max takes the place of the
    first sample at or past it.  The samples reach past the run's end,
    which the cut over the whole run (_run_end) finds: the series to the
    first sample past t_max or the splice or, at a node, past where its
    bound conj.bound(|z|, 1) e^{Re mu3 tau}, |z| = max(|z1|, |z2|), falls
    below _TYPE_I_STOP / sqrt(2); the tail to the first past t_max or where
    its bound e^{alpha tau} lin.envelope(w_s) falls below _DEEP_FLOOR.
    """
    lin, mu = conj.lin, conj.lin.mu3

    def until_t_max(start, tau):  # (t, tau), t_max taking the place of the first t at or past it
        t = start + tau
        if t[-1] >= t_max:
            t, tau = np.append(t[t < t_max], t_max), np.append(tau[t < t_max], t_max - start)
        return t, tau

    h = _SERIES_STEP * rel_tol ** 0.2 / abs(mu)
    z1, z2 = conj.invert(u0, psi0)
    size = max(abs(z1), abs(z2))
    radius = conj.splice_radius(rel_tol) if lin.spiral else 0.0
    fall = size / radius if lin.spiral else math.sqrt(2.0) * conj.bound(size, 1) / _TYPE_I_STOP
    span = min(math.log(fall) / -mu.real, t_max - t0)
    # at a node, spaced by |mu4| while |z2 e^{mu4 tau}| > rel_tol/10 |z1 e^{mu3 tau}|
    share = abs(z2) / (rel_tol / 10.0 * abs(z1)) if z1 else math.inf
    fast = 0.0 if lin.spiral or share <= 1.0 else min(math.log(share) / (mu - lin.mu4).real, span)
    h_fast = h * abs(mu) / abs(lin.mu4)
    tau = h_fast * np.arange(1, math.ceil(fast / h_fast) + 1)
    last = float(tau[-1]) if len(tau) else 0.0
    tau = np.concatenate((tau, last + h * np.arange(1, max(math.floor((span - last) / h), 0) + 2)))
    t, tau = until_t_max(t0, tau)
    w = z1 * np.exp(mu * tau)
    u, psi = conj.states(w, z2 * np.exp(lin.mu4 * tau))
    splice = np.flatnonzero((np.abs(w) < radius) & (t < t_max))
    s, w_s = len(t), None
    if len(splice):
        s = int(splice[0]) + 1
        t_s, w_s, q = float(t[s - 1]), complex(w[s - 1]), math.pi / (2.0 * mu.imag)
        tau1 = float(_flow_zeros(lin, w_s, 1, 4.0 * q)[0])
        tau_floor = math.log(_DEEP_FLOOR / lin.envelope(w_s)) / mu.real
        last = math.ceil((min(t_max - t_s + q, tau_floor) - tau1) / q + 0.5)
        tau = tau1 + (np.arange(-1, last + 1) - 0.5) * q  # reaching q past t_max, not short of it
        tail_t, tau = until_t_max(t_s, tau[t_s + tau > t_s])
        t = np.concatenate((t[:s], tail_t))
        u, psi = (np.concatenate((x[:s], y))
                  for x, y in zip((u, psi), _linear_flow(lin, w_s, tau)))
    dpsi = np.concatenate((offset_field(params)(u[:s], psi[:s]),
                           lin.a * u[s:] + lin.b * psi[s:]))
    return t, u, psi, dpsi, s, w_s


def _advance(params, launch, t_max, rel_tol, max_crossings=math.inf) -> Trajectory:
    """Adaptive DP5(4) driver in deviation coordinates, then the closed
    form, cut at the run's end: the run's Trajectory.  The launch columns
    (t, u, psi, dpsi) are its first samples; DP5 starts from their last
    state, the field there being its first stage (dpsi holds the others').

    Error is measured against rel_tol * |state|, where |state| is the
    max-norm over both components and over the step's two end states;
    using the joint norm keeps the scale well defined when psi passes
    through zero.

    The field is the scalar dpsi/dt of offset_field; each stage's du/dt is
    that stage's psi argument.  An attempt makes 6 field calls, the 7th
    stage at the 5th-order solution being the next attempt's first (FSAL).

    The loop only integrates: it lands on t_max, or leaves at the hand-off,
    the first accepted state short of t_max with max-norm below
    _SERIES_AMPLITUDE where the P1 series' estimated defect at the state's
    own coordinates (dynsys.P1Conjugacy.defect at |z1|, |z2|, by their
    linear guess) is at most min(rel_tol, _SERIES_REL_TOL)/10 of the
    state, that taken as its linear part's least max-norm
    (P1Linearization.least), from which the closed form (_closed_form)
    continues.  The series is built at the first state below
    _SERIES_AMPLITUDE, not before.  One cut over all the samples
    (_run_end), the node rule applying at a type-I P1, then keeps the run
    up to its end; its stats count the rejected steps that led to
    kept samples, and it keeps w at the splice (None without a kept tail)
    and the conjugacy handed off to (None without a kept series sample).
    """
    dpsi = offset_field(params)
    series_at = _SERIES_AMPLITUDE
    conj = None
    h_floor = _H_MIN / (params.k - 1)
    phi0 = params.phi0
    blowup_at = _BLOWUP_FACTOR * phi0
    t, u, psi = (float(column[-1]) for column in launch[:3])
    if abs(phi0 + u) > blowup_at:
        raise IntegrationFailure(
            f"initial state lies outside the bounded region for "
            f"(n,p,k)=({params.n},{params.p},{params.k})"
        )

    # the tableau's nonzero entries, named once; A[6] holds the 5th-order weights
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    inf = math.inf

    ts = [t]
    us = [u]
    psis = [psi]
    k1p = dpsi(u, psi)
    dpsis = [k1p]
    ts_append, us_append = ts.append, us.append
    psis_append, dpsis_append = psis.append, dpsis.append

    amp = max(abs(u), abs(psi))  # max-norm of the accepted state, carried forward
    h = 1e-3
    err_prev = 1.0
    rejections = []  # per rejected attempt, the index of the sample it aimed at
    # PI controller exponents for an order-4 error estimate
    alpha, beta = 0.17, 0.04

    while t < t_max:
        # clamp the final step and land on t_max exactly
        remaining = t_max - t
        is_last = h >= remaining
        if is_last:
            h = remaining

        # one embedded step; k1u is psi, each later ku the psi argument of
        # its stage; an overflowing stage counts as an infinite error
        try:
            k2u = psi + h * (a21 * k1p)
            k2p = dpsi(u + h * (a21 * psi), k2u)
            k3u = psi + h * (a31 * k1p + a32 * k2p)
            k3p = dpsi(u + h * (a31 * psi + a32 * k2u), k3u)
            k4u = psi + h * (a41 * k1p + a42 * k2p + a43 * k3p)
            k4p = dpsi(u + h * (a41 * psi + a42 * k2u + a43 * k3u), k4u)
            k5u = psi + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p)
            k5p = dpsi(u + h * (a51 * psi + a52 * k2u + a53 * k3u + a54 * k4u), k5u)
            k6u = psi + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p + a65 * k5p)
            k6p = dpsi(u + h * (a61 * psi + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
                       k6u)
            u_new = u + h * (b1 * psi + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
            psi_new = psi + h * (b1 * k1p + b3 * k3p + b4 * k4p + b5 * k5p + b6 * k6p)
            # stage 7 is the field at the 5th-order solution: next step's k1 (FSAL)
            k7p = dpsi(u_new, psi_new)
        except OverflowError:
            err = inf
        else:
            # comparisons in place of abs, max and isfinite, each giving the
            # same result on NaN; a non-finite new state or FSAL stage gets
            # err = inf
            amp_new = u_new if u_new >= 0.0 else -u_new
            abs_psi = psi_new if psi_new >= 0.0 else -psi_new
            if amp_new < inf and abs_psi < inf and -inf < k7p < inf:
                if abs_psi > amp_new:
                    amp_new = abs_psi
                scale = rel_tol * (amp_new if amp_new > amp else amp)
                if not 0.0 < scale < inf:
                    scale = 5e-324
                err_u = (e1 * psi + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u
                         + e7 * psi_new) * h
                err_p = (e1 * k1p + e3 * k3p + e4 * k4p + e5 * k5p + e6 * k6p + e7 * k7p) * h
                if err_u < 0.0:
                    err_u = -err_u
                if err_p < 0.0:
                    err_p = -err_p
                err = (err_p if err_p > err_u else err_u) / scale
            else:
                err = inf

        if err <= 1.0:
            # accept
            if err == 0.0:
                fac = 10.0
            else:
                fac = 0.9 * err ** (-alpha) * err_prev ** beta
                if fac > 10.0:
                    fac = 10.0
            err_prev = 1e-4 if 1e-4 > err else err
            t = t_max if is_last else t + h
            u, psi, amp = u_new, psi_new, amp_new
            k1p = k7p
            ts_append(t)
            us_append(u)
            psis_append(psi)
            dpsis_append(k7p)

            if abs(phi0 + u) > blowup_at:
                raise IntegrationFailure(
                    f"state left the bounded region at t={t:.6g} for "
                    f"(n,p,k)=({params.n},{params.p},{params.k})"
                )
            if amp < series_at and t < t_max:
                if conj is None:
                    conj = p1_conjugacy(params)
                    bound = min(rel_tol, _SERIES_REL_TOL) / 10.0 * conj.lin.least
                z1, z2 = conj.lin.coordinates(u, psi)
                r1, r2 = abs(z1), abs(z2)
                if conj.defect(r1, r2) <= bound * (r1 if r1 > r2 else r2):
                    break  # the hand-off
            h *= fac
            if h > _H_MAX:
                h = _H_MAX
        else:
            rejections.append(len(ts))
            shrink = 0.9 * err ** -0.2
            h *= shrink if shrink > 0.2 else 0.2
            err_prev = 1.0
            if h < h_floor:
                raise IntegrationFailure(f"step size underflow at t={t:.6g}")

    head = len(launch[0]) - 1  # launch samples before DP5's start
    a = head + len(ts) - 1  # the last DP5 state, the hand-off state when there is one
    columns = [np.concatenate((x, y)) for x, y in zip((*(c[:-1] for c in launch[:3]), launch[3]),
                                                        (ts, us, psis, dpsis))]
    s, w_s = 0, None
    if t < t_max:  # the loop left at the hand-off
        *samples, s, w_s = _closed_form(params, conj, t, u, psi, t_max, rel_tol)
        columns = [np.concatenate(pair) for pair in zip(columns, samples)]
    stop, reason = _run_end(*columns[:3], t_max, max_crossings,
                            params.stability is StabilityType.CENTER_TYPE_I)
    series, tail = min(max(stop - a, 0), s), max(stop - a - s, 0)
    return Trajectory(params, *(column[:stop + 1] for column in columns), rel_tol, reason,
                      sum(head + i <= stop for i in rejections), tail, series,
                      w_s if tail else None, conj if series else None, min(stop, head))


def _launch(params, rel_tol):
    """The launch columns (t, u, psi, dpsi): the saddle's unstable manifold
    P(s) = (phi(s), psi(s)), s = e^{(k-1)t}, from its series
    (dynsys.unstable_manifold_series), at log s = log _LAUNCH_START + i H,
    H = _SERIES_STEP max(rel_tol, 2^-52)^(1/5), the P1 series' spacing rule
    in t (rounding bounds the grid), up to s = _LAUNCH_END; dpsi holds the
    field at each sample but the last, DP5's start, whose field is DP5's
    first stage.

    The series' order is the first at which two odd terms in a row fall
    below 2^-53 of the first at s = _LAUNCH_END.  A triple whose series
    does not so converge by _LAUNCH_ORDER, (31,1,2) among them, is refused
    (ValueError).
    """
    mu1 = float(params.k - 1)
    x = unstable_manifold_series(params, _LAUNCH_ORDER, _LAUNCH_END)
    if len(x) > _LAUNCH_ORDER // 2:
        raise ValueError(f"({params.n},{params.p},{params.k}): the saddle's series, which "
                         f"launches each run, does not reach s0 = {_LAUNCH_END}")
    lo, hi = math.log(_LAUNCH_START), math.log(_LAUNCH_END)
    step = _SERIES_STEP * max(rel_tol, _EPS) ** 0.2
    ls = lo + step * np.arange(math.ceil((hi - lo) / step))
    ls = np.append(ls[ls < hi], hi)
    s = np.exp(ls)
    s2 = s * s
    odd = np.arange(1, 2 * len(x), 2)
    phi = s * np.polyval(x[::-1], s2)
    psi = mu1 * s * np.polyval((odd * x)[::-1], s2)
    u = phi - params.phi0
    return ls / mu1, u, psi, offset_field(params)(u[:-1], psi[:-1])


def shoot_unstable_manifold(params: LomseParams,
                            t_max: float = DEFAULT_T_MAX,
                            max_crossings: int = DEFAULT_MAX_CROSSINGS,
                            rel_tol: float = DEFAULT_REL_TOL) -> Trajectory:
    """Launch on the saddle's unstable manifold and integrate forward, in
    three stretches: the launch series, the DP5 transit and P1's series.

    The orbit near the saddle is P(s), s = e^{(k-1)t}, phi(s) = s/|V1| +
    O(s^3): the launch samples it from s = _LAUNCH_START = 1e-6 to s0 =
    _LAUNCH_END = 0.1 (_launch), and DP5 starts from P(s0), with no error
    of its own there.  The connecting orbit is unique up to a shift in t,
    so no setting moves the launch.

    The run ends by the end rules (_run_end): distance to (phi0, 0) below
    _TYPE_I_STOP = 1e-8 for the real-eigenvalue type, a fixed sampling end
    rather than a setting; max_crossings psi sign changes for the spiral
    type; t_max otherwise.  Every run continues on P1's series past the
    hand-off, and a spiral run on its linear part past the splice
    (_closed_form).  rel_tol and t_max must be positive and finite and
    max_crossings at least 1; each setting is checked whichever type drops
    it.  A k so large that the launch's first sample rounds onto the saddle
    once phi is written as phi0 + u (from k = 10^10) is refused.
    """
    for name, value in (("rel_tol", rel_tol), ("t_max", t_max)):
        if not 0.0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if max_crossings < 1:
        raise ValueError("max_crossings must be at least 1")
    launch = _launch(params, rel_tol)
    if params.phi0 + launch[1][0] == 0.0:
        raise ValueError(f"k={params.k} is too large: the launch at s = {_LAUNCH_START} "
                         "rounds onto the saddle")
    type_one = params.stability is StabilityType.CENTER_TYPE_I
    return _advance(params, launch, t_max, rel_tol, math.inf if type_one else max_crossings)


def _level_crossings(traj: Trajectory, y, m, level: float, row: int):
    """(i, t*) for each crossing of level by y, the state's row row (0: u,
    1: psi), with t* in segment i; increasing t.

    Before the splice index s = splice_index, each strict sign change of
    y - level is bisected on its segment's Hermite cubic through (y, m).
    Past it they come from the tail's linear flow from traj.tail_coordinate,
    whatever the sample spacing: at level 0 the zeros of the row in closed
    form (_flow_zeros), the last segment's as its samples' signs say; at
    any other level on u, each sign change of u - level between consecutive
    extrema of u, the psi zeros, between which u is monotone, bisected on
    _linear_flow's u row.  One sample segment may hold several of them.
    """
    t = traj.t
    g = y - level
    i = np.flatnonzero(_strict_sign_change(g[:traj.splice_index + 1]))
    out = []
    for k in i.tolist():
        t0, t1 = float(t[k]), float(t[k + 1])
        y0, y1, m0, m1 = float(y[k]), float(y[k + 1]), float(m[k]), float(m[k + 1])
        out.append((k, _bisect(lambda x: _hermite(x, t0, t1, y0, y1, m0, m1) - level,
                               t0, t1, float(g[k]), float(g[k + 1]))))
    s, z = traj.splice_index, traj.tail_coordinate
    if z is None:
        return out
    lin, t_s = traj.conjugacy.lin, float(t[s])
    span = float(t[-1]) - t_s
    if level == 0.0:
        taus = _flow_zeros(lin, z, row, span)
        # a last sample placed on a zero (t_max) has that zero's sign only to
        # rounding: the sign of y there, not the closed form, decides
        in_last = bool(len(taus)) and taus[-1] > t[-2] - t_s
        if _strict_sign_change(y[-2:])[0] != in_last:
            taus = taus[:-1] if in_last else np.append(taus, span)
    else:
        ends = np.concatenate(([0.0], _flow_zeros(lin, z, 1, span), [span]))
        ge = _linear_flow(lin, z, ends)[0] - level
        taus = np.array([_bisect(lambda x: float(_linear_flow(lin, z, x)[0]) - level,
                                 float(ends[k]), float(ends[k + 1]), float(ge[k]), float(ge[k + 1]))
                         for k in np.flatnonzero(_strict_sign_change(ge)).tolist()])
    times = t_s + taus
    return out + list(zip(_segments(t, times).tolist(), times.tolist()))


def detect_psi_zeros(traj: Trajectory) -> list[PsiZero]:
    """Every zero of psi, increasing t: refined sign changes up to the
    splice, the flow's zeros past it.  phi is read where the time came
    from: the Hermite cubic of u, or the tail's linear flow."""
    t, u, psi, s = traj.t, traj.u, traj.psi, traj.splice_index
    crossings = _level_crossings(traj, psi, traj.dpsi, 0.0, 1)
    offsets = [_hermite(tz, float(t[i]), float(t[i + 1]), float(u[i]), float(u[i + 1]),
                        float(psi[i]), float(psi[i + 1])) for i, tz in crossings if i < s]
    tail = [tz for i, tz in crossings if i >= s]
    if tail:
        offsets += _linear_flow(traj.conjugacy.lin, traj.tail_coordinate,
                                np.array(tail) - float(t[s]))[0].tolist()
    return [PsiZero(t=tz, phi=traj.params.phi0 + offset, phi_offset=offset,
                    direction=-1 if psi[i] > 0.0 else 1)
            for (i, tz), offset in zip(crossings, offsets)]


def detect_phi_hits(traj: Trajectory, target: float) -> list[PhiHit]:
    """All refined solutions of phi(t) = target along the trajectory.

    A sample up to the splice exactly on the target is a hit unless the
    sample before it is one too; a sign change between those samples is
    refined by bisection.  Past the splice the hits come from the linear
    flow alone (_level_crossings).  The target must be positive and finite.
    A node run that ended converged_to_p1 stopped short of P1, so a target
    strictly between its last phi and phi0, which the orbit still crosses,
    is refused (ValueError) rather than answered with no hit.
    """
    if not 0.0 < target < math.inf:  # NaN fails too
        raise ValueError(f"target must be positive and finite, got {target}")
    u_target = target - traj.params.phi0
    u_end = float(traj.u[-1])
    if (traj.params.stability is StabilityType.CENTER_TYPE_I
            and traj.terminated_by is Termination.CONVERGED_TO_P1
            and min(u_end, 0.0) < u_target < max(u_end, 0.0)):
        raise ValueError(f"target {target!r} lies between the last sample's phi "
                         f"{traj.params.phi0 + u_end!r} and phi0 {traj.params.phi0!r}: the run "
                         f"ended {traj.terminated_by.value} at t={traj.t_end!r} before crossing it")
    head = slice(traj.splice_index + 1)
    on_target = traj.u[head] - u_target == 0.0
    on_target[1:] &= ~on_target[:-1]  # the first sample of each run on it
    # a sign change needs both samples off the target: no time is found twice
    times = traj.t[head][on_target].tolist() + [
        th for _, th in _level_crossings(traj, traj.u, traj.psi, u_target, 0)]
    return [PhiHit(t=th, dilation=math.exp(th)) for th in sorted(times)]


def crossing_report(traj: Trajectory, target: float | None = None) -> CrossingReport:
    if target is None:
        target = traj.params.phi0
    return CrossingReport(
        psi_zeros=detect_psi_zeros(traj),
        phi_hits=detect_phi_hits(traj, target),
        target=target,
    )
