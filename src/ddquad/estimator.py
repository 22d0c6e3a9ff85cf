"""Statistical chain: binomial fringe fits, linear fits, and the joint
angular fit that extracts the quadrupole moment.

Fringe fits maximize the binomial likelihood of the counts under
p_i = offset + (contrast/2) cos(phi_i - phase).  The problem is solved
by Newton iteration in the linear parameterization
p_i = a + b cos(phi_i) + c sin(phi_i), which is free of the +-pi phase
ambiguity.  The phase sigma comes from the inverse (a, b, c) Hessian;
intervals come from the profile likelihood at delta(-2 ln L) = 3.84,
where the same Newton fits p_i = a + h cos(phi_i - phase).

The joint fit maximizes the Gaussian likelihood of all reference-
subtracted phases under

    phi = tau_total * K * dEz_dz * Theta * [3 cos^2(b_k + b0) - 1
          + eps1 sin^2(b_k + b0) cos(2 alpha)] + c_k

with per-angle intercepts c_k.  At fixed b0 the model is linear in
(c_k, Theta, Theta*eps1); variable projection (Golub & Pereyra 1973)
solves those in closed form from weighted moments of the data, and b0
is the global minimum of what remains.  Theta's sigma is
sqrt(2 g^T H^-1 g), with H the exact Hessian of chi^2 in (a, b, b0)
built from the same moments and g = dTheta, so no chi^2 is differenced.
The asymmetric 95% CI on Theta profiles the same search with Theta fixed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter

import numpy as np

from .atommodel import ARM_RATE_PER_GRADIENT_THETA
from .errors import (DegenerateDataError, FitConvergenceError,
                     NonIdentifiableError)
from .sampler import CampaignDataset, FringeDataset

CHI2_95_1DOF = 3.841458820694124  # 95% quantile of chi^2 with 1 dof
BOOTSTRAP_MAX_FAILURE_FRACTION = 0.05   # of resamples whose fit may fail


def wrap_phase(phi: float) -> float:
    """Map to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


@dataclass(frozen=True)
class FringeFit:
    phase: float                 # radians, in (-pi, pi]
    contrast: float
    offset: float
    neg_log_likelihood: float
    phase_sigma: float = field(compare=False)   # from the (a, b, c) information
    ci95_phase: tuple = (0.0, 0.0)
    ci95_phase_clamped: tuple = ()   # "lower"/"upper": left at phase -+ pi
    iterations: int = field(compare=False, default=0)   # Newton iterations
    stop: str = field(compare=False, default="")   # why Newton stopped


@dataclass(frozen=True)
class JointFitResult:
    theta: float                     # e*a0^2
    beta0: float                     # radians
    epsilon1: float
    per_angle_offsets: tuple         # c_k, radians, one per angle
    ci95_theta: tuple
    theta_sigma: float
    chi2: float
    ndof: int
    fit_diagnostics: dict = field(compare=False, default_factory=dict)


def _nll_and_derivs(params, x, k, n):
    """Binomial NLL of p = params @ x with its gradient and Hessian in
    ``params``; ``x`` is the (m, P) design matrix of the m parameters."""
    p = np.asarray(params) @ x
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    nll = -np.sum(k * np.log(p) + (n - k) * np.log1p(-p))
    w1 = -k / p + (n - k) / (1.0 - p)
    grad = x @ w1
    w2 = k / p ** 2 + (n - k) / (1.0 - p) ** 2
    hess = (x * w2) @ x.T
    return nll, grad, hess


NEWTON_STOPS = ("gradient", "no_progress", "step_floor", "no_descent",
                "max_iter")


def _newton(x, k, n, start, max_iter=200):
    """Newton iteration on the parameters t of p = t @ x, where ``x`` is an
    (m, P) design matrix: [1, cos phi, sin phi] for the fringe fit,
    [1, cos(phi - phase)] for its phase profile.

    Returns (parameters, NLL, Hessian, iterations, stop), the NLL and its
    Hessian at the returned parameters, where ``stop`` is one of
    ``NEWTON_STOPS``: "gradient" (the gradient test passed),
    "no_progress" (an accepted step lowered the NLL by less than
    1e-13 (1 + |NLL|)), "step_floor" (the backtracked step fell below 4
    ULPs of the parameters before any candidate was accepted),
    "no_descent" (60 halvings found no lower NLL) or "max_iter".
    """
    theta = np.asarray(start, dtype=float)
    nll, grad, hess = _nll_and_derivs(theta, x, k, n)
    for iteration in range(max_iter):
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(np.max(np.abs(np.diag(hess))), 1.0)
        # backtrack to keep probabilities inside (0, 1) and NLL decreasing
        floor = 4.0 * np.spacing(np.max(np.abs(theta)))
        scale, stop = 1.0, "no_descent"
        for _ in range(60):
            # a step below a few ULPs of the parameters cannot move them:
            # the point sits at the rounding floor, so keep it
            if scale * np.max(np.abs(step)) < floor:
                stop = "step_floor"
                break
            cand = theta - scale * step
            cand_nll, cand_grad, cand_hess = _nll_and_derivs(cand, x, k, n)
            if cand_nll <= nll + 1e-15:
                stop = None
                break
            scale *= 0.5
        if stop:
            break
        improvement = nll - cand_nll
        theta, nll, grad, hess = cand, cand_nll, cand_grad, cand_hess
        if np.max(np.abs(grad)) < 1e-9 * max(1.0, np.sum(n)):
            stop = "gradient"
            break
        # stalled (e.g. against the probability clip): no progress left,
        # and an iteration from the same point would repeat the same step
        if improvement < 1e-13 * (1.0 + abs(nll)):
            stop = "no_progress"
            break
    else:
        stop = "max_iter"
    return theta, nll, hess, iteration + 1, stop


def fit_fringe_mle(data: FringeDataset, compute_ci: bool = True) -> FringeFit:
    """Maximum-likelihood fringe fit with profile-likelihood phase CI."""
    pts = data.points
    if len(pts) < 3:
        raise DegenerateDataError("need at least 3 distinct laser phases")
    phis = np.array([p.phi_laser for p in pts])
    k = np.array([p.k_D for p in pts], dtype=float)
    n = np.array([p.n_shots for p in pts], dtype=float)
    frac = k / n
    if np.all(k == 0) or np.all(k == n):
        raise DegenerateDataError("all counts saturated; contrast unidentifiable")

    a0 = float(np.mean(frac))
    b0 = 2.0 * float(np.mean((frac - a0) * np.cos(phis)))
    c0 = 2.0 * float(np.mean((frac - a0) * np.sin(phis)))
    a0 = min(max(a0, 1e-4), 1.0 - 1e-4)
    # keep the starting model strictly inside (0, 1) so the NLL is
    # well-conditioned; Newton walks back toward the boundary if the
    # data support full contrast
    h0 = math.hypot(b0, c0)
    h_max = min(a0, 1.0 - a0) - 1e-4
    if h0 > h_max > 0.0:
        b0 *= h_max / h0
        c0 *= h_max / h0
    x = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    (a, b, c), nll, hess, n_iter, stop = _newton(x, k, n, (a0, b0, c0))

    contrast = 2.0 * math.hypot(b, c)
    if contrast < 1e-9:
        raise DegenerateDataError("fitted contrast is zero; phase unidentifiable")
    phase = math.atan2(c, b)

    # var(phase) = g^T H^-1 g with H the exact (a, b, c) Hessian and
    # g = d phase / d(a, b, c)
    g = np.array([0.0, -c, b]) / (b * b + c * c)
    try:
        sigma = math.sqrt(max(g @ np.linalg.solve(hess, g), 0.0))
    except np.linalg.LinAlgError:
        raise FitConvergenceError("singular information matrix",
                                  {"iterations": n_iter}) from None

    ci, clamped = (phase - 1.96 * sigma, phase + 1.96 * sigma), ()
    if compute_ci:    # profile likelihood; a side that never crosses is clamped
        def q(phi):   # p = a + h cos(phi_i - phi), from h = (b, c) . e_phi
            nll_phi = _newton(np.stack([x[0], np.cos(phis - phi)]), k, n,
                              (a, b * math.cos(phi) + c * math.sin(phi)),
                              max_iter=80)[1]
            return float(2.0 * (nll_phi - nll) - CHI2_95_1DOF)

        ci, clamped = _profile_interval(q, phase, max(sigma, 1e-9), 1e-8,
                                        math.pi)
    return FringeFit(phase=phase, contrast=min(contrast, 1.0), offset=a,
                     neg_log_likelihood=nll, phase_sigma=sigma, ci95_phase=ci,
                     ci95_phase_clamped=clamped, iterations=n_iter, stop=stop)


def _profile_interval(q, center, step, xtol, cap=math.inf):
    """Where q (q(center) = -CHI2_95_1DOF) crosses zero on each side of
    ``center``: offsets double from ``step`` (up to ``cap``) until q > 0, then
    ``_find_root``.  Returns (bounds, sides left uncrossed at the last offset)."""
    bounds, clamped = [], []
    for side, sign in (("lower", -1.0), ("upper", 1.0)):
        f = lambda d: q(center + sign * d)
        lo, q_lo, hi = 0.0, -CHI2_95_1DOF, step
        for _ in range(60):
            q_hi = f(hi)
            if q_hi > 0.0 or hi >= cap:
                break
            lo, q_lo, hi = hi, q_hi, min(2.0 * hi, cap)
        if q_hi > 0.0:
            hi = _find_root(f, lo, hi, q_lo, q_hi, xtol)[0]
        else:
            clamped.append(side)
        bounds.append(center + sign * hi)
    return tuple(bounds), tuple(clamped)


def _find_root(f, a, b, fa, fb, xtol):
    """Root of ``f`` to ``xtol`` between ``a`` and ``b`` (fa = f(a) and
    fb = f(b) differ in sign) by regula falsi with the Anderson-Bjorck
    step (BIT 12, 503 (1972)).  Returns (root, evaluations of f)."""
    for evaluations in range(100):
        if abs(b - a) <= xtol or fb == 0.0:
            return (b if abs(fb) <= abs(fa) else a), evaluations
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) < 0.5 * xtol:     # b has converged: step just past it
            c = b + math.copysign(0.5 * xtol, a - b)
        fc = f(c)
        if (fc > 0.0) == (fb > 0.0):    # root between a and c: damp f(a)
            m = 1.0 - fc / fb
            fa *= m if m > 0.0 else 0.5
        else:                           # root between b and c
            a, fa = b, fb
        b, fb = c, fc
    raise FitConvergenceError("root search did not converge",
                              {"bracket": [a, b]})


def phase_difference(signal: FringeFit, reference: FringeFit) -> float:
    """Reference-subtracted accumulated phase, wrapped to (-pi, pi].

    Under the exp(-i H t / hbar) evolution convention the detected
    branch's fringe phase decreases as quadrupole phase accumulates, so
    reference minus signal reports the phase with the sign of
    ``arm_phase_rate``.
    """
    return wrap_phase(reference.phase - signal.phase)


def weighted_linear_fit(x, y, sigma) -> dict:
    """Weighted least squares y = slope*x + intercept.  Returns "slope",
    "intercept", their sigmas "slope_sigma" and "intercept_sigma", and
    "chi2" with "ndof" degrees of freedom."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(set(x.tolist())) < 2:
        raise DegenerateDataError("need at least 2 distinct abscissa values")
    w = 1.0 / sigma ** 2
    design = np.stack([x, np.ones_like(x)], axis=1)
    a = design.T @ (design * w[:, None])
    b = design.T @ (w * y)
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular design matrix") from None
    slope, intercept = cov @ b
    resid = y - (slope * x + intercept)
    chi2 = float(np.sum(w * resid ** 2))
    return {"slope": float(slope), "intercept": float(intercept),
            "slope_sigma": math.sqrt(cov[0, 0]),
            "intercept_sigma": math.sqrt(cov[1, 1]),
            "chi2": chi2, "ndof": len(x) - 2}


def fit_phase_vs_time(points) -> dict:
    """Weighted linear fit of unwrapped phase vs total time.  ``points``:
    sequence of (tau_total, phase, phase_sigma).  Returns the
    ``weighted_linear_fit`` keys (slope in rad/s) and the slope in Hz."""
    fit = weighted_linear_fit(*zip(*points))
    return {**fit, "slope_hz": fit["slope"] / (2.0 * math.pi),
            "slope_hz_sigma": fit["slope_sigma"] / (2.0 * math.pi)}


def fit_frequency_vs_gradient(points) -> dict:
    """Weighted linear fit of frequency shift vs field gradient.  ``points``:
    sequence of (dEz_dz, frequency_hz, sigma_hz).  Returns the
    ``weighted_linear_fit`` keys; the intercept diagnoses stray gradients."""
    return weighted_linear_fit(*zip(*points))


def unwrap_by_continuity(x, phases, anchor: float = 0.0):
    """Unwrap phases ordered along x, starting nearest to ``anchor``.

    Returns (unwrapped, ambiguous) where ``ambiguous`` flags any step
    larger than pi/2 between consecutive points.  Points with equal x are
    taken in input order.
    """
    order = np.argsort(x, kind="stable")
    phases = np.asarray(phases, dtype=float)
    out = np.empty_like(phases)
    ambiguous = False
    prev = anchor
    for i in order:
        candidate = phases[i] + 2.0 * math.pi * round((prev - phases[i]) / (2.0 * math.pi))
        if abs(candidate - prev) > math.pi / 2.0:
            ambiguous = True
        out[i] = candidate
        prev = candidate
    return out, ambiguous


# ---------------------------------------------------------------------------
# joint angular fit


class _JointModel:
    """Gaussian -2lnL of all phases with per-angle intercepts profiled out
    (none when ``angle_index`` is None).  With basis = scale * [1, cos 2beta,
    sin 2beta] and v = (cos 2beta0, -sin 2beta0) the model is a basis[0] +
    b v . basis[1:], (a, b) = Theta (1, 3) / 2 + Theta eps1 cos 2alpha
    (1, -1) / 2, so the weighted moments of the centered basis and phases
    give chi^2 at any beta0."""

    def __init__(self, beta_nominal, gradients, tau_total, phases, sigmas,
                 angle_index, alpha_trap, float_epsilon1):
        two_beta = 2.0 * np.asarray(beta_nominal, dtype=float)
        scale = (np.asarray(tau_total, dtype=float)
                 * ARM_RATE_PER_GRADIENT_THETA
                 * np.asarray(gradients, dtype=float))
        self.basis = scale * np.array([np.ones_like(two_beta), np.cos(two_beta),
                                       np.sin(two_beta)])
        self.phi = np.asarray(phases, dtype=float)
        self.w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
        self.groups = (np.zeros((0, len(self.phi))) if angle_index is None
                       else np.eye(max(angle_index) + 1)[angle_index].T)
        self.wsum = self.groups @ self.w
        self.cos2a = math.cos(2.0 * alpha_trap)
        self.float_epsilon1 = float_epsilon1
        basis, y = self._center(self.basis), self._center(self.phi)
        wbasis = basis * self.w
        self.moments = tuple((wbasis @ y).tolist()
                             + (wbasis @ basis.T)[np.triu_indices(3)].tolist()
                             + [float(self.w @ (y * y))])

    def _angle_means(self, v):
        return (v * self.w) @ self.groups.T / self.wsum

    def _center(self, v):
        """``v`` (rows of per-point values) minus its weighted per-angle means."""
        return v - self._angle_means(v) @ self.groups

    def _rotated(self, c, s):
        """The moments at cos 2beta0 = ``c``, sin 2beta0 = ``s``: (h0, hv, hw,
        g00, gv, gw, gvv, gvw, yy), where w = dv / d(2 beta0) = (-s, -c), so
        d/d(2 beta0) takes hv, gv, gvv to hw, gw, 2 gvw."""
        h0, h1, h2, g00, g01, g02, g11, g12, g22, yy = self.moments
        return (h0, h1 * c - h2 * s, -h1 * s - h2 * c,
                g00, g01 * c - g02 * s, -g01 * s - g02 * c,
                g11 * c * c - 2.0 * g12 * c * s + g22 * s * s,
                (g22 - g11) * c * s + g12 * (s * s - c * c), yy)

    def profile(self, c, s, theta=None):
        """chi^2 minimized over the intercepts and (a, b) at cos 2beta0 = ``c``,
        sin 2beta0 = ``s`` (floats, or arrays of many beta0), with Theta held
        at ``theta`` when given.  Returns (chi^2, d chi^2/d beta0, a, b)."""
        h0, hv, hw, g00, gv, gw, gvv, gvw, yy = self._rotated(c, s)
        if theta is None and self.float_epsilon1:
            det = g00 * gvv - gv * gv
            a, b = (gvv * h0 - gv * hv) / det, (g00 * hv - gv * h0) / det
        else:
            if theta is None:
                theta = (h0 + 3.0 * hv) / (0.5 * g00 + 3.0 * gv + 4.5 * gvv)
            a, b = 0.5 * theta, 1.5 * theta
            if self.float_epsilon1:     # Theta eps1 moves (a, b) along (1, -1)
                u = ((h0 - hv - (g00 - gv) * a - (gv - gvv) * b)
                     / (g00 - 2.0 * gv + gvv))
                a, b = a + u, b - u
        r0, rv = h0 - g00 * a - gv * b, hv - gv * a - gvv * b
        return (yy - a * (h0 + r0) - b * (hv + rv),
                -4.0 * b * (hw - gw * a - gvw * b), a, b)

    def theta_sigma(self, beta0, a, b):
        """Theta's sigma at the fit (beta0, a, b): sqrt(2 g^T H^-1 g), with H
        the exact Hessian of the profiled chi^2 in (a, b, beta0), taken in
        (Theta, beta0) through (a, b) = Theta (1, 3) / 2 when eps1 is fixed,
        and g = dTheta.  With the intercepts profiled out, this is still the
        Theta entry of the inverse Hessian in every parameter, intercepts
        included (a Schur complement)."""
        _, hv, hw, g00, gv, gw, gvv, gvw, _ = self._rotated(
            math.cos(2.0 * beta0), math.sin(2.0 * beta0))
        # d/d(2 beta0) takes hw, gw to -hv, -gv and gvw to gww - gvv, where
        # gww + gvv = g11 + g22
        dgvw = self.moments[6] + self.moments[8] - 2.0 * gvv
        a_beta0, b_beta0 = 2.0 * b * gw, 2.0 * (a * gw - hw) + 4.0 * b * gvw
        hess = 2.0 * np.array([[g00, gv, a_beta0], [gv, gvv, b_beta0],
                               [a_beta0, b_beta0,
                                4.0 * b * (hv - a * gv + b * dgvw)]])
        if self.float_epsilon1:     # at fixed eps1, Theta moves along d
            g, d = np.array([0.5, 0.5, 0.0]), np.array([a, b, 0.0])
        else:
            jac = np.array([[0.5, 0.0], [1.5, 0.0], [0.0, 1.0]])
            hess, g = jac.T @ hess @ jac, np.array([1.0, 0.0])
            d = g
        # chi^2's curvature along d per unit Theta (a step d moves Theta by
        # g . d), compared without dividing by Theta
        if not d @ hess @ d > 1e-10 * (g @ d) ** 2:
            raise NonIdentifiableError(
                "likelihood is flat in Theta (e.g. all angles at the magic angle)")
        try:
            return math.sqrt(max(2.0 * g @ np.linalg.solve(hess, g), 0.0))
        except np.linalg.LinAlgError:
            raise NonIdentifiableError(
                "singular joint-fit information matrix") from None

    def chi2_and_offsets(self, beta0, a, b):
        v = (math.cos(2.0 * beta0), -math.sin(2.0 * beta0))
        resid = self.phi - a * self.basis[0] - b * (v @ self.basis[1:])
        offsets = self._angle_means(resid)
        resid = resid - offsets @ self.groups
        return float(np.sum(self.w * resid ** 2)), offsets


_GRID = np.linspace(-math.pi / 2.0, math.pi / 2.0, 64, endpoint=False)
_GRID_COS, _GRID_SIN = np.cos(2.0 * _GRID), np.sin(2.0 * _GRID)


def _search_beta0(model, theta=None):
    """Global minimum of ``model.profile`` over beta0 (period pi): a grid
    over one period, then the root of d chi^2/d beta0 next to each local
    minimum of the grid.  Minima whose chi^2 agree to 1e-10 of y^T W y
    are ties: with eps1 free, beta0 and beta0 + pi/2 always tie and the
    partner has |eps1| >= 1 / |cos 2alpha|; two angles leave a discrete
    choice.  Of the ties, one with |eps1| <= 1 nearest 0 is kept.
    Returns (beta0 in (-pi/2, pi/2], chi^2, a, b, evaluations, number of
    ties with |eps1| <= 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2, slope, _, _ = model.profile(_GRID_COS, _GRID_SIN, theta)
    chi2 = np.where(np.isfinite(chi2), chi2, np.inf)
    if chi2.min() == np.inf:
        raise NonIdentifiableError(
            "likelihood is flat in Theta (e.g. all gradients zero)")
    minima = np.flatnonzero((chi2 < np.inf) & (chi2 <= np.roll(chi2, 1))
                            & (chi2 <= np.roll(chi2, -1)))
    at = lambda b0: model.profile(math.cos(2.0 * b0), math.sin(2.0 * b0), theta)
    grid, slope = _GRID.tolist(), slope.tolist()
    fits, evaluations = [], 1
    for i in minima:
        side = 1 if slope[i] < 0.0 else -1      # towards the downhill neighbour
        f_far = slope[(i + side) % len(grid)]
        if slope[i] * f_far > 0.0:
            raise FitConvergenceError("no minimum of chi^2 bracketed in beta0",
                                      {"beta0": grid[i]})
        beta0, n = _find_root(lambda b0: at(b0)[1], grid[i] + side * math.pi
                              / len(grid), grid[i], f_far, slope[i], 1e-15)
        chi2_i, _, a, b = at(beta0)
        fits.append((wrap_phase(2.0 * beta0) / 2.0, chi2_i, a, b))
        evaluations += n
    tol = min(f[1] for f in fits) + 1e-10 * model.moments[-1]
    tied = [f for f in fits if f[1] <= tol]
    # |eps1| > 1 where |3a - b| > |cos 2alpha (a + b)|; without eps1, 3a = b
    big_eps1 = lambda f: abs(3.0 * f[2] - f[3]) > abs(model.cos2a * (f[2] + f[3]))
    best = min(tied, key=lambda f: (big_eps1(f), abs(f[0])))
    return best + (evaluations, sum(not big_eps1(f) for f in tied))


def joint_fit_quadrupole(beta_nominal, gradients, tau_total, phases, sigmas,
                         alpha_trap: float = math.pi / 4,
                         float_epsilon1: bool = False,
                         compute_ci: bool = True) -> JointFitResult:
    """Joint MLE of (Theta, beta0[, eps1]) over all phase measurements.

    Inputs are flat arrays, one entry per (angle, gradient, tau_total)
    cell, with phases already reference-subtracted and unwrapped; angle
    grouping is inferred from equal beta_nominal values.  At least 2
    angles (3 with eps1 free) need cells at two values of tau_total *
    dEz/dz, else ``NonIdentifiableError``.
    """
    beta_nominal = np.asarray(beta_nominal, dtype=float)
    # not np.unique: its first call imports numpy.ma, 20-45 ms of a cold run
    unique_angles = sorted(set(beta_nominal.tolist()))
    angle_index = np.searchsorted(unique_angles, beta_nominal)
    if len(unique_angles) < 2:
        raise NonIdentifiableError(
            "need phases at >= 2 magnetic-field angles to separate Theta "
            "from the per-angle offsets")
    if float_epsilon1 and len(unique_angles) < 3:
        raise NonIdentifiableError(
            "with epsilon1 free the angular model has three parameters "
            "(Theta, beta0, epsilon1) but the phases give one slope per "
            f"field angle; need >= 3 angles, got {len(unique_angles)}")
    cos2a = math.cos(2.0 * alpha_trap)
    if float_epsilon1 and abs(cos2a) < 1e-12:
        raise NonIdentifiableError(
            "epsilon1 enters the model only as epsilon1 cos(2 alpha), and "
            f"cos(2 alpha) = {cos2a:.2g} at alpha = {alpha_trap!r}")
    model = _JointModel(beta_nominal, gradients, tau_total, phases, sigmas,
                        angle_index, alpha_trap, float_epsilon1)
    # (Theta, beta0[, eps1]) need as many slopes; an angle's offset is
    # profiled out, so it gives one only if its cells span >= 2 values of
    # the scale tau_total * dEz/dz
    n_angular = 3 if float_epsilon1 else 2
    cells = set(zip(angle_index.tolist(), model.basis[0].tolist()))
    sloped = int(np.sum(np.bincount([i for i, _ in cells]) >= 2))
    if sloped < n_angular:
        raise NonIdentifiableError(
            f"need >= {n_angular} field angles whose cells span >= 2 values "
            f"of tau_total * dEz/dz (one phase slope per angle), got {sloped}")

    beta0, chi2_search, a, b, evaluations, tied = _search_beta0(model)
    chi2_min, offsets = model.chi2_and_offsets(beta0, a, b)
    theta_sigma = model.theta_sigma(beta0, a, b)

    theta_hat = (a + b) / 2.0
    ci = (theta_hat - 1.96 * theta_sigma, theta_hat + 1.96 * theta_sigma)
    samples = []    # (Theta, delta chi^2) along the profile
    if compute_ci:  # else Gaussian; used by e.g. bootstrap resampling
        def q(theta):   # against the moment-form chi^2 of the fit itself
            delta = _search_beta0(model, theta)[1] - chi2_search
            samples.append((theta, delta))
            return delta - CHI2_95_1DOF

        ci, clamped = _profile_interval(q, theta_hat, max(theta_sigma, 1e-9)
                                        * 1.96, 1e-11)
        if clamped:
            raise FitConvergenceError("profile likelihood never crossed the "
                                      "95% threshold", {"sides": list(clamped)})
    return JointFitResult(
        theta=theta_hat, beta0=beta0,
        epsilon1=(3.0 * a - b) / (cos2a * (a + b)) if float_epsilon1 else 0.0,
        per_angle_offsets=tuple(float(c) for c in offsets),
        ci95_theta=ci, theta_sigma=theta_sigma,
        chi2=chi2_min,
        ndof=len(phases) - n_angular - len(unique_angles),
        fit_diagnostics={"iterations": evaluations, "converged": True,
                         "tied_minima": tied,
                         "profile_samples": sorted(samples),
                         "angles": [float(a) for a in unique_angles]})


# ---------------------------------------------------------------------------
# campaign-level pipeline


@dataclass(frozen=True)
class CellPhase:
    """One cell's unwrapped, reference-subtracted phase.  Its fringe
    fits carry Gaussian phase CIs (phase +- 1.96 sigma), not profile CIs."""

    beta_nominal: float
    dEz_dz: float
    tau_total: float
    phi_total: float          # unwrapped, reference-subtracted (rad)
    sigma: float
    ambiguous: bool
    signal_fit: FringeFit = field(compare=False, default=None)
    reference_fit: FringeFit = field(compare=False, default=None)


def extract_cell_phases(campaign: CampaignDataset,
                        zeeman2_hz: float = 0.0) -> list:
    """Fringe-fit every cell, reference-subtract, and unwrap along time.

    ``zeeman2_hz`` is the known differential second-order Zeeman shift
    C2*B^2; it enters the accumulated phase with sign opposite to the
    quadrupole term and is removed here as a deterministic systematic.
    """
    out = []   # cells of one (angle, gradient) come together, by tau_total
    for _, cells in groupby(campaign.cells,
                            attrgetter("beta_nominal", "dEz_dz")):
        fits = [(cell, fit_fringe_mle(cell.fringe, compute_ci=False),
                 fit_fringe_mle(cell.reference_fringe, compute_ci=False))
                for cell in cells]
        unwrapped, ambiguous = unwrap_by_continuity(
            [cell.tau_total for cell, _, _ in fits],
            [phase_difference(sig, ref)
             + 2.0 * math.pi * zeeman2_hz * cell.tau_total
             for cell, sig, ref in fits])
        out += [CellPhase(beta_nominal=cell.beta_nominal, dEz_dz=cell.dEz_dz,
                          tau_total=cell.tau_total, phi_total=float(phi_u),
                          sigma=math.hypot(sig.phase_sigma, ref.phase_sigma),
                          ambiguous=ambiguous, signal_fit=sig, reference_fit=ref)
                for (cell, sig, ref), phi_u in zip(fits, unwrapped)]
    return out


def joint_fit_campaign(campaign: CampaignDataset,
                       alpha_trap: float = math.pi / 4,
                       float_epsilon1: bool = False,
                       zeeman2_hz: float = 0.0,
                       compute_ci: bool = True) -> tuple:
    """Full chain: fringe fits -> unwrapped phases -> joint fit.

    ``compute_ci`` selects the profile-likelihood CI on Theta (else a
    Gaussian one).  The result's ``fit_diagnostics`` gain
    "fringe_fit_stops": how many fringe fits stopped for each of
    ``NEWTON_STOPS``.  Returns (JointFitResult, list[CellPhase]).
    """
    cells = extract_cell_phases(campaign, zeeman2_hz=zeeman2_hz)
    result = joint_fit_quadrupole(
        [c.beta_nominal for c in cells], [c.dEz_dz for c in cells],
        [c.tau_total for c in cells], [c.phi_total for c in cells],
        [c.sigma for c in cells],
        alpha_trap=alpha_trap, float_epsilon1=float_epsilon1,
        compute_ci=compute_ci)
    stops = dict.fromkeys(NEWTON_STOPS, 0)
    for c in cells:
        stops[c.signal_fit.stop] += 1
        stops[c.reference_fit.stop] += 1
    return replace(result, fit_diagnostics={**result.fit_diagnostics,
                                            "fringe_fit_stops": stops}), cells


def two_stage_theta(cell_phases, alpha_trap: float = math.pi / 4) -> dict:
    """Chained estimate: phase->frequency per (angle, gradient), then
    frequency->gradient slope per angle, then the angular fit of the
    slopes for (Theta, beta0).  Cross-check for the joint fit.
    ``cell_phases`` come in campaign order, as ``extract_cell_phases``
    gives them."""
    freq_points: dict = {}
    for (beta, grad), recs in groupby(cell_phases,
                                      attrgetter("beta_nominal", "dEz_dz")):
        fit = fit_phase_vs_time([(c.tau_total, c.phi_total, c.sigma) for c in recs])
        freq_points.setdefault(beta, []).append(
            (grad, fit["slope_hz"], fit["slope_hz_sigma"]))

    slopes = []
    for beta, pts in freq_points.items():
        fit = fit_frequency_vs_gradient(pts)
        slopes.append((beta, fit["slope"], fit["slope_sigma"]))

    # slopes are Hz per unit gradient: Theta * geometry * K / (2 pi)
    model = _JointModel([s[0] for s in slopes], np.full(len(slopes), 0.5 / math.pi),
                        np.ones(len(slopes)), [s[1] for s in slopes],
                        [s[2] for s in slopes], None, alpha_trap, False)
    beta0, _, a, b = _search_beta0(model)[:4]
    try:
        sigma_theta = model.theta_sigma(beta0, a, b)
    except NonIdentifiableError:
        sigma_theta = float("nan")
    return {"theta": (a + b) / 2.0, "beta0": beta0, "theta_sigma": sigma_theta,
            "slopes": slopes}


def bootstrap_ci(campaign: CampaignDataset, n_resamples: int, seed: int,
                 alpha_trap: float = math.pi / 4,
                 float_epsilon1: bool = False,
                 zeeman2_hz: float = 0.0) -> tuple:
    """Percentile bootstrap on Theta via per-point binomial resampling.

    Exact-probability datasets (real-valued counts) pass through
    unchanged, so the interval collapses onto the point estimate.  Raises
    ``FitConvergenceError`` when the fits of more than
    ``BOOTSTRAP_MAX_FAILURE_FRACTION`` of the resamples fail.
    """
    if n_resamples < 100:
        raise ValueError("n_resamples must be >= 100")
    rng = np.random.default_rng(seed)
    thetas = []
    failures = 0
    for _ in range(n_resamples):
        resampled = _resample_campaign(campaign, rng)
        try:
            result, _ = joint_fit_campaign(resampled, alpha_trap=alpha_trap,
                                           float_epsilon1=float_epsilon1,
                                           zeeman2_hz=zeeman2_hz,
                                           compute_ci=False)
            thetas.append(result.theta)
        except (DegenerateDataError, FitConvergenceError, NonIdentifiableError):
            failures += 1
    if failures > BOOTSTRAP_MAX_FAILURE_FRACTION * n_resamples:
        raise FitConvergenceError(
            f"{failures}/{n_resamples} bootstrap resamples failed to fit",
            {"failures": failures})
    lo, hi = np.percentile(thetas, [2.5, 97.5])
    return float(lo), float(hi)


def _resample_campaign(campaign: CampaignDataset,
                       rng: np.random.Generator) -> CampaignDataset:
    """Per-point binomial counts, in one draw over the campaign's
    integer-count points (each cell's signal, then reference points);
    exact-probability points (real-valued counts) pass through."""
    points = [p for c in campaign.cells
              for fr in (c.fringe, c.reference_fringe) for p in fr.points]
    n = np.array([p.n_shots for p in points], dtype=np.int64)
    k = np.array([p.k_D for p in points], dtype=float)
    drawn = k == np.floor(k)
    draws = iter(rng.binomial(n[drawn], k[drawn] / n[drawn]).tolist())
    counts = iter([next(draws) if d else p.k_D for p, d in zip(points, drawn)])

    def refill(fr: FringeDataset) -> FringeDataset:
        return replace(fr, points=tuple(replace(p, k_D=next(counts))
                                        for p in fr.points))

    return replace(campaign, cells=tuple(
        replace(c, fringe=refill(c.fringe),
                reference_fringe=refill(c.reference_fringe))
        for c in campaign.cells))


def theta_comparison_report(result: JointFitResult, references) -> list:
    """Deviation of the fitted Theta from each reference value.

    ``references`` is an iterable of (label, value, sigma).  Deviations
    are in units of the combined one-sigma uncertainty; rows are sorted
    by |deviation|.
    """
    sigma_ours = (abs(result.ci95_theta[1] - result.theta)
                  + abs(result.theta - result.ci95_theta[0])) / 2.0 / 1.96
    rows = []
    for label, value, sigma_ref in references:
        combined = math.hypot(sigma_ours, sigma_ref)
        dev = (result.theta - value) / combined if combined > 0 else float("inf")
        rows.append({"label": label, "value": value, "sigma": sigma_ref,
                     "deviation_sigma": dev})
    rows.sort(key=lambda r: abs(r["deviation_sigma"]))
    return rows


def dataset_digest(csv_text: str) -> str:
    """Content hash of the input data, for fit provenance."""
    return hashlib.sha256(csv_text.encode()).hexdigest()
