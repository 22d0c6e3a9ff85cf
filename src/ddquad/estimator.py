"""Statistical chain: binomial fringe fits, linear fits, and the joint
angular fit that extracts the quadrupole moment.

Fringe fits maximize the binomial likelihood of the counts under
p_i = offset + (contrast/2) cos(phi_i - phase).  The problem is solved
by Newton iteration in the linear parameterization
p_i = a + b cos(phi_i) + c sin(phi_i), which is free of the +-pi phase
ambiguity; intervals come from the profile likelihood at
delta(-2 ln L) = 3.84.

The joint fit maximizes the Gaussian likelihood of all reference-
subtracted phases under

    phi = tau_total * K * dEz_dz * Theta * [3 cos^2(b_k + b0) - 1
          + eps1 sin^2(b_k + b0) cos(2 alpha)] + c_k

with per-angle intercepts c_k.  At fixed b0 the model is linear in
(c_k, Theta, Theta*eps1); variable projection (Golub & Pereyra 1973)
solves those in closed form inside a 1-D Brent search over b0, and the
asymmetric 95% CI on Theta profiles the same search with Theta fixed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .atommodel import ARM_RATE_PER_GRADIENT_THETA
from .errors import (DegenerateDataError, FitConvergenceError,
                     NonIdentifiableError)
from .sampler import CampaignDataset, FringeDataset

CHI2_95_1DOF = 3.841458820694124  # scipy.stats.chi2.ppf(0.95, 1)


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
    cov: np.ndarray = field(compare=False)   # 3x3 in (phase, contrast, offset)
    ci95_phase: tuple = (0.0, 0.0)

    @property
    def phase_sigma(self) -> float:
        return math.sqrt(max(self.cov[0, 0], 0.0))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    slope_sigma: float
    intercept_sigma: float
    ci95_slope: tuple
    chi2: float
    ndof: int

    @property
    def reduced_chi2(self) -> float:
        return self.chi2 / self.ndof if self.ndof > 0 else float("nan")


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


def _design(phis):
    return np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])


def _nll_and_derivs(params, x, k, n):
    """Binomial NLL with gradient/Hessian in (a, b, c).

    ``x`` is the precomputed 3xP design matrix [1, cos(phi), sin(phi)].
    """
    p = np.asarray(params) @ x
    eps = 1e-12
    p = np.clip(p, eps, 1.0 - eps)
    nll = -np.sum(k * np.log(p) + (n - k) * np.log1p(-p))
    w1 = -k / p + (n - k) / (1.0 - p)
    grad = x @ w1
    w2 = k / p ** 2 + (n - k) / (1.0 - p) ** 2
    hess = (x * w2) @ x.T
    return nll, grad, hess


def _newton_abc(x, k, n, start, fix_phase=None, max_iter=200):
    """Newton iteration on the linear parameters.

    With ``fix_phase`` set, optimizes only (a, h) with
    b = h cos(phase), c = h sin(phase) (for profile-likelihood scans).
    """
    if fix_phase is None:
        theta = np.asarray(start, dtype=float)
        to_abc = lambda t: t
        reduce_grad = lambda g: g
        reduce_hess = lambda h: h
    else:
        cp, sp = math.cos(fix_phase), math.sin(fix_phase)
        j = np.array([[1.0, 0.0], [0.0, cp], [0.0, sp]])  # (a,b,c) wrt (a,h)
        theta = np.array([start[0], start[1] * cp + start[2] * sp])
        to_abc = lambda t: np.array([t[0], t[1] * cp, t[1] * sp])
        reduce_grad = lambda g: j.T @ g
        reduce_hess = lambda h: j.T @ h @ j
    nll, grad, hess = _nll_and_derivs(to_abc(theta), x, k, n)
    grad, hess = reduce_grad(grad), reduce_hess(hess)
    for iteration in range(max_iter):
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(np.max(np.abs(np.diag(hess))), 1.0)
        # backtrack to keep probabilities inside (0, 1) and NLL decreasing
        floor = 4.0 * np.spacing(np.max(np.abs(theta)))
        scale, accepted = 1.0, False
        for _ in range(60):
            # a step below a few ULPs of the parameters cannot move them:
            # the point sits at the rounding floor, so keep it
            if scale * np.max(np.abs(step)) < floor:
                break
            cand = theta - scale * step
            cand_nll, cand_grad, cand_hess = _nll_and_derivs(to_abc(cand), x, k, n)
            if cand_nll <= nll + 1e-15:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        improvement = nll - cand_nll
        theta, nll = cand, cand_nll
        grad, hess = reduce_grad(cand_grad), reduce_hess(cand_hess)
        if np.max(np.abs(grad)) < 1e-9 * max(1.0, np.sum(n)):
            break
        # stalled (e.g. against the probability clip): no progress left,
        # and an iteration from the same point would repeat the same step
        if improvement < 1e-13 * (1.0 + abs(nll)):
            break
    return to_abc(theta) if fix_phase is not None else theta, nll, iteration + 1


def fit_fringe_mle(data: FringeDataset, compute_ci: bool = True) -> FringeFit:
    """Maximum-likelihood fringe fit with profile-likelihood phase CI."""
    pts = data.points
    if len(pts) < 3:
        raise DegenerateDataError("need at least 3 distinct laser phases")
    phis = np.array([p.phi_laser for p in pts])
    k = np.array([p.k_D for p in pts], dtype=float)
    n = np.array([p.n_shots for p in pts], dtype=float)
    if np.any(n < 1):
        raise DegenerateDataError("every point needs at least one shot")
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
    x = _design(phis)
    (a, b, c), nll, n_iter = _newton_abc(x, k, n, (a0, b0, c0))

    contrast = 2.0 * math.hypot(b, c)
    if contrast < 1e-9:
        raise DegenerateDataError("fitted contrast is zero; phase unidentifiable")
    phase = math.atan2(c, b)

    # covariance in (phase, contrast, offset) from the exact (a,b,c) Hessian
    _, _, hess_abc = _nll_and_derivs((a, b, c), x, k, n)
    half = contrast / 2.0
    jac = np.array([
        [0.0, 0.0, 1.0],                                  # a row: (phase, C, offset)
        [-half * math.sin(phase), 0.5 * math.cos(phase), 0.0],
        [half * math.cos(phase), 0.5 * math.sin(phase), 0.0],
    ])
    hess_pco = jac.T @ hess_abc @ jac
    try:
        cov = np.linalg.inv(hess_pco)
    except np.linalg.LinAlgError:
        raise FitConvergenceError("singular information matrix",
                                  {"iterations": n_iter}) from None

    sigma = math.sqrt(max(cov[0, 0], 1e-18))
    if compute_ci:
        ci = _profile_phase_ci(x, k, n, phase, (a, b, c), nll, sigma)
    else:
        ci = (phase - 1.96 * sigma, phase + 1.96 * sigma)
    return FringeFit(phase=phase, contrast=min(contrast, 1.0), offset=a,
                     neg_log_likelihood=nll, cov=cov, ci95_phase=ci)


def _profile_phase_ci(x, k, n, phase, abc, nll_min, sigma_guess):
    """Profile-likelihood 95% interval on the fringe phase."""

    def q(phi):
        _, nll, _ = _newton_abc(x, k, n, abc, fix_phase=phi, max_iter=80)
        return 2.0 * (nll - nll_min) - CHI2_95_1DOF

    bounds = []
    for direction in (+1.0, -1.0):
        step = max(sigma_guess, 1e-9)
        lo, hi = 0.0, step
        for _ in range(60):
            if q(phase + direction * hi) > 0:
                break
            lo = hi
            hi = min(hi * 2.0, math.pi)
            if hi >= math.pi:
                break
        if q(phase + direction * hi) <= 0:
            bounds.append(phase + direction * math.pi)
            continue
        root = brentq(lambda d: q(phase + direction * d), lo, hi, xtol=1e-8)
        bounds.append(phase + direction * root)
    hi_b, lo_b = bounds
    return (lo_b, hi_b)


def phase_difference(signal: FringeFit, reference: FringeFit) -> float:
    """Reference-subtracted accumulated phase, wrapped to (-pi, pi].

    Under the exp(-i H t / hbar) evolution convention the detected
    branch's fringe phase decreases as quadrupole phase accumulates, so
    reference minus signal reports the phase with the sign of
    ``arm_phase_rate``.
    """
    return wrap_phase(reference.phase - signal.phase)


def weighted_linear_fit(x, y, sigma) -> LinearFit:
    """Weighted least squares y = slope*x + intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(np.unique(x)) < 2:
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
    s_sl = math.sqrt(cov[0, 0])
    s_ic = math.sqrt(cov[1, 1])
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     slope_sigma=s_sl, intercept_sigma=s_ic,
                     ci95_slope=(slope - 1.96 * s_sl, slope + 1.96 * s_sl),
                     chi2=chi2, ndof=len(x) - 2)


def fit_phase_vs_time(points) -> dict:
    """Weighted linear fit of unwrapped phase vs total time.

    ``points`` is a sequence of (tau_total, phase, phase_sigma).
    Returns slope in rad/s and Hz, with the intercept kept as a
    diagnostic.
    """
    taus = [p[0] for p in points]
    fit = weighted_linear_fit(taus, [p[1] for p in points], [p[2] for p in points])
    return {
        "slope": fit.slope, "slope_hz": fit.slope / (2.0 * math.pi),
        "slope_sigma": fit.slope_sigma,
        "slope_hz_sigma": fit.slope_sigma / (2.0 * math.pi),
        "ci95_slope": fit.ci95_slope,
        "intercept": fit.intercept, "intercept_sigma": fit.intercept_sigma,
        "chi2": fit.chi2, "ndof": fit.ndof, "fit": fit,
    }


def fit_frequency_vs_gradient(points) -> dict:
    """Weighted linear fit of frequency shift vs field gradient.

    ``points``: sequence of (dEz_dz, frequency_hz, sigma_hz).  The
    intercept diagnoses stray static gradients.
    """
    fit = weighted_linear_fit([p[0] for p in points], [p[1] for p in points],
                              [p[2] for p in points])
    return {
        "slope": fit.slope, "slope_sigma": fit.slope_sigma,
        "ci95_slope": fit.ci95_slope,
        "intercept": fit.intercept, "intercept_sigma": fit.intercept_sigma,
        "chi2": fit.chi2, "ndof": fit.ndof, "fit": fit,
    }


def unwrap_by_continuity(x, phases, anchor: float = 0.0):
    """Unwrap phases ordered along x, starting nearest to ``anchor``.

    Returns (unwrapped, ambiguous) where ``ambiguous`` flags any step
    larger than pi/2 between consecutive points.
    """
    order = np.argsort(x)
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
    (none when ``angle_index`` is None)."""

    def __init__(self, beta_nominal, gradients, tau_total, phases, sigmas,
                 angle_index, alpha_trap, float_epsilon1):
        self.beta = np.asarray(beta_nominal, dtype=float)
        self.scale = (np.asarray(tau_total, dtype=float)
                      * ARM_RATE_PER_GRADIENT_THETA
                      * np.asarray(gradients, dtype=float))
        self.phi = np.asarray(phases, dtype=float)
        self.w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
        self.groups = (np.zeros((0, len(self.phi))) if angle_index is None
                       else np.eye(max(angle_index) + 1)[angle_index].T)
        self.n_angles = len(self.groups)
        self.wsum = self.groups @ self.w
        self.alpha_trap = alpha_trap
        self.float_epsilon1 = float_epsilon1
        self.phi_centered = self._center(self.phi)

    def _angle_means(self, v):
        return (v * self.w) @ self.groups.T / self.wsum

    def _center(self, v):
        """``v`` (rows of per-point values) minus its weighted per-angle means."""
        return v - self._angle_means(v) @ self.groups

    def columns(self, beta0):
        """Model phase per unit Theta and per unit Theta*eps1."""
        c = np.cos(self.beta + beta0)
        s = np.sin(self.beta + beta0)
        return self.scale * np.array([3.0 * c * c - 1.0,
                                      s * s * math.cos(2.0 * self.alpha_trap)])

    def project(self, beta0, theta=None):
        """Variable projection at fixed beta0: chi^2 minimized over the
        intercepts and (Theta[, Theta*eps1]) in closed form, with Theta
        held at ``theta`` when given.  Returns (chi2, linear parameters)."""
        cols = self._center(self.columns(beta0)[:2 if self.float_epsilon1 else 1])
        y = self.phi_centered
        if theta is not None:
            y = y - theta * cols[0]
            cols = cols[1:]
        wcols = cols * self.w
        try:
            lin = np.linalg.solve(wcols @ cols.T, wcols @ y)
        except np.linalg.LinAlgError:
            raise NonIdentifiableError(
                "likelihood is flat in Theta (e.g. all gradients zero)") from None
        y = y - lin @ cols
        return float(np.sum(self.w * y * y)), lin

    def chi2_and_offsets(self, params):
        theta, beta0 = params[0], params[1]
        eps1 = params[2] if self.float_epsilon1 else 0.0
        cols = self.columns(beta0)
        resid = self.phi - theta * (cols[0] + eps1 * cols[1])
        offsets = self._angle_means(resid)
        resid = resid - offsets @ self.groups
        return float(np.sum(self.w * resid ** 2)), offsets

    def chi2(self, params):
        return self.chi2_and_offsets(params)[0]


def _search_beta0(model, theta=None, start=0.0):
    """Brent search for the beta0 that minimizes ``model.project``,
    downhill from a bracket of +-0.1 rad around ``start``."""
    res = minimize_scalar(lambda b0: model.project(b0, theta)[0],
                          bracket=(start - 0.1, start + 0.1), method="brent")
    if not res.success:
        raise FitConvergenceError("beta0 search did not converge",
                                  {"iterations": int(res.nit),
                                   "beta0": float(res.x)})
    return res


def _numeric_hessian(fun, x, rel_step=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = np.maximum(np.abs(x), 1.0) * rel_step
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = h[i]
            ej = np.zeros(n); ej[j] = h[j]
            f_pp = fun(x + ei + ej)
            f_pm = fun(x + ei - ej)
            f_mp = fun(x - ei + ej)
            f_mm = fun(x - ei - ej)
            hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4 * h[i] * h[j])
    return hess


def joint_fit_quadrupole(beta_nominal, gradients, tau_total, phases, sigmas,
                         alpha_trap: float = math.pi / 4,
                         float_epsilon1: bool = False,
                         compute_ci: bool = True) -> JointFitResult:
    """Joint MLE of (Theta, beta0[, eps1]) over all phase measurements.

    Inputs are flat arrays, one entry per (angle, gradient, tau_total)
    cell, with phases already reference-subtracted and unwrapped; angle
    grouping is inferred from equal beta_nominal values.
    """
    beta_nominal = np.asarray(beta_nominal, dtype=float)
    unique_angles, angle_index = np.unique(beta_nominal, return_inverse=True)
    if len(unique_angles) < 2:
        raise NonIdentifiableError(
            "need phases at >= 2 magnetic-field angles to separate Theta "
            "from the per-angle offsets")
    model = _JointModel(beta_nominal, gradients, tau_total, phases, sigmas,
                        angle_index, alpha_trap, float_epsilon1)

    search = _search_beta0(model)
    _, lin = model.project(search.x)
    x = np.array([lin[0], search.x] + ([lin[1] / lin[0]] if float_epsilon1 else []))
    chi2_min, offsets = model.chi2_and_offsets(x)
    hess = _numeric_hessian(model.chi2, x)
    curvature = hess[0, 0]
    if not np.isfinite(curvature) or curvature <= 1e-10:
        raise NonIdentifiableError(
            "likelihood is flat in Theta (e.g. all angles at the magic angle)")
    try:
        cov = np.linalg.inv(hess / 2.0)   # chi2 = -2 lnL => information = H/2
        theta_sigma = math.sqrt(max(cov[0, 0], 0.0))
    except np.linalg.LinAlgError:
        raise NonIdentifiableError("singular joint-fit information matrix") from None

    theta_hat = float(x[0])
    if compute_ci:
        ci, profile_samples = _profile_theta_ci(model, x, chi2_min, theta_sigma)
    else:   # Gaussian approximation; used by e.g. bootstrap resampling
        ci = (theta_hat - 1.96 * theta_sigma, theta_hat + 1.96 * theta_sigma)
        profile_samples = []
    return JointFitResult(
        theta=theta_hat, beta0=float(x[1]),
        epsilon1=float(x[2]) if float_epsilon1 else 0.0,
        per_angle_offsets=tuple(float(c) for c in offsets),
        ci95_theta=ci, theta_sigma=theta_sigma,
        chi2=chi2_min, ndof=len(phases) - len(x) - model.n_angles,
        fit_diagnostics={"iterations": int(search.nit), "converged": True,
                         "profile_samples": profile_samples,
                         "angles": [float(a) for a in unique_angles]})


def _profile_theta_ci(model, x_hat, chi2_min, sigma):
    """Asymmetric 95% interval from the Theta profile likelihood."""
    beta0 = [x_hat[1]]

    def profile_chi2(theta):
        res = _search_beta0(model, theta, start=beta0[0])
        beta0[0] = res.x   # warm start for the next profile point
        return res.fun

    samples = []

    def q(theta):
        val = profile_chi2(theta) - chi2_min - CHI2_95_1DOF
        samples.append((float(theta), float(val + CHI2_95_1DOF)))
        return val

    theta_hat = x_hat[0]
    bounds = []
    for direction in (-1.0, +1.0):
        step = max(sigma, 1e-9) * 1.96
        lo, hi = 0.0, step
        for _ in range(60):
            if q(theta_hat + direction * hi) > 0:
                break
            lo = hi
            hi *= 2.0
        else:
            raise FitConvergenceError("profile likelihood never crossed the "
                                      "95% threshold", {"direction": direction})
        root = brentq(lambda d: q(theta_hat + direction * d), lo, hi,
                      xtol=1e-7)
        bounds.append(theta_hat + direction * root)
    return (bounds[0], bounds[1]), sorted(samples)


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
    raw = []
    for cell in campaign.cells:
        sig = fit_fringe_mle(cell.fringe, compute_ci=False)
        ref = fit_fringe_mle(cell.reference_fringe, compute_ci=False)
        phi = phase_difference(sig, ref)
        phi += 2.0 * math.pi * zeeman2_hz * cell.tau_total
        sigma = math.hypot(sig.phase_sigma, ref.phase_sigma)
        raw.append([cell.beta_nominal, cell.dEz_dz, cell.tau_total, phi, sigma,
                    sig, ref])
    out = []
    groups: dict = {}
    for rec in raw:
        groups.setdefault((rec[0], rec[1]), []).append(rec)
    for recs in groups.values():
        taus = [r[2] for r in recs]
        phases = [r[3] for r in recs]
        unwrapped, ambiguous = unwrap_by_continuity(taus, phases)
        for r, phi_u in zip(recs, unwrapped):
            out.append(CellPhase(beta_nominal=r[0], dEz_dz=r[1], tau_total=r[2],
                                 phi_total=float(phi_u), sigma=r[4],
                                 ambiguous=ambiguous,
                                 signal_fit=r[5], reference_fit=r[6]))
    return out


def joint_fit_campaign(campaign: CampaignDataset,
                       alpha_trap: float = math.pi / 4,
                       float_epsilon1: bool = False,
                       zeeman2_hz: float = 0.0,
                       compute_ci: bool = True) -> tuple:
    """Full chain: fringe fits -> unwrapped phases -> joint fit.

    ``compute_ci`` selects the profile-likelihood CI on Theta (else a
    Gaussian one).  Returns (JointFitResult, list[CellPhase]).
    """
    cells = extract_cell_phases(campaign, zeeman2_hz=zeeman2_hz)
    result = joint_fit_quadrupole(
        [c.beta_nominal for c in cells], [c.dEz_dz for c in cells],
        [c.tau_total for c in cells], [c.phi_total for c in cells],
        [c.sigma for c in cells],
        alpha_trap=alpha_trap, float_epsilon1=float_epsilon1,
        compute_ci=compute_ci)
    return result, cells


def two_stage_theta(cell_phases, alpha_trap: float = math.pi / 4) -> dict:
    """Chained estimate: phase->frequency per (angle, gradient), then
    frequency->gradient slope per angle, then the angular fit of the
    slopes for (Theta, beta0).  Cross-check for the joint fit."""
    freq_points: dict = {}
    for key in {(c.beta_nominal, c.dEz_dz) for c in cell_phases}:
        recs = sorted((c for c in cell_phases
                       if (c.beta_nominal, c.dEz_dz) == key),
                      key=lambda c: c.tau_total)
        fit = fit_phase_vs_time([(c.tau_total, c.phi_total, c.sigma) for c in recs])
        freq_points.setdefault(key[0], []).append(
            (key[1], fit["slope_hz"], fit["slope_hz_sigma"]))

    slopes = []
    for beta, pts in sorted(freq_points.items()):
        fit = fit_frequency_vs_gradient(pts)
        slopes.append((beta, fit["slope"], fit["slope_sigma"]))

    # slopes are Hz per unit gradient: Theta * geometry * K / (2 pi)
    model = _JointModel([s[0] for s in slopes], np.full(len(slopes), 0.5 / math.pi),
                        np.ones(len(slopes)), [s[1] for s in slopes],
                        [s[2] for s in slopes], None, alpha_trap, False)
    search = _search_beta0(model)
    _, lin = model.project(search.x)
    x = [lin[0], search.x]
    hess = _numeric_hessian(model.chi2, x)
    try:
        cov = np.linalg.inv(hess / 2.0)
        sigma_theta = math.sqrt(max(cov[0, 0], 0.0))
    except np.linalg.LinAlgError:
        sigma_theta = float("nan")
    return {"theta": float(x[0]), "beta0": float(x[1]),
            "theta_sigma": sigma_theta,
            "frequency_by_angle": freq_points, "slopes": slopes}


def bootstrap_ci(campaign: CampaignDataset, n_resamples: int, seed: int,
                 alpha_trap: float = math.pi / 4,
                 float_epsilon1: bool = False,
                 zeeman2_hz: float = 0.0,
                 max_failure_fraction: float = 0.05) -> tuple:
    """Percentile bootstrap on Theta via per-point binomial resampling.

    Exact-probability datasets (real-valued counts) pass through
    unchanged, so the interval collapses onto the point estimate.
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
    if failures > max_failure_fraction * n_resamples:
        raise FitConvergenceError(
            f"{failures}/{n_resamples} bootstrap resamples failed to fit",
            {"failures": failures})
    lo, hi = np.percentile(thetas, [2.5, 97.5])
    return float(lo), float(hi)


def _resample_campaign(campaign: CampaignDataset,
                       rng: np.random.Generator) -> CampaignDataset:
    def resample_fringe(fr: FringeDataset) -> FringeDataset:
        pts = []
        for p in fr.points:
            if float(p.k_D).is_integer():
                k = int(rng.binomial(p.n_shots, p.k_D / p.n_shots))
            else:
                k = p.k_D   # exact-probability data: deterministic
            pts.append(replace(p, k_D=k))
        return FringeDataset(tuple(pts), context=dict(fr.context))

    cells = tuple(replace(c, fringe=resample_fringe(c.fringe),
                           reference_fringe=resample_fringe(c.reference_fringe))
                  for c in campaign.cells)
    return CampaignDataset(cells, plan_snapshot=campaign.plan_snapshot,
                           model_snapshot=campaign.model_snapshot)


def cramer_rao_phase_bound(n_total_shots: int, contrast: float) -> float:
    """Lower bound on the fringe-phase std for a uniform phase grid."""
    return math.sqrt(2.0 / (n_total_shots * contrast ** 2))


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
