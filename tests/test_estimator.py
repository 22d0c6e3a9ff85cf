import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import minimize

from ddquad import estimator as est
from ddquad.atommodel import (FieldConfig, IonModel, IonSpecies, NoiseModel,
                              TrapConfig, arm_phase_rate, quadrupole_geometry)
from ddquad.config import paper_scenario
from ddquad.errors import (DegenerateDataError, FitConvergenceError,
                           NonIdentifiableError)
from ddquad.sampler import (CampaignCell, CampaignDataset, CampaignPlan,
                            FringeDataset, FringePoint, campaign_from_csv,
                            campaign_to_csv, default_phi_grid, run_campaign)
from ddquad.sequence import analytic_phase
from bounds import cramer_rao_phase_bound


def make_fringe(phase, contrast=1.0, offset=0.5, n_shots=1000, n_points=12):
    """Exact-probability dataset p = offset + (C/2) cos(phi - phase)."""
    phis = default_phi_grid(n_points)
    points = []
    for phi in phis:
        p = offset + 0.5 * contrast * math.cos(phi - phase)
        points.append(FringePoint(phi_laser=float(phi), n_shots=n_shots,
                                  k_D=n_shots * p))
    return FringeDataset(tuple(points))


def test_wrap_phase():
    assert est.wrap_phase(0.3) == pytest.approx(0.3)
    assert est.wrap_phase(2.0 * math.pi + 0.3) == pytest.approx(0.3)
    assert est.wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert est.wrap_phase(7.0) == pytest.approx(7.0 - 2.0 * math.pi)


def test_fringe_fit_exact_recovery():
    fit = est.fit_fringe_mle(make_fringe(1.0))
    assert fit.phase == pytest.approx(1.0, abs=1e-9)
    assert fit.contrast == pytest.approx(1.0, abs=1e-7)
    assert fit.offset == pytest.approx(0.5, abs=1e-9)
    assert fit.ci95_phase[0] < 1.0 < fit.ci95_phase[1]


def test_fringe_fit_partial_contrast():
    fit = est.fit_fringe_mle(make_fringe(-2.2, contrast=0.6, offset=0.45))
    assert fit.phase == pytest.approx(-2.2, abs=1e-9)
    assert fit.contrast == pytest.approx(0.6, abs=1e-9)
    assert fit.offset == pytest.approx(0.45, abs=1e-9)


def test_fringe_fit_phase_equivariance():
    base = est.fit_fringe_mle(make_fringe(0.4), compute_ci=False)
    shifted = est.fit_fringe_mle(make_fringe(0.4 + 1.1), compute_ci=False)
    assert est.wrap_phase(shifted.phase - base.phase) == pytest.approx(1.1, abs=1e-9)


def test_fringe_fit_degenerate_errors():
    flat = tuple(FringePoint(phi, 100, 50) for phi in default_phi_grid(8))
    with pytest.raises(DegenerateDataError):
        est.fit_fringe_mle(FringeDataset(flat))
    with pytest.raises(DegenerateDataError):
        est.fit_fringe_mle(FringeDataset(tuple(
            FringePoint(phi, 100, 100) for phi in default_phi_grid(8))))
    two = tuple(FringePoint(phi, 100, 70) for phi in (0.0, 1.0))
    with pytest.raises(DegenerateDataError):
        est.fit_fringe_mle(FringeDataset(two))


def test_fringe_fit_sampled_ci_covers():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(60):
        phis = default_phi_grid(12)
        p = 0.5 + 0.5 * np.cos(phis - 0.8)
        pts = tuple(FringePoint(float(phi), 300, int(rng.binomial(300, pi)))
                    for phi, pi in zip(phis, p))
        fit = est.fit_fringe_mle(FringeDataset(pts))
        lo, hi = fit.ci95_phase
        if lo <= 0.8 <= hi:
            hits += 1
    assert hits >= 50   # ~95% nominal coverage


def test_fringe_fit_flags_clamped_phase_ci():
    # 2 shots per phase: the profile likelihood stays below the 95%
    # threshold all the way round, so both bounds sit at phase -+ pi
    pts = tuple(FringePoint(float(phi), 2, k)
                for phi, k in zip(default_phi_grid(4), (0, 1, 1, 1)))
    fit = est.fit_fringe_mle(FringeDataset(pts))
    assert fit.ci95_phase_clamped == ("lower", "upper")
    assert fit.ci95_phase == pytest.approx(
        (fit.phase - math.pi, fit.phase + math.pi), abs=1e-12)
    assert est.fit_fringe_mle(make_fringe(1.0)).ci95_phase_clamped == ()


def test_phase_difference_wraps():
    a = est.fit_fringe_mle(make_fringe(3.0), compute_ci=False)
    b = est.fit_fringe_mle(make_fringe(-3.0), compute_ci=False)
    assert est.phase_difference(b, a) == pytest.approx(
        est.wrap_phase(3.0 - (-3.0)), abs=1e-9)


def test_weighted_linear_fit():
    x = [0.0, 1.0, 2.0, 3.0]
    y = [1.0, 3.0, 5.0, 7.0]
    fit = est.weighted_linear_fit(x, y, [0.1] * 4)
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(1.0, abs=1e-12)
    assert fit["chi2"] == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(DegenerateDataError):
        est.weighted_linear_fit([1.0, 1.0], [0.0, 1.0], [0.1, 0.1])


def test_fit_phase_vs_time_slope():
    # noiseless accumulated phase at beta=0, dE=1e8, Theta=2.973,
    # with the second-order Zeeman channel switched off
    model = IonModel(species=IonSpecies(c2_quad_zeeman=0.0),
                     trap=TrapConfig(dEz_dz=1.0e8),
                     field_cfg=FieldConfig(beta=0.0), theta=2.973)
    pts = []
    for tau_total in (1e-3, 2e-3, 3e-3, 4e-3):
        phi = analytic_phase(8, tau_total / 16.0, model)
        pts.append((tau_total, phi, 1e-3))
    out = est.fit_phase_vs_time(pts)
    assert out["slope_hz"] == pytest.approx(181.17, abs=0.01)
    assert out["slope"] == pytest.approx(
        arm_phase_rate(model.trap, 2.973, 0.0), rel=1e-12)
    assert abs(out["intercept"]) < 1e-9


def test_fit_phase_vs_time_zero_slope_ci():
    out = est.fit_phase_vs_time([(1e-3, 0.2, 0.05), (2e-3, 0.2, 0.05),
                                 (3e-3, 0.2, 0.05)])
    half = 1.96 * out["slope_sigma"]
    assert out["slope"] - half < 0.0 < out["slope"] + half


def test_fit_frequency_vs_gradient():
    grads = [0.5e8, 1.0e8, 1.5e8]
    freqs = [181.17 * g / 1e8 for g in grads]
    out = est.fit_frequency_vs_gradient([(g, f, 0.1) for g, f in zip(grads, freqs)])
    assert out["slope"] == pytest.approx(1.8117e-6, rel=1e-4)
    assert abs(out["intercept"]) < 1e-9
    flipped = est.fit_frequency_vs_gradient(
        [(g, -f, 0.1) for g, f in zip(grads, freqs)])
    assert flipped["slope"] == pytest.approx(-out["slope"], rel=1e-12)


def test_unwrap_by_continuity():
    true = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    wrapped = np.array([est.wrap_phase(v) for v in true])
    out, ambiguous = est.unwrap_by_continuity([1, 2, 3, 4, 5], wrapped)
    np.testing.assert_allclose(out, true, atol=1e-12)
    assert not ambiguous
    # a 2 rad jump between consecutive points is flagged
    _, flag = est.unwrap_by_continuity([1, 2], [0.0, 2.0])
    assert flag


def test_unwrap_takes_tied_x_in_input_order():
    # numpy's default argsort may reorder equal keys (it reversed these),
    # which made the unwrapped values depend on the sort implementation
    phases = [0.0, 24.0, -2.5, 15.0]
    tied = est.unwrap_by_continuity([1.0, 1.0, 0.0, 0.0], phases, anchor=1.0)
    split = est.unwrap_by_continuity([1.0, 1.5, 0.0, 0.5], phases, anchor=1.0)
    np.testing.assert_array_equal(tied[0], split[0])
    assert tied[1] == split[1]


def make_noiseless_cells(theta=2.973, beta0=0.1, betas=(0.0, 0.4, 0.8, 1.2),
                         grads=(0.5e8, 1.0e8, 1.5e8), taus=(1e-3, 2e-3),
                         offsets=None, sigma=1e-4, epsilon1=0.0,
                         alpha=math.pi / 4):
    """Synthetic unwrapped phases straight from the arm-rate formula."""
    rows = {"beta": [], "grad": [], "tau": [], "phi": [], "sigma": []}
    for i, beta in enumerate(betas):
        c_k = 0.0 if offsets is None else offsets[i]
        for grad in grads:
            trap = TrapConfig(dEz_dz=grad, epsilon1=epsilon1, alpha=alpha)
            for tau in taus:
                phi = tau * arm_phase_rate(trap, theta, beta + beta0) + c_k
                rows["beta"].append(beta)
                rows["grad"].append(grad)
                rows["tau"].append(tau)
                rows["phi"].append(phi)
                rows["sigma"].append(sigma)
    return rows


def test_joint_fit_noiseless_recovery():
    rows = make_noiseless_cells(offsets=(0.05, -0.1, 0.15, 0.0))
    res = est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                   rows["phi"], rows["sigma"])
    assert res.theta == pytest.approx(2.973, rel=1e-6)
    assert res.beta0 == pytest.approx(0.1, abs=1e-6)
    assert res.epsilon1 == 0.0
    np.testing.assert_allclose(res.per_angle_offsets, (0.05, -0.1, 0.15, 0.0),
                               atol=1e-6)
    assert res.ci95_theta[0] < 2.973 < res.ci95_theta[1]
    assert res.chi2 < 1e-6


@given(beta0=st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
       float_epsilon1=st.booleans())
@example(beta0=0.8, float_epsilon1=False)
@example(beta0=1.0, float_epsilon1=False)
@example(beta0=-1.2, float_epsilon1=False)
@example(beta0=math.pi / 2 - 0.05, float_epsilon1=False)
@example(beta0=0.9, float_epsilon1=True)
def test_joint_fit_finds_global_beta0(beta0, float_epsilon1):
    """Noise-free phases give back Theta and beta0 (mod pi) wherever beta0
    lies, with |eps1| <= 1, and a 1e-13 rad perturbation of the phases
    moves Theta by no more than 1e-12."""
    eps1 = 0.08 if float_epsilon1 else 0.0
    rows = make_noiseless_cells(beta0=beta0, offsets=(0.05, -0.1, 0.15, 0.0),
                                epsilon1=eps1, alpha=0.3)
    fit = lambda phi: est.joint_fit_quadrupole(
        rows["beta"], rows["grad"], rows["tau"], phi, rows["sigma"],
        alpha_trap=0.3, float_epsilon1=float_epsilon1, compute_ci=False)
    res = fit(rows["phi"])
    assert abs(res.theta - 2.973) <= 1e-9
    assert abs(math.remainder(res.beta0 - beta0, math.pi)) <= 1e-9
    assert -math.pi / 2 < res.beta0 <= math.pi / 2
    assert abs(res.epsilon1 - eps1) <= 1e-9
    rng = np.random.default_rng(7)
    nudged = fit(np.asarray(rows["phi"]) + rng.normal(0.0, 1e-13, len(rows["phi"])))
    assert abs(nudged.theta - res.theta) <= 1e-12


@pytest.mark.parametrize("betas, float_epsilon1, alpha, tied", [
    ((0.0, 0.375, 0.75, 1.125, 1.5), False, math.pi / 4, 1),
    ((0.0, 0.375, 0.75, 1.125, 1.5), True, 0.3, 1),
    ((0.0, 0.8), False, math.pi / 4, 2),
])
def test_joint_fit_counts_tied_minima(betas, float_epsilon1, alpha, tied):
    """The paper's five angles leave one minimum with |eps1| <= 1 (with eps1
    free, beta0 + pi/2 ties but has |eps1| > 1); one angle pair leaves two."""
    rows = make_noiseless_cells(betas=betas, beta0=0.05, alpha=alpha,
                                epsilon1=0.08 if float_epsilon1 else 0.0)
    res = est.joint_fit_quadrupole(
        rows["beta"], rows["grad"], rows["tau"], rows["phi"], rows["sigma"],
        alpha_trap=alpha, float_epsilon1=float_epsilon1, compute_ci=False)
    assert res.fit_diagnostics["tied_minima"] == tied


def test_two_stage_theta_finds_global_beta0():
    model = IonModel(field_cfg=FieldConfig(beta0=0.9))
    camp = exact_campaign(model)
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    res, cells = est.joint_fit_campaign(camp, zeeman2_hz=z2)
    out = est.two_stage_theta(cells)
    assert res.theta == pytest.approx(2.973, abs=1e-9)
    assert res.beta0 == pytest.approx(0.9, abs=1e-9)
    assert out["theta"] == pytest.approx(2.973, abs=1e-9)
    assert out["beta0"] == pytest.approx(0.9, abs=1e-9)


def test_joint_fit_single_angle_rejected():
    rows = make_noiseless_cells(betas=(0.5,))
    with pytest.raises(NonIdentifiableError):
        est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                 rows["phi"], rows["sigma"])


@pytest.mark.parametrize("betas, alpha, message", [
    ((0.0, 0.8), 0.3, ">= 3 angles, got 2"),
    ((0.3, 1.1), 0.3, ">= 3 angles, got 2"),
    ((0.0, 0.8, 1.5), math.pi / 4, r"cos\(2 alpha\) = 6.1e-17"),
], ids=["betas0", "betas1", "alpha_pi_over_4"])
def test_joint_fit_two_angles_with_free_epsilon1_rejected(betas, alpha,
                                                          message):
    """Two per-angle slopes cannot fix Theta, beta0 and eps1, and at
    cos 2alpha = 0 eps1 drops out of the model: a typed error that says
    so, not a failed beta0 search or a wild eps1.  A fixed eps1 fits, and
    so do three angles at alpha = 0.3."""
    rows = make_noiseless_cells(betas=betas, beta0=0.05, epsilon1=0.08,
                                alpha=alpha)
    with pytest.raises(NonIdentifiableError, match=message):
        est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                 rows["phi"], rows["sigma"], alpha_trap=alpha,
                                 float_epsilon1=True)
    est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                             rows["phi"], rows["sigma"], alpha_trap=alpha)
    rows = make_noiseless_cells(betas=betas + (0.4,), beta0=0.05,
                                epsilon1=0.08, alpha=0.3)
    res = est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                   rows["phi"], rows["sigma"], alpha_trap=0.3,
                                   float_epsilon1=True, compute_ci=False)
    assert res.theta == pytest.approx(2.973, abs=1e-9)


def test_joint_fit_zero_gradients_rejected():
    # singular normal equations surface as a typed error, not LinAlgError
    rows = make_noiseless_cells(grads=(0.0,), offsets=(0.05, -0.1, 0.15, 0.0))
    with pytest.raises(NonIdentifiableError):
        est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                 rows["phi"], rows["sigma"])


def test_joint_fit_zero_phases_with_free_epsilon1_rejected():
    # Theta = 0 leaves eps1 = (3a - b) / (cos 2alpha (a + b)) undefined: a
    # typed error, not ZeroDivisionError
    rows = make_noiseless_cells(theta=0.0, alpha=0.3)
    with pytest.raises(NonIdentifiableError):
        est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                 rows["phi"], rows["sigma"], alpha_trap=0.3,
                                 float_epsilon1=True)


def merged_cells(*parts):
    """The rows of several ``make_noiseless_cells`` calls, as one set."""
    return {key: sum((part[key] for part in parts), []) for key in parts[0]}


@pytest.mark.parametrize("rows, float_epsilon1, sloped", [
    (make_noiseless_cells(grads=(1e8,), taus=(1e-3,)), False, 0),
    (merged_cells(make_noiseless_cells(betas=(0.0,), grads=(1e8,)),
                  make_noiseless_cells(betas=(0.4, 0.8), grads=(1e8,),
                                       taus=(1e-3,))), False, 1),
    # 2e8 * 1e-3 and 1e8 * 2e-3 are the same double
    (merged_cells(make_noiseless_cells(grads=(2e8,), taus=(1e-3,)),
                  make_noiseless_cells(grads=(1e8,), taus=(2e-3,))), False, 0),
    (merged_cells(make_noiseless_cells(betas=(0.0, 0.4), alpha=0.3),
                  make_noiseless_cells(betas=(0.8,), grads=(1e8,),
                                       taus=(1e-3,), alpha=0.3)), True, 2),
], ids=["one_cell_per_angle", "two_taus_at_one_angle", "equal_scale",
        "two_slopes_with_free_epsilon1"])
def test_joint_fit_too_few_sloped_angles_rejected(rows, float_epsilon1,
                                                  sloped):
    """An angle's offset is profiled out, so only an angle whose cells span
    two values of tau_total * dEz/dz carries a slope.  Too few such angles
    is a typed error that counts them, not a flat likelihood blamed on the
    magic angle or an unbracketed beta0."""
    with pytest.raises(NonIdentifiableError, match=f"got {sloped}$"):
        est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                 rows["phi"], rows["sigma"], alpha_trap=0.3,
                                 float_epsilon1=float_epsilon1)


@pytest.mark.parametrize("float_epsilon1", [False, True])
def test_joint_fit_minimizes_full_chi2(float_epsilon1):
    """The fit is the minimum of chi^2 written out in every parameter,
    offsets included, and each CI bound lies where the nuisance-minimized
    chi^2 has risen by the 95% threshold."""
    sigma = 0.02
    rows = make_noiseless_cells(offsets=(0.05, -0.1, 0.15, 0.0), sigma=sigma)
    rng = np.random.default_rng(20160401)
    phi = np.asarray(rows["phi"]) + rng.normal(0.0, sigma, len(rows["phi"]))
    res = est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                   phi, rows["sigma"], alpha_trap=0.0,
                                   float_epsilon1=float_epsilon1)
    betas = np.asarray(rows["beta"])
    angle = np.unique(betas, return_inverse=True)[1]
    scale = (np.asarray(rows["tau"]) * est.ARM_RATE_PER_GRADIENT_THETA
             * np.asarray(rows["grad"]))

    def chi2(theta, nuisance):
        # nuisance = (beta0[, eps1], c_0 .. c_3)
        eps1 = nuisance[1] if float_epsilon1 else 0.0
        geom = np.array([quadrupole_geometry(b + nuisance[0], eps1, alpha=0.0)
                         for b in betas])
        model = scale * theta * geom + np.asarray(nuisance[-4:])[angle]
        return float(np.sum((phi - model) ** 2)) / sigma ** 2

    nuisance = ([res.beta0] + ([res.epsilon1] if float_epsilon1 else [])
                + list(res.per_angle_offsets))
    chi2_min = chi2(res.theta, nuisance)
    assert chi2_min == pytest.approx(res.chi2, rel=1e-9)
    full = minimize(lambda p: chi2(p[0], p[1:]), [res.theta] + nuisance,
                    method="BFGS")
    assert full.fun > chi2_min - 1e-9
    for bound in res.ci95_theta:
        prof = minimize(lambda nu: chi2(bound, nu), nuisance, method="BFGS")
        assert prof.fun - chi2_min == pytest.approx(est.CHI2_95_1DOF, abs=1e-4)


def _numeric_hessian(fun, x, rel_step=1e-5):
    """Central-difference Hessian of ``fun`` at ``x``, each step
    ``rel_step`` max(|x_i|, 1)."""
    x = np.asarray(x, dtype=float)
    steps = np.diag(np.maximum(np.abs(x), 1.0) * rel_step)
    hess = np.empty((len(x), len(x)))
    for i, j in itertools.combinations_with_replacement(range(len(x)), 2):
        ei, ej = steps[i], steps[j]
        f = [fun(x + si * ei + sj * ej) for si in (1, -1) for sj in (1, -1)]
        hess[i, j] = hess[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4 * ei[i] * ej[j])
    return hess


def _sigma_from_numeric_hessian(chi2, x):
    """sqrt(2 [H^-1]_00) of the chi^2 ``chi2`` of the parameters ``x``."""
    return math.sqrt(2.0 * np.linalg.inv(_numeric_hessian(chi2, x))[0, 0])


@given(beta0=st.floats(-math.pi / 2, math.pi / 2),
       float_epsilon1=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_theta_sigma_matches_the_full_chi2_hessian(beta0, float_epsilon1,
                                                   seed):
    """theta_sigma of the joint fit, and of two_stage_theta, is
    sqrt(2 [H^-1]_00) with H the Hessian of chi^2 written out in every
    parameter (Theta, beta0[, eps1], c_k), here by central differences,
    to 1e-6 relative, on noisy phases."""
    sigma, alpha = 0.02, 0.3
    rows = make_noiseless_cells(beta0=beta0, offsets=(0.05, -0.1, 0.15, 0.0),
                                sigma=sigma, alpha=alpha,
                                epsilon1=0.08 if float_epsilon1 else 0.0)
    rng = np.random.default_rng(seed)
    phi = np.asarray(rows["phi"]) + rng.normal(0.0, sigma, len(rows["phi"]))
    res = est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                   phi, rows["sigma"], alpha_trap=alpha,
                                   float_epsilon1=float_epsilon1,
                                   compute_ci=False)
    betas = np.asarray(rows["beta"])
    angle = np.unique(betas, return_inverse=True)[1]
    scale = (np.asarray(rows["tau"]) * est.ARM_RATE_PER_GRADIENT_THETA
             * np.asarray(rows["grad"]))

    def chi2(p):    # p = (Theta, beta0[, eps1], c_0 .. c_3)
        eps1 = p[2] if float_epsilon1 else 0.0
        geom = np.array([quadrupole_geometry(b + p[1], eps1, alpha=alpha)
                         for b in betas])
        model = scale * p[0] * geom + p[-4:][angle]
        return float(np.sum((phi - model) ** 2)) / sigma ** 2

    x = ([res.theta, res.beta0] + ([res.epsilon1] if float_epsilon1 else [])
         + list(res.per_angle_offsets))
    assert res.theta_sigma == pytest.approx(_sigma_from_numeric_hessian(chi2, x),
                                            rel=1e-6)

    out = est.two_stage_theta(
        [est.CellPhase(*cell, sigma=sigma, ambiguous=False)
         for cell in zip(rows["beta"], rows["grad"], rows["tau"], phi)],
        alpha_trap=alpha)
    slope_betas, slopes, slope_sigmas = map(np.asarray, zip(*out["slopes"]))

    def chi2_slopes(p):     # p = (Theta, beta0); slopes in Hz per gradient
        geom = np.array([quadrupole_geometry(b + p[1]) for b in slope_betas])
        model = p[0] * est.ARM_RATE_PER_GRADIENT_THETA * geom / (2.0 * math.pi)
        return float(np.sum(((slopes - model) / slope_sigmas) ** 2))

    assert out["theta_sigma"] == pytest.approx(
        _sigma_from_numeric_hessian(chi2_slopes, [out["theta"], out["beta0"]]),
        rel=1e-6)


def test_joint_fit_float_epsilon1():
    # build phases with a nonzero trap asymmetry and refit it;
    # alpha = 0 so the epsilon1 term does not vanish (at alpha = pi/4
    # cos 2alpha = 0 and epsilon1 is unidentifiable by construction)
    theta, beta0, eps1 = 2.973, 0.05, 0.08
    rows = {"beta": [], "grad": [], "tau": [], "phi": [], "sigma": []}
    for beta in (0.0, 0.4, 0.8, 1.2):
        for grad in (0.5e8, 1.0e8, 1.5e8):
            for tau in (1e-3, 2e-3):
                rate = (est.ARM_RATE_PER_GRADIENT_THETA * grad * theta
                        * quadrupole_geometry(beta + beta0, eps1, alpha=0.0))
                rows["beta"].append(beta)
                rows["grad"].append(grad)
                rows["tau"].append(tau)
                rows["phi"].append(tau * rate)
                rows["sigma"].append(1e-4)
    res = est.joint_fit_quadrupole(rows["beta"], rows["grad"], rows["tau"],
                                   rows["phi"], rows["sigma"], alpha_trap=0.0,
                                   float_epsilon1=True, compute_ci=False)
    assert res.theta == pytest.approx(theta, rel=1e-5)
    assert res.epsilon1 == pytest.approx(eps1, abs=1e-4)


NO_NOISE = NoiseModel()
# gradients and times kept small enough that consecutive unwrap steps
# stay below pi/2 at every angle
EXACT_PLAN = CampaignPlan(beta_list=(0.0, 0.4, 0.8, 1.2),
                          gradient_list=(0.2e8, 0.4e8),
                          tau_total_list=(0.5e-3, 1e-3, 1.5e-3),
                          n_echo=8, shots_per_point=200, n_phases=8,
                          exact_probabilities=True)


def exact_campaign(model=None):
    model = model or IonModel()
    return run_campaign(EXACT_PLAN, model, NO_NOISE, 1)


def test_joint_fit_campaign_noiseless():
    model = IonModel()
    camp = exact_campaign(model)
    z2 = (model.species.c2_quad_zeeman * model.field_cfg.B ** 2)
    res, cells = est.joint_fit_campaign(camp, zeeman2_hz=z2)
    assert res.theta == pytest.approx(2.973, rel=1e-6)
    assert len(cells) == len(camp.cells)
    assert all(not c.ambiguous for c in cells)


def test_two_stage_theta_matches_joint():
    model = IonModel()
    camp = exact_campaign(model)
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    cells = est.extract_cell_phases(camp, zeeman2_hz=z2)
    out = est.two_stage_theta(cells)
    assert out["theta"] == pytest.approx(2.973, rel=1e-6)
    assert out["beta0"] == pytest.approx(0.0, abs=1e-5)


def test_stalled_fringe_fit_stops_after_one_backtrack(monkeypatch):
    # the full-contrast reference fringes converge against the probability
    # clip; each fit must give up after one failed backtrack, not repeat
    # the halvings of a step that cannot lower the NLL
    camp = exact_campaign()
    calls = []
    nll = est._nll_and_derivs
    monkeypatch.setattr(est, "_nll_and_derivs",
                        lambda *a: calls.append(1) or nll(*a))
    per_fit = []
    for cell in camp.cells:
        for fringe in (cell.fringe, cell.reference_fringe):
            calls.clear()
            est.fit_fringe_mle(fringe, compute_ci=False)
            per_fit.append(len(calls))
    assert max(per_fit) <= 64
    assert sum(per_fit) <= 32 * len(per_fit)


def test_bootstrap_exact_data_has_zero_width():
    camp = exact_campaign()
    model = IonModel()
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    lo, hi = est.bootstrap_ci(camp, 100, 3, zeeman2_hz=z2)
    assert hi - lo < 1e-9
    assert (lo, hi) == est.bootstrap_ci(camp, 100, 3, zeeman2_hz=z2)


def test_bootstrap_noisy_campaign():
    plan = replace(EXACT_PLAN, exact_probabilities=False, shots_per_point=150,
                   beta_list=(0.0, 0.8), tau_total_list=(0.5e-3, 1e-3))
    model = IonModel()
    camp = run_campaign(plan, model, NoiseModel(kind="quasi_static", sigma_B=5e-8),
                        7)
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    lo, hi = est.bootstrap_ci(camp, 100, 11, zeeman2_hz=z2)
    point, _ = est.joint_fit_campaign(camp, zeeman2_hz=z2, compute_ci=False)
    assert lo < point.theta < hi
    # small campaign: just check the interval is finite and non-degenerate
    assert 0.0 < hi - lo < 5.0


@pytest.mark.parametrize("order", [
    (7, 6, 5, 4, 3, 2, 1, 0), (3, 0, 6, 1, 7, 4, 2, 5), (5, 2, 7, 0, 4, 1, 6, 3),
], ids=["reversed", "shuffle_a", "shuffle_b"])
def test_campaign_fits_and_resamples_alike_in_any_cell_order(order):
    # the joint fit sums, and the bootstrap draws, over cells in the
    # dataset's own order; a reversed campaign moved ci95_theta[0] and
    # theta_sigma in their last digits, and drew other counts
    plan = replace(EXACT_PLAN, exact_probabilities=False, shots_per_point=60,
                   beta_list=(0.0, 0.8), tau_total_list=(0.5e-3, 1e-3))
    camp = run_campaign(plan, IonModel(),
                        NoiseModel(kind="quasi_static", sigma_B=5e-8), 3)
    reordered = CampaignDataset(tuple(camp.cells[i] for i in order))
    assert est.joint_fit_campaign(reordered)[0] == \
        est.joint_fit_campaign(camp)[0]
    by_key = lambda ds: {(c.beta_nominal, c.dEz_dz, c.tau_total): c
                         for c in ds.cells}
    draws = [by_key(est._resample_campaign(ds, np.random.default_rng(9)))
             for ds in (camp, reordered)]
    assert draws[0] == draws[1]


def campaign_points(campaign):
    """Each cell's signal, then reference points, in the cells' order."""
    return [p for c in campaign.cells
            for fr in (c.fringe, c.reference_fringe) for p in fr.points]


def scalar_resample(campaign, rng):
    """The counts resampled one point at a time: the loop that
    ``_resample_campaign``'s single draw replaced."""
    return [int(rng.binomial(p.n_shots, p.k_D / p.n_shots))
            if isinstance(p.k_D, int) else p.k_D
            for p in campaign_points(campaign)]


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.integers(1, 8))
def test_one_call_resample_draws_as_the_scalar_loop(data_seed, seed, n_cells,
                                                    n_points):
    # counts at p = 0 and p = 1, and exact-mode points (real-valued n p,
    # whole or not) that pass through undrawn
    rng = np.random.default_rng(data_seed)

    def fringe():
        n = rng.integers(1, 500, n_points)
        kind = rng.integers(0, 5, n_points)
        k = np.select([kind == 0, kind == 1, kind == 2],
                      [0, n, rng.uniform(0.01, 0.99, n_points) * n],
                      rng.integers(0, n + 1))
        return FringeDataset(tuple(
            FringePoint(0.1 * j, int(n[j]),
                        float(k[j]) if kind[j] in (2, 3) else int(k[j]))
            for j in range(n_points)))

    camp = CampaignDataset(tuple(
        CampaignCell(0.1 * i, 1e8, 1e-3, 8, fringe(), fringe())
        for i in range(n_cells)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [p.k_D for p in
           campaign_points(est._resample_campaign(camp, got_rng))]
    want = scalar_resample(camp, want_rng)
    assert [(type(k), k) for k in got] == [(type(k), k) for k in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_resample_passes_whole_exact_counts_through():
    # the seed-11 paper campaign in exact mode, read back from its CSV:
    # 1% detection errors put 120 of its 960 points at k_D = 3.0 or 297.0,
    # real-valued n p that a test for integral values redrew
    cfg = paper_scenario(11)
    camp = campaign_from_csv(campaign_to_csv(run_campaign(
        replace(cfg.plan, exact_probabilities=True), cfg.ion_model(),
        cfg.noise, cfg.seed, detection=cfg.detection)))
    points = campaign_points(camp)
    assert sum(float(p.k_D).is_integer() for p in points) == 120
    resampled = campaign_points(
        est._resample_campaign(camp, np.random.default_rng(0)))
    assert [(type(p.k_D), p.k_D) for p in resampled] == \
        [(type(p.k_D), p.k_D) for p in points]


@pytest.mark.parametrize("failures", [5, 6])
def test_bootstrap_fails_past_its_failure_fraction(monkeypatch, failures):
    """Of 100 resamples, 5 failed fits still give an interval; 6 raise."""
    errors = (DegenerateDataError("d"), FitConvergenceError("c"),
              NonIdentifiableError("n"))
    calls = []

    def fit(campaign, **options):
        calls.append(campaign)
        if len(calls) <= failures:
            raise errors[len(calls) % len(errors)]
        return est.JointFitResult(
            theta=float(len(calls)), beta0=0.0, epsilon1=0.0,
            per_angle_offsets=(), ci95_theta=(0.0, 0.0), theta_sigma=1.0,
            chi2=0.0, ndof=1), []

    monkeypatch.setattr(est, "joint_fit_campaign", fit)
    assert est.BOOTSTRAP_MAX_FAILURE_FRACTION == 0.05
    camp = CampaignDataset(())     # resampled as is; the fit is the stub
    if failures > 5:
        with pytest.raises(FitConvergenceError, match=f"{failures}/100"):
            est.bootstrap_ci(camp, 100, 3)
    else:
        lo, hi = est.bootstrap_ci(camp, 100, 3)
        assert failures + 1 < lo < hi < 100
    assert len(calls) == 100


def test_cramer_rao_bound_value():
    # small-contrast bound: sqrt(2 / (N_total C^2))
    assert cramer_rao_phase_bound(3600, 1.0) == pytest.approx(
        math.sqrt(2.0 / 3600.0))
    assert cramer_rao_phase_bound(3600, 0.5) == pytest.approx(
        2.0 * math.sqrt(2.0 / 3600.0))


def test_theta_comparison_report():
    res = est.JointFitResult(theta=2.973, beta0=0.0, epsilon1=0.0,
                             per_angle_offsets=(), ci95_theta=(2.95, 2.99),
                             theta_sigma=0.01, chi2=0.0, ndof=1)
    rows = est.theta_comparison_report(res, [("a", 2.973, 0.1), ("b", 3.3, 0.1)])
    assert rows[0]["label"] == "a"
    assert rows[0]["deviation_sigma"] == pytest.approx(0.0, abs=1e-12)
    assert rows[1]["deviation_sigma"] < -3.0


def test_dataset_digest_stability():
    assert est.dataset_digest("abc") == est.dataset_digest("abc")
    assert est.dataset_digest("abc") != est.dataset_digest("abd")


# -- why each fringe fit stopped -------------------------------------------------

def test_fringe_fit_stop_counts_cover_every_fit():
    plan = replace(EXACT_PLAN, exact_probabilities=False, shots_per_point=150,
                   beta_list=(0.0, 0.8))
    camp = run_campaign(plan, IonModel(),
                        NoiseModel(kind="quasi_static", sigma_B=5e-8), 7)
    res, cells = est.joint_fit_campaign(camp, compute_ci=False)
    stops = res.fit_diagnostics["fringe_fit_stops"]
    assert tuple(stops) == est.NEWTON_STOPS
    assert sum(stops.values()) == 2 * len(camp.cells)
    fits = [f for c in cells for f in (c.signal_fit, c.reference_fit)]
    assert all(f.stop in est.NEWTON_STOPS and f.iterations >= 1 for f in fits)
    assert stops == {s: sum(f.stop == s for f in fits) for s in est.NEWTON_STOPS}


def test_exact_campaign_fits_stop_without_a_failed_backtrack():
    # exact n*p counts: every fit ends on an accepted step, either at the
    # gradient test or with no NLL progress left against the clip
    res, cells = est.joint_fit_campaign(exact_campaign(), compute_ci=False)
    stops = res.fit_diagnostics["fringe_fit_stops"]
    assert stops["gradient"] + stops["no_progress"] == 2 * len(cells)


def test_stop_reason_does_not_enter_fit_equality():
    fit = est.fit_fringe_mle(make_fringe(0.4), compute_ci=False)
    assert replace(fit, stop="max_iter", iterations=999) == fit


# -- invariants ----------------------------------------------------------------

@st.composite
def binomial_fringes(draw):
    """Counts drawn from p = offset + (C/2) cos(phi - phase) on a shifted
    equal grid, at 3-16 laser phases, each kept strictly inside (0, n):
    then the likelihood vanishes where any p reaches 0 or 1, and the MLE
    is interior (a count of 0 or n is the clipped case below)."""
    n_points = draw(st.integers(3, 16))
    phis = default_phi_grid(n_points) + draw(st.floats(-1.0, 1.0))
    contrast = draw(st.floats(0.05, 0.9))
    offset = draw(st.floats(0.5 * contrast + 0.02, 0.98 - 0.5 * contrast))
    phase = draw(st.floats(-math.pi, math.pi))
    n_shots = draw(st.integers(20, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = rng.binomial(n_shots, offset + 0.5 * contrast * np.cos(phis - phase))
    return phis, n_shots, np.clip(k, 1, n_shots - 1)


@given(binomial_fringes(), st.floats(-10.0, 10.0))
def test_fringe_fit_is_equivariant_under_a_global_phase_shift(fringe, delta):
    """Adding delta to every laser phase moves the fitted phase by delta
    (mod 2 pi) and leaves contrast and offset alone."""
    phis, n_shots, k = fringe
    try:
        base = _fit_shifted(phis, n_shots, k, 0.0)
    except DegenerateDataError:
        return
    _assert_moved_by(base, _fit_shifted(phis, n_shots, k, delta), delta)


@given(binomial_fringes())
def test_phase_sigma_matches_the_jacobian_formula(fringe):
    """phase_sigma, from the (a, b, c) information, equals the phase entry
    of the inverse information in (phase, contrast, offset), J^T H J with
    J = d(a, b, c) / d(phase, contrast, offset), to 1e-12 relative."""
    phis, n_shots, k = fringe
    try:
        fit = _fit_shifted(phis, n_shots, k, 0.0)
    except DegenerateDataError:
        return
    assume(fit.contrast < 1.0)      # the reported contrast is capped at 1
    half, cp, sp = fit.contrast / 2.0, math.cos(fit.phase), math.sin(fit.phase)
    x = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    p = np.array([fit.offset, half * cp, half * sp]) @ x
    hess = (x * (k / p ** 2 + (n_shots - k) / (1.0 - p) ** 2)) @ x.T
    jac = np.array([[0.0, 0.0, 1.0],
                    [-half * sp, 0.5 * cp, 0.0],
                    [half * cp, 0.5 * sp, 0.0]])
    cov = np.linalg.inv(jac.T @ hess @ jac)
    assert fit.phase_sigma == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)


def _fit_shifted(phis, n_shots, k, shift):
    return est.fit_fringe_mle(FringeDataset(tuple(
        FringePoint(float(phi + shift), n_shots, int(kk))
        for phi, kk in zip(phis, k))), compute_ci=False)


def _assert_moved_by(base, moved, delta):
    assert abs(math.remainder(moved.phase - base.phase - delta, 2 * math.pi)) \
        <= 1e-8
    assert abs(moved.contrast - base.contrast) <= 1e-8
    assert abs(moved.offset - base.offset) <= 1e-8


# Two ways the property above fails, found by it with more examples (or
# without its (0, n) count condition).  Both need a change to the Newton
# iteration that moves fitted phases, so they stay open.
@pytest.mark.xfail(strict=True, reason="known fringe-fit defects")
@pytest.mark.parametrize("phis, n_shots, k, delta", [
    # a count of 0 puts the MLE on the probability clip, where Newton stops
    # at a start-dependent point: offset -0.436 unshifted, -0.421 shifted
    (default_phi_grid(3) + 0.5, 20, [0, 7, 8], 1.0),
    # near the optimum the backtracking compares NLLs (~1.3e4) that differ
    # by less than their rounding, accepts a partial step and stops with
    # "no_progress" 5e-9 from the MLE in (b, c): 3.4e-8 rad of phase
    (default_phi_grid(14) + 0.93, 1372,
     [735, 699, 626, 545, 540, 523, 525, 625, 623, 679, 714, 809, 789, 740],
     0.1),
], ids=["clipped", "nll_rounding"])
def test_fringe_fit_equivariance_known_failures(phis, n_shots, k, delta):
    _assert_moved_by(_fit_shifted(phis, n_shots, k, 0.0),
                     _fit_shifted(phis, n_shots, k, delta), delta)


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-50.0, 50.0)),
                min_size=1, max_size=12),
       st.floats(-10.0, 10.0))
def test_unwrap_keeps_phases_mod_2pi_and_steps_small(points, anchor):
    x = [p[0] for p in points]
    phases = [p[1] for p in points]
    out, ambiguous = est.unwrap_by_continuity(x, phases, anchor=anchor)
    for got, want in zip(out, phases):
        assert abs(math.remainder(got - want, 2 * math.pi)) <= 1e-12
    if not ambiguous:
        ordered = out[np.argsort(x, kind="stable")]
        assert np.all(np.abs(np.diff(ordered)) <= math.pi / 2)
