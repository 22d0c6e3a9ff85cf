"""End-to-end acceptance checks, one test per release criterion.

Each test records a PASS/FAIL line in the terminal summary via the
``acceptance`` fixture and then asserts, so a red criterion also fails
the suite.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import comb

from ddquad import atommodel as am
from ddquad import sequence as sq
from ddquad.cli import main as cli_main
from ddquad.config import paper_scenario
from ddquad.estimator import (extract_cell_phases, fit_fringe_mle,
                              fit_frequency_vs_gradient,
                              fit_phase_vs_time, joint_fit_campaign,
                              phase_difference, wrap_phase)
from ddquad.sampler import (FringeDataset, FringePoint, measure_population_D,
                            run_campaign)
from ddquad.spincore import rotation_unitary
from bounds import cramer_rao_phase_bound


NO_C2 = am.IonModel(species=am.IonSpecies(c2_quad_zeeman=0.0))


def exact_phi_total(model, n_echo, tau, trajectory=None, rf_area_error=0.0):
    """Reference-subtracted fringe phase from exact probabilities."""
    def scan(tau_w):
        pts = []
        for phi in np.linspace(0, 2 * math.pi, 13)[:-1]:
            seq = sq.build_quadrupole_dd_sequence(n_echo, tau_w,
                                                  laser_phase=float(phi))
            if rf_area_error:
                seq = sq.PulseSequence(
                    elements=tuple(
                        replace(e, area=math.pi * (1 + rf_area_error))
                        if isinstance(e, sq.RFPulse) else e
                        for e in seq.elements))
            psi = sq.run_sequence(sq.initial_state(), seq, model,
                                  trajectory=trajectory)
            p = min(max(float(measure_population_D(psi)), 0.0), 1.0)
            pts.append(FringePoint(float(phi), 1000, 1000 * p))
        return fit_fringe_mle(FringeDataset(tuple(pts)), compute_ci=False)

    return phase_difference(scan(tau), scan(0.0))


def arm_phase_at_state_level(model, elements, trajectory=None):
    """Relative phase of the {-5/2, -1/2} arm pair after ``elements``."""
    seq = sq.PulseSequence(tuple(elements) + (sq.Measure(),))
    psi = sq.run_sequence(sq.initial_state(), seq, model,
                          trajectory=trajectory)
    return float(np.angle(psi[2] * np.conj(psi[4])))


PREP = (sq.OpticalPulse(target_m=-2.5, area=math.pi / 2, laser_phase=0.0),
        sq.OpticalPulse(target_m=-0.5, area=math.pi, laser_phase=0.0))


def test_criterion_01_arm_rate_identity(acceptance):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        trap = am.TrapConfig(dEz_dz=float(rng.uniform(1e7, 2e8)),
                             epsilon1=float(rng.uniform(-0.5, 0.5)),
                             alpha=float(rng.uniform(0, 2 * math.pi)))
        theta = float(rng.uniform(1.0, 4.0))
        beta = float(rng.uniform(0, math.pi))
        rate = am.arm_phase_rate(trap, theta, beta)
        oracle = 2.0 * math.pi * (am.quadrupole_shift(0.5, trap, theta, beta)
                                  - am.quadrupole_shift(2.5, trap, theta, beta))
        if oracle != 0.0:
            worst = max(worst, abs(rate - oracle) / abs(oracle))
    passed = worst <= 1e-10
    acceptance(1, "arm phase rate equals 2*pi*(shift(1/2)-shift(5/2)), "
                  "1000 random draws, rel <= 1e-10", passed)
    assert passed, f"worst relative error {worst:.3e}"


def test_criterion_02_analytic_phase_oracle(acceptance):
    worst = 0.0
    for beta in (0.0, math.pi / 4, 1.0):
        model = replace(NO_C2, field_cfg=am.FieldConfig(beta=beta))
        rate = am.arm_phase_rate(model.trap, model.theta, beta)
        for n in (2, 4, 8, 16):
            for tau in (50e-6, 250e-6):
                phi = exact_phi_total(model, n, tau)
                want = 2.0 * n * tau * rate
                worst = max(worst, abs(wrap_phase(phi - want)))
    passed = worst <= 1e-9
    acceptance(2, "noiseless phi_total matches 2*n*tau*arm_phase_rate to "
                  "<= 1e-9 rad over the n/tau/beta grid", passed)
    assert passed, f"worst phase error {worst:.3e} rad"


def test_criterion_03_decoupling(acceptance):
    lin, _, _ = sq.level_coefficients(NO_C2)
    arm_rate_hz_per_t = abs(lin[2] - lin[4])

    # static offset equivalent to 5 kHz on the arm splitting
    offset = am.NoiseTrajectory([0.0, np.inf], [5000.0 / arm_rate_hz_per_t])
    phi0 = exact_phi_total(NO_C2, 4, 250e-6)
    phi1 = exact_phi_total(NO_C2, 4, 250e-6, trajectory=offset)
    static_ok = abs(phi1 - phi0) <= 1e-9

    # linear drift of 2 kHz over 4 ms: echoed vs unechoed Ramsey
    total = 4e-3
    edges = np.linspace(0.0, total, 401)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ramp = am.NoiseTrajectory(edges,
                              (2000.0 / arm_rate_hz_per_t) * centers / total)
    echo_elements = PREP + sq.build_quadrupole_dd_sequence(
        8, total / 16.0).elements[2:2 + 24]
    d_echo = abs(wrap_phase(
        arm_phase_at_state_level(NO_C2, echo_elements, ramp)
        - arm_phase_at_state_level(NO_C2, echo_elements)))
    # unechoed deviation, unwrapped: free evolution is diagonal, so the
    # drift contributes exactly 2*pi * rate * Int(offset) dt (~25 rad
    # here, i.e. 4 full fringes -- invisible to a wrapped readout)
    d_ramsey = 2.0 * math.pi * arm_rate_hz_per_t * float(
        ramp.integral(0.0, total))
    drift_ok = d_ramsey >= 100.0 * d_echo

    passed = static_ok and drift_ok
    acceptance(3, "echo cancels a 5 kHz static offset to <= 1e-9 rad and "
                  "suppresses a 2 kHz/4 ms drift >= 100x vs plain Ramsey",
               passed)
    assert static_ok, f"static offset leaked {abs(phi1 - phi0):.3e} rad"
    assert drift_ok, (f"drift suppression only "
                      f"{d_ramsey / max(d_echo, 1e-300):.1f}x "
                      f"(ramsey {d_ramsey:.3e}, echo {d_echo:.3e})")


def test_criterion_04_rabi_wigner_law(acceptance):
    # stretched-state populations follow the binomial Wigner law
    j = 2.5
    ms = np.arange(-j, j + 1)
    e0 = np.zeros(6)
    e0[0] = 1.0
    worst = 0.0
    for area in np.linspace(0.0, 4.0 * math.pi, 81):
        pops = np.abs(rotation_unitary(j, float(area), 0.0) @ e0) ** 2
        c2 = math.cos(area / 2.0) ** 2
        s2 = math.sin(area / 2.0) ** 2
        law = np.array([comb(5, int(j + m), exact=True)
                        * c2 ** (j - m) * s2 ** (j + m) for m in ms])
        worst = max(worst, float(np.max(np.abs(pops - law))))
    passed = worst <= 1e-10
    acceptance(4, "six-level Rabi populations match the closed-form "
                  "binomial Wigner law to <= 1e-10", passed)
    assert passed, f"worst population error {worst:.3e}"


def test_criterion_05_pulse_error_second_order(acceptance):
    phi0 = exact_phi_total(NO_C2, 4, 250e-6)
    bias = {}
    for err in (0.01, 0.005):
        bias[err] = wrap_phase(
            exact_phi_total(NO_C2, 4, 250e-6, rf_area_error=err) - phi0)
    ratio = bias[0.01] / bias[0.005]
    passed = abs(ratio - 4.0) <= 0.4
    acceptance(5, "phi_total bias from RF area error scales quadratically "
                  "(halving 1% error shrinks it 4x +- 10%)", passed)
    assert passed, f"bias ratio {ratio:.3f}, biases {bias}"


def _paper_campaign(seed=20160401):
    scen = paper_scenario(seed=seed)
    model = scen.ion_model()
    campaign = run_campaign(scen.plan, model, scen.noise, scen.seed,
                            detection=scen.detection)
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    return campaign, model, z2


def test_criterion_06_second_order_zeeman_bound(acceptance):
    model = am.IonModel()
    z2 = model.species.c2_quad_zeeman * model.field_cfg.B ** 2
    bias_ok = (abs(z2 - 0.279) < 1e-12) and z2 < 0.5

    campaign, _, z2 = _paper_campaign()
    corrected, _ = joint_fit_campaign(campaign, zeeman2_hz=z2)
    uncorrected, _ = joint_fit_campaign(campaign, zeeman2_hz=0.0,
                                        compute_ci=False)
    ci_width = corrected.ci95_theta[1] - corrected.ci95_theta[0]
    shift = abs(corrected.theta - uncorrected.theta)
    shift_ok = shift < ci_width

    passed = bias_ok and shift_ok
    acceptance(6, "second-order Zeeman bias is 0.279 Hz (< 0.5 Hz) and "
                  "moves fitted Theta by less than the CI width", passed)
    assert bias_ok, f"z2 = {z2}"
    assert shift_ok, f"theta shift {shift:.4f} vs CI width {ci_width:.4f}"


def test_criterion_07_paper_number_recovery(acceptance, tmp_path):
    runner = CliRunner()
    out = tmp_path / "repro"
    res = runner.invoke(cli_main, ["reproduce-paper", "--out", str(out),
                                   "--replications", "20"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    coverage = report["coverage_count"]
    half_width = report["median_ci_half_width"]
    passed = coverage >= 17 and 0.015 <= half_width <= 0.06
    acceptance(7, "reproduce-paper: 95% CI covers 2.973 in >= 17/20 "
                  "replications, median half-width in [0.015, 0.06]", passed)
    assert passed, (f"coverage {coverage}/20, "
                    f"median half-width {half_width:.4f}")


def test_criterion_08_fringe_fit_efficiency(acceptance):
    rng = np.random.default_rng(8)
    phis = np.linspace(0, 2 * math.pi, 13)[:-1]
    results = {}
    for contrast in (0.7, 1.0):
        errs = []
        p = 0.5 + 0.5 * contrast * np.cos(phis - 0.8)
        for _ in range(200):
            pts = tuple(FringePoint(float(phi), 300,
                                    int(rng.binomial(300, pi)))
                        for phi, pi in zip(phis, p))
            fit = fit_fringe_mle(FringeDataset(pts), compute_ci=False)
            errs.append(wrap_phase(fit.phase - 0.8))
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        bound = cramer_rao_phase_bound(300 * 12, contrast)
        results[contrast] = (rmse, bound)
    passed = all(rmse <= 1.2 * bound and rmse >= 0.5 * bound
                 for rmse, bound in results.values())
    acceptance(8, "fringe-fit phase RMSE within 20% of the Cramer-Rao "
                  "bound for C in {0.7, 1.0}", passed)
    assert passed, f"(rmse, bound) per contrast: {results}"


def test_criterion_09_linearity(acceptance):
    campaign, _, z2 = _paper_campaign()
    cells = extract_cell_phases(campaign, zeeman2_hz=z2)

    groups: dict = {}
    for c in cells:
        groups.setdefault((c.beta_nominal, c.dEz_dz), []).append(c)
    chi2_sum = 0.0
    ndof_sum = 0
    freq_by_angle: dict = {}
    for (beta, grad), recs in sorted(groups.items()):
        fit = fit_phase_vs_time([(r.tau_total, r.phi_total, r.sigma)
                                 for r in recs])
        chi2_sum += fit["chi2"]
        ndof_sum += fit["ndof"]
        freq_by_angle.setdefault(beta, []).append(
            (grad, fit["slope_hz"], fit["slope_hz_sigma"]))
    reduced = chi2_sum / ndof_sum
    chi2_ok = 0.5 <= reduced <= 1.5

    intercept_ok = True
    pulls = []
    for beta, pts in freq_by_angle.items():
        fit = fit_frequency_vs_gradient(pts)
        pulls.append(fit["intercept"] / fit["intercept_sigma"])
        if abs(pulls[-1]) > 3.0:
            intercept_ok = False

    passed = chi2_ok and intercept_ok
    acceptance(9, "phase linear in tau_total (pooled reduced chi2 in "
                  "[0.5, 1.5]) and frequency linear in gradient with "
                  "intercept consistent with 0", passed)
    assert chi2_ok, f"pooled reduced chi2 {reduced:.3f}"
    assert intercept_ok, f"intercept pulls {pulls}"


def test_criterion_10_determinism(acceptance, tmp_path):
    runner = CliRunner()
    plan_args = ["--set", "plan.beta_list=0.0,0.8",
                 "--set", "plan.gradient_list=0.2e8,0.4e8",
                 "--set", "plan.tau_total_list=0.5e-3,1e-3",
                 "--set", "plan.n_phases=6",
                 "--set", "plan.shots_per_point=60"]
    commands = {
        "simulate-rabi": (["simulate-rabi", "--seed", "2", "--n-areas", "41"],
                          ["rabi.csv"]),
        "simulate-fringe": (["simulate-fringe", "--seed", "2"],
                            ["fringe.csv", "fringe_fit.json"]),
        "run-campaign": (["run-campaign", "--seed", "2", "--workers", "3"]
                         + plan_args,
                         ["campaign.csv", "campaign.json", "fit.json"]),
    }
    mismatches = []
    for name, (args, files) in commands.items():
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            res = runner.invoke(cli_main, args + ["--out", str(out)])
            assert res.exit_code == 0, (name, res.output)
            dirs.append(out)
        for fname in files + ["resolved_config.ini"]:
            if ((dirs[0] / fname).read_bytes()
                    != (dirs[1] / fname).read_bytes()):
                mismatches.append(f"{name}/{fname}")
    passed = not mismatches
    acceptance(10, "seeded commands are byte-identical across reruns, "
                   "including parallel execution", passed)
    assert passed, f"non-deterministic outputs: {mismatches}"
