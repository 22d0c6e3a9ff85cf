"""The three benchmark workloads: CLI arguments per op, set-up, checks.

Each op is one ``ddquad`` CLI invocation.  ``argv(out, op_seed)`` gives
its arguments, ``setup(work, seed)`` makes the inputs once per run, and
``check(out)`` raises ``CheckFailed`` when the op's output is wrong.
With ``smoke=True`` every workload shrinks to a few seconds in total,
for the benchmark's own tests.
"""

from __future__ import annotations

import configparser
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """An op exited 0 but its output is wrong."""


# How far an estimate may sit from the truth before the op counts as
# wrong.  At 5 CI half-widths (about 10 sigma) a statistical miss never
# trips it; a broken fast path does.
THETA_TOLERANCE_HALF_WIDTHS = 5.0
PHASE_TOLERANCE_SIGMAS = 5.0


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _check_theta(doc: dict, theta_true: float):
    theta = doc["theta"]
    lo, hi = doc["ci95_theta"]
    if not all(map(math.isfinite, (theta, lo, hi))):
        raise CheckFailed(f"non-finite Theta or CI: {theta}, [{lo}, {hi}]")
    if not lo <= theta <= hi:
        raise CheckFailed(f"CI [{lo}, {hi}] does not bracket Theta {theta}")
    half = (hi - lo) / 2.0
    if abs(theta - theta_true) > THETA_TOLERANCE_HALF_WIDTHS * half:
        raise CheckFailed(f"Theta {theta} is more than "
                          f"{THETA_TOLERANCE_HALF_WIDTHS} half-widths ({half}) "
                          f"from {theta_true}")


class PaperCampaign:
    """``reproduce-paper --replications 1``: the full paper scenario,
    simulated shot by shot and fitted with per-fringe and Theta CIs."""

    name = "paper_campaign"

    def __init__(self, smoke: bool = False):
        self.overrides = []
        if smoke:
            self.overrides = ["--set", "plan.beta_list=0 0.75 1.5",
                              "--set", "plan.gradient_list=1e8",
                              "--set", "plan.tau_total_list=1e-3 2e-3",
                              "--set", "plan.shots_per_point=100"]

    def setup(self, work: Path, seed: int):
        """Nothing to make: the scenario is built into the CLI."""

    def argv(self, out: Path, op_seed: int) -> list:
        return ["reproduce-paper", "--replications", "1", "--workers", "1",
                "--seed", str(op_seed), "--out", str(out)] + self.overrides

    def check(self, out: Path):
        report = _load_json(out / "report.json")
        _check_theta(report, report["theta_true"])


class DriftFringe:
    """``simulate-fringe`` under random-walk field noise: a time-varying
    trajectory of 400 segments seen by 64 waits per shot."""

    name = "drift_fringe"

    def __init__(self, smoke: bool = False):
        shots = 200 if smoke else 2000
        self.overrides = ["--tau-total", "4e-3",
                          "--set", "noise.kind=random_walk",
                          "--set", "noise.step_dt=1e-5",
                          "--set", "noise.drift_rate_sigma=2e-6",
                          "--set", "plan.n_echo=32",
                          "--set", "plan.n_phases=8",
                          "--set", f"plan.shots_per_point={shots}"]

    def setup(self, work: Path, seed: int):
        """Nothing to make: the inputs are CLI arguments."""

    def argv(self, out: Path, op_seed: int) -> list:
        return ["simulate-fringe", "--seed", str(op_seed),
                "--out", str(out)] + self.overrides

    def check(self, out: Path):
        doc = _load_json(out / "fringe_fit.json")
        ini = configparser.ConfigParser()
        ini.read_string((out / "resolved_config.ini").read_text())
        zeeman2_hz = (float(ini["ion"]["c2_quad_zeeman"])
                      * float(ini["field"]["b"]) ** 2)
        # the fit reports the phase with the second-order Zeeman shift
        # still in it; the oracle has only the quadrupole phase
        phi = doc["phi_total"] + 2.0 * math.pi * zeeman2_hz * doc["tau_total"]
        sigma = math.hypot(doc["fit"]["phase_sigma"],
                           doc["reference_fit"]["phase_sigma"])
        diff = math.remainder(phi - doc["analytic_phase"], 2.0 * math.pi)
        if not (math.isfinite(diff) and sigma > 0.0):
            raise CheckFailed(f"non-finite phase {phi} or sigma {sigma}")
        if abs(diff) > PHASE_TOLERANCE_SIGMAS * sigma:
            raise CheckFailed(f"phi_total is {diff:.4g} rad from the analytic "
                              f"phase; combined sigma is {sigma:.4g}")


class Refit:
    """``fit --data campaign-<j>.csv``: the estimator alone, no executor.

    Fit cost depends strongly on the data (a few fringes per campaign
    make the fringe fit's Newton iteration stall for ~100 ms each), so
    one dataset per run would make the run median a property of the
    seed.  Set-up therefore computes the paper campaign's detection
    probabilities once (ddquad's exact-probability mode; the echo
    cancels the quasi-static noise, so they match the simulated
    campaign) and draws ``variants`` independent binomial count sets
    from them.  Op i fits set i mod ``variants``.  Its first fit must
    pass the Theta check and becomes that set's reference; every later
    fit of the set must match it byte for byte.
    """

    name = "refit"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.variants = 2 if smoke else 16
        self.data: list = []
        self.seed = None
        self.theta_true = None
        self._references: dict = {}     # dataset path -> fit.json bytes
        self._dataset_of: dict = {}     # op output dir -> dataset path

    def setup(self, work: Path, seed: int):
        """Exact-probability paper campaign for ``seed``, then the count
        sets drawn from it, written as campaign CSVs."""
        from dataclasses import replace

        import numpy as np
        from ddquad import config, sampler

        cfg = config.paper_scenario(seed)
        plan = replace(cfg.plan, exact_probabilities=True)
        if self.smoke:
            plan = replace(plan, beta_list=(0.0, 0.75, 1.5),
                           gradient_list=(1e8,), tau_total_list=(1e-3, 2e-3),
                           shots_per_point=100)
        exact = sampler.run_campaign(
            plan, cfg.ion_model(), cfg.noise, cfg.seed,
            detection=cfg.detection,
            phi_grid=sampler.default_phi_grid(plan.n_phases))
        rng = np.random.default_rng([seed, 0xF17])

        def draw(fringe):
            return replace(fringe, points=tuple(
                replace(p, k_D=int(rng.binomial(p.n_shots, p.k_D / p.n_shots)))
                for p in fringe.points))

        self.data = []
        for j in range(self.variants):
            campaign = replace(exact, cells=tuple(
                replace(c, fringe=draw(c.fringe),
                        reference_fringe=draw(c.reference_fringe))
                for c in exact.cells))
            path = work / f"campaign-{j}.csv"
            path.write_text(sampler.campaign_to_csv(campaign))
            self.data.append(path)
        self.seed = seed
        self.theta_true = cfg.theta_true
        self._references = {}

    def argv(self, out: Path, op_seed: int) -> list:
        data = self.data[(op_seed - self.seed) % self.variants]
        self._dataset_of[out] = data
        # the seed is the set-up seed on every op: it is part of the
        # resolved config, whose hash fit.json embeds
        return ["fit", "--data", str(data), "--seed", str(self.seed),
                "--out", str(out)]

    def check(self, out: Path):
        data = self._dataset_of.pop(out)
        try:
            produced = (out / "fit.json").read_bytes()
        except OSError as exc:
            raise CheckFailed(f"cannot read fit.json: {exc}") from None
        reference = self._references.get(data)
        if reference is None:
            _check_theta(_load_json(out / "fit.json"), self.theta_true)
            self._references[data] = produced
        elif produced != reference:
            raise CheckFailed(f"fit.json of {data.name} differs from its "
                              "first fit")


WORKLOADS = {w.name: w for w in (PaperCampaign, DriftFringe, Refit)}
