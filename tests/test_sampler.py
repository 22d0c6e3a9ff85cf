import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import chi2

from ddquad import atommodel as am
from ddquad import sampler as sp
from ddquad.sequence import PulseSequence, apply_optical_pulse, \
    build_quadrupole_dd_sequence, initial_state, run_sequence


MODEL = am.IonModel()
NOISE = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
NONE = am.NoiseModel()
PHIS = sp.default_phi_grid(12)


def test_detection_model_bounds():
    with pytest.raises(ValueError):
        sp.DetectionModel(eps_bright=0.6)
    with pytest.raises(ValueError):
        sp.DetectionModel(eps_dark=-0.1)


def test_detection_map():
    det = sp.DetectionModel(eps_bright=0.02, eps_dark=0.05)
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0   # pure S
    assert sp.measure_population_D(state, det) == pytest.approx(0.02)
    state = np.zeros(8, dtype=complex)
    state[3] = 1.0   # pure D
    assert sp.measure_population_D(state, det) == pytest.approx(0.95)


def test_fringe_dataset_validation():
    good = (sp.FringePoint(0.0, 10, 3), sp.FringePoint(1.0, 10, 4))
    sp.FringeDataset(good)
    with pytest.raises(ValueError):
        sp.FringeDataset((sp.FringePoint(1.0, 10, 3), sp.FringePoint(0.5, 10, 4)))
    with pytest.raises(ValueError):
        sp.FringeDataset((sp.FringePoint(0.0, 10, 11),))
    # a zero-shot point gave a fringe fit error, not an input error
    with pytest.raises(ValueError, match="n_shots"):
        sp.FringeDataset((sp.FringePoint(0.0, 10, 3), sp.FringePoint(1.0, 0, 0)))
    # NaN compares false, so it would slip through the ordering check
    with pytest.raises(ValueError, match="phi_laser"):
        sp.FringeDataset((sp.FringePoint(0.0, 10, 3),
                          sp.FringePoint(float("nan"), 10, 4)))


def test_plan_validation():
    with pytest.raises(ValueError):
        sp.CampaignPlan(beta_list=(), gradient_list=(1e8,), tau_total_list=(1e-3,))
    with pytest.raises(ValueError):
        sp.CampaignPlan(beta_list=(0.0,), gradient_list=(1e8,),
                        tau_total_list=(1e-3,), n_echo=3)
    with pytest.raises(ValueError):
        sp.CampaignPlan(beta_list=(0.0, 1.0), gradient_list=(1e8,),
                        tau_total_list=(1e-3,), per_angle_offsets=(0.1,))


def test_fringe_scan_deterministic():
    a = sp.run_fringe_scan(4, 1e-4, MODEL, NOISE, PHIS, 100, 42)
    b = sp.run_fringe_scan(4, 1e-4, MODEL, NOISE, PHIS, 100, 42)
    assert a == b
    c = sp.run_fringe_scan(4, 1e-4, MODEL, NOISE, PHIS, 100, 43)
    assert a != c


def test_exact_mode_returns_expected_probabilities():
    data = sp.run_fringe_scan(4, 1e-4, MODEL, NONE, PHIS, 200, 1, exact=True)
    for pt in data.points:
        seq = build_quadrupole_dd_sequence(4, 1e-4, laser_phase=pt.phi_laser)
        p = sp.measure_population_D(run_sequence(initial_state(), seq, MODEL))
        assert pt.k_D == pytest.approx(200 * p, abs=1e-9)
        assert pt.n_shots == 200


def test_shot_statistics_binomial():
    # tau=0 fringe at phi=pi/2 has p = 1/2: check mean and variance
    phis = np.array([math.pi / 2])
    ks = [sp.run_fringe_scan(2, 0.0, MODEL, NONE, phis, 400, seed).points[0].k_D
          for seed in range(300)]
    ks = np.array(ks, dtype=float)
    assert np.mean(ks) / 400 == pytest.approx(0.5, abs=0.01)
    assert np.std(ks) == pytest.approx(math.sqrt(400 * 0.25), rel=0.15)


def test_campaign_shapes_and_n_echo():
    plan = sp.CampaignPlan(beta_list=(0.0, 0.8), gradient_list=(1e8,),
                           tau_total_list=(1e-3, 2e-3), n_echo=4,
                           shots_per_point=50, n_phases=6)
    camp = sp.run_campaign(plan, MODEL, NONE, 9)
    assert len(camp.cells) == 4
    cell = camp.cells[0]
    assert len(cell.fringe.points) == 6
    assert cell.n_echo == 4
    # reference fringe runs at tau = 0: the first cell, plan index 0, on
    # seed substream 2 * 0 + 1
    assert cell.reference_fringe == sp.run_fringe_scan(
        4, 0.0, sp._cell_model(MODEL, 0.0, 1e8), NONE,
        sp.default_phi_grid(6), 50, 9, seed_context=(1,))


def test_campaign_holds_its_cells_in_key_order():
    # plan order numbers the seed substreams; the dataset sorts the cells
    plan = sp.CampaignPlan(beta_list=(0.8, 0.0), gradient_list=(1e8,),
                           tau_total_list=(2e-3, 1e-3), n_echo=4,
                           shots_per_point=20, n_phases=4)
    camp = sp.run_campaign(plan, MODEL, NOISE, 9)
    assert [(c.beta_nominal, c.tau_total) for c in camp.cells] == [
        (0.0, 1e-3), (0.0, 2e-3), (0.8, 1e-3), (0.8, 2e-3)]
    first = sp.run_campaign(replace(plan, beta_list=(0.8,),
                                    tau_total_list=(2e-3,)), MODEL, NOISE, 9)
    assert camp.cells[3] == first.cells[0]
    # cells that tie on the key keep the order they are given in
    a, c = camp.cells[0], camp.cells[2]
    b = replace(a, fringe=camp.cells[1].fringe)
    assert sp.CampaignDataset((b, c, a)).cells == (b, a, c)
    assert sp.CampaignDataset((a, c, b)).cells == (a, b, c)


def test_seeded_counts_are_pinned():
    # one seeded quasi-static campaign's counts, pinned: a faster
    # executor must reproduce them draw for draw
    plan = sp.CampaignPlan(beta_list=(0.3,), gradient_list=(1e8,),
                           tau_total_list=(4e-3,), shots_per_point=100,
                           n_phases=8)
    cell = sp.run_campaign(plan, MODEL, NOISE, 20160401).cells[0]
    assert [p.k_D for p in cell.fringe.points] == \
        [89, 49, 19, 0, 15, 50, 92, 100]
    assert [p.k_D for p in cell.reference_fringe.points] == \
        [0, 17, 46, 86, 100, 83, 53, 17]


def test_strong_random_walk_counts_are_pinned():
    # 40 walk segments whose offset phases reach tens of rad, no
    # detection errors: a wait-kernel change that moves any shot's p by
    # more than rounding moves these counts
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=3e-6,
                         step_dt=5e-5)
    data = sp.run_fringe_scan(8, 1.25e-4, MODEL, walk, sp.default_phi_grid(4),
                              50, 11, seed_context=(2,))
    assert [p.k_D for p in data.points] == [25, 24, 30, 21]


def test_seeded_random_walk_counts_are_pinned():
    # a time-varying trajectory with detection errors, and the exact n*p
    # of one exact-mode scan, pinned the same way
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-6,
                         step_dt=5e-5)
    det = sp.DetectionModel(eps_bright=0.02, eps_dark=0.05)
    data = sp.run_fringe_scan(8, 1.25e-4, MODEL, walk, sp.default_phi_grid(8),
                              100, 20160401, detection=det, seed_context=(3,))
    assert [p.k_D for p in data.points] == [11, 46, 73, 84, 76, 57, 29, 13]
    exact = sp.run_fringe_scan(8, 1.25e-4, MODEL, walk, sp.default_phi_grid(8),
                               300, 1, detection=det, exact=True,
                               extra_phase=0.3)
    assert [repr(p.k_D) for p in exact.points] == [
        "55.08548806627599", "156.68541257323426", "251.73307409553058",
        "284.55084158525085", "235.91451193372401", "134.31458742676568",
        "39.266925904469474", "6.4491584147491325"]


def per_point_scan(n_echo, tau, model, noise, phi_grid, shots_per_point,
                   rng_seed, detection=None, exact=False, extra_phase=0.0,
                   seed_context=()):
    """The fringe scan one point at a time: the whole sequence built and
    run per laser phase on its own shots, then that point's detection
    draw."""
    duration = 2.0 * n_echo * tau
    init = initial_state("S:-1/2")
    points = []
    for point_idx, phi in enumerate(np.asarray(phi_grid, dtype=float)):
        seq = build_quadrupole_dd_sequence(n_echo, tau, phi + extra_phase)
        if exact:
            state = run_sequence(init, seq, model, am.zero_trajectory())
            p = float(sp.measure_population_D(state, detection))
            k = shots_per_point * min(max(p, 0.0), 1.0)
        else:
            ss = np.random.SeedSequence([np.uint32(s) for s in sp._entropy(
                rng_seed, seed_context, point_idx)])
            rng = np.random.default_rng(ss)
            traj = am.sample_noise_trajectory(noise, duration, rng,
                                              n_shots=shots_per_point)
            batch = np.broadcast_to(init, (shots_per_point, 8))
            states = run_sequence(batch, seq, model, traj)
            p = np.clip(sp.measure_population_D(states, detection), 0.0, 1.0)
            k = int(np.sum(rng.random(shots_per_point) < p))
        points.append(sp.FringePoint(phi_laser=float(phi),
                                     n_shots=shots_per_point, k_D=k))
    return sp.FringeDataset(tuple(points))


NOISES = st.one_of(
    st.just(NONE),
    st.builds(am.NoiseModel, st.just("quasi_static"), st.floats(0.0, 1e-6)),
    st.builds(am.NoiseModel, st.just("random_walk"), st.just(0.0),
              st.floats(0.0, 1e-5), st.sampled_from([2e-5, 5e-5, 3e-4])))
DETECTIONS = st.one_of(st.none(), st.builds(sp.DetectionModel,
                                            st.floats(0.0, 0.5),
                                            st.floats(0.0, 0.5)))


@given(n_echo=st.sampled_from([2, 4, 8]),
       tau=st.sampled_from([0.0, 3e-5, 1.25e-4]),
       noise=NOISES, n_phases=st.integers(1, 12),
       phase_shift=st.floats(-1.0, 1.0), shots=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1), detection=DETECTIONS,
       exact=st.booleans(),
       extra_phase=st.one_of(st.just(0.0), st.floats(-7.0, 7.0)),
       context=st.lists(st.integers(0, 2 ** 32 - 1), max_size=2))
# the tau = 0 reference scan: one state, with the trajectories still drawn
@example(n_echo=8, tau=0.0, noise=NOISE, n_phases=8, phase_shift=0.1,
         shots=64, seed=20160401,
         detection=sp.DetectionModel(eps_bright=0.02, eps_dark=0.05),
         exact=False, extra_phase=0.3, context=[3])
# a random walk of 100 segments: each point runs on its own shots
@example(n_echo=8, tau=1.25e-4,
         noise=am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-6,
                             step_dt=2e-5),
         n_phases=8, phase_shift=0.1, shots=64, seed=20160401,
         detection=sp.DetectionModel(eps_bright=0.02, eps_dark=0.05),
         exact=False, extra_phase=0.3, context=[3])
# one phase of one shot: a one-row trajectory drives a single state
@example(n_echo=8, tau=1.25e-4, noise=NOISE, n_phases=1, phase_shift=0.1,
         shots=1, seed=20160401, detection=None, exact=False,
         extra_phase=0.3, context=[3])
# a one-shot random walk: each point's single state gives one p
@example(n_echo=2, tau=3e-5,
         noise=am.NoiseModel(kind="random_walk", drift_rate_sigma=0.0,
                             step_dt=2e-5),
         n_phases=3, phase_shift=0.0, shots=1, seed=0, detection=None,
         exact=False, extra_phase=0.0, context=[])
# exact mode: one noise-free state, each point's n * p through the
# detection errors
@example(n_echo=8, tau=1.25e-4, noise=NOISE, n_phases=8, phase_shift=0.1,
         shots=64, seed=20160401,
         detection=sp.DetectionModel(eps_bright=0.02, eps_dark=0.05),
         exact=True, extra_phase=0.3, context=[3])
def test_batched_scan_matches_per_point_loop(n_echo, tau, noise, n_phases,
                                             phase_shift, shots, seed,
                                             detection, exact, extra_phase,
                                             context):
    """The one-batch scan gives the per-point loop's dataset, draw for
    draw and, in exact mode, bit for bit."""
    phis = sp.default_phi_grid(n_phases) + phase_shift
    args = (n_echo, tau, MODEL, noise, phis, shots, seed)
    kwargs = dict(detection=detection, exact=exact, extra_phase=extra_phase,
                  seed_context=tuple(context))
    assert sp.run_fringe_scan(*args, **kwargs) == \
        per_point_scan(*args, **kwargs)


def test_random_walk_scan_holds_one_point_at_a_time(monkeypatch):
    """A time-varying scan's traced peak does not grow with its points:
    each worker lets its point's walk, wait integrals and state go before
    it draws the next point's walk.  So on a pool of any size, a scan of
    8 points peaks below one point's peak per worker.  (One point's peak
    is measured inline and counted once per worker: a pooled scan of as
    many points as workers reaches that sum only when the workers'
    block peaks coincide, which they do in some runs only.)"""
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-6,
                         step_dt=1e-5)   # 200 segments over 16 waits

    def peak(n_phases):
        tracemalloc.start()
        try:
            sp.run_fringe_scan(8, 1.25e-4, MODEL, walk,
                               sp.default_phi_grid(n_phases), 500, 7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(sp, "POOL_MIN_NORMALS", 0)   # any walk on the pool
    monkeypatch.setattr(sp, "_cpu_count", lambda: 1)
    peak(1)   # fills the caches
    one_point = peak(1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(sp, "_cpu_count", lambda: workers)
        assert peak(8) <= 1.25 * workers * one_point, workers


# the drift_fringe benchmark's walk: 400 segments over 33 merged waits
DRIFT = am.NoiseModel(kind="random_walk", drift_rate_sigma=2e-6,
                      step_dt=1e-5)
# one row, part of a block, one block, one block and a row, 7 blocks and a
# part
BLOCK_SHOTS = [1, 255, 256, 257, 2000]


@pytest.mark.parametrize("shots", BLOCK_SHOTS)
def test_random_walk_scan_is_the_same_on_any_pool(monkeypatch, shots):
    """The points of a random-walk scan give the same dataset inline and
    on pools of 2 and 3 workers, with 3 points and so one idle worker
    or a worker with two points."""
    det = sp.DetectionModel(eps_bright=0.02, eps_dark=0.05)
    monkeypatch.setattr(sp, "POOL_MIN_NORMALS", 0)   # any walk on the pool
    scans = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(sp, "_cpu_count", lambda: workers)
        scans.append(sp.run_fringe_scan(
            32, 4e-3 / 64, MODEL, DRIFT, sp.default_phi_grid(3), shots, 29,
            detection=det, seed_context=(5,)))
    assert scans[0] == scans[1] == scans[2]
    assert len({p.k_D for p in scans[0].points}) > 1 or shots == 1


def test_random_walk_scan_below_pool_min_normals_runs_inline(monkeypatch):
    """A walk of fewer than ``POOL_MIN_NORMALS`` normals per point, as
    run-campaign's default random walk (300 shots x 40 segments), starts
    no pool on two CPUs; the same scan above it starts one, with the
    same dataset."""
    import concurrent.futures
    started = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(sp, "_cpu_count", lambda: 2)
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=2e-6)
    assert 300 * walk.segments(4e-3) < sp.POOL_MIN_NORMALS
    args = (8, 4e-3 / 16, MODEL, walk, sp.default_phi_grid(8), 300, 3)
    inline = sp.run_fringe_scan(*args)
    assert started == []
    monkeypatch.setattr(sp, "POOL_MIN_NORMALS", 0)
    assert sp.run_fringe_scan(*args) == inline
    assert started == [2]


@pytest.mark.parametrize("shots", BLOCK_SHOTS)
def test_walk_integrals_by_blocks_match_the_whole_walk(monkeypatch, shots):
    """A random-walk point draws and integrates its walk one block of
    ``SQUARE_BLOCK_ROWS`` rows at a time: the wait integrals it runs the
    sequence on are, bit for bit, those of its whole walk drawn in one
    call from its generator."""
    got, run = [], sp.run_sequence

    def record(*args, integrals, **kwargs):
        got.append(integrals)
        return run(*args, integrals=integrals, **kwargs)

    monkeypatch.setattr(sp, "run_sequence", record)
    monkeypatch.setattr(sp, "_cpu_count", lambda: 1)   # points in order
    sp.run_fringe_scan(32, 4e-3 / 64, MODEL, DRIFT, sp.default_phi_grid(2),
                       shots, 31, seed_context=(1,))
    _, _, (starts, ends) = sp._scan_sequence(32, 4e-3 / 64)
    assert len(got) == 2
    for point, integrals in enumerate(got):
        rng = np.random.default_rng(np.random.SeedSequence(
            sp._entropy(31, (1,), point)))
        whole = am.sample_noise_trajectory(DRIFT, 4e-3, rng, n_shots=shots)
        assert integrals.shape == (shots, 2, len(starts))
        assert integrals[:, 0].tobytes() == \
            whole.integral(starts, ends).tobytes()
        assert integrals[:, 1].tobytes() == \
            whole.square_integral(starts, ends).tobytes()


# -- expected counts: shots are i.i.d., so a point's count is
# Binomial(N, p-bar), with p-bar a shot's detection probability averaged
# over its noise

# a second-order Zeeman coefficient about a million times the real one:
# the m^2 phase that the echo keeps then turns a quasi-static offset of
# 1e-7 T into about 1.1 rad rms over 1 ms, a contrast of about a half
C2_MODEL = replace(MODEL, species=replace(MODEL.species, c2_quad_zeeman=3e12))


def expected_probabilities(model, sigma_b, n_echo, tau, phases, detection):
    """p-bar at each laser phase, by 40-node Gauss-Hermite quadrature over
    the offset N(0, sigma_b^2): the nodes are the rows of one one-segment
    trajectory, run through the scan's prefix by ``run_sequence`` and
    closed by one ``apply_optical_pulse`` per phase."""
    x, w = np.polynomial.hermite.hermgauss(40)
    *shared, closing, measure = build_quadrupole_dd_sequence(
        n_echo, tau).elements
    states = run_sequence(initial_state(), PulseSequence(
        tuple(shared) + (measure,)), model, am.NoiseTrajectory(
            [0.0, np.inf], math.sqrt(2.0) * sigma_b * x[:, None]))
    p = np.array([sp.measure_population_D(apply_optical_pulse(
        states, replace(closing, laser_phase=phi)), detection)
        for phi in phases])
    return p @ w / math.sqrt(math.pi)


@pytest.mark.parametrize("detection", [
    None, sp.DetectionModel(eps_bright=0.02, eps_dark=0.05)],
    ids=["ideal", "detection_errors"])
def test_quasi_static_counts_match_the_expected_binomial(detection):
    n_echo, tau, sigma_b, shots, seeds = 8, 6.25e-5, 1e-7, 100, 150
    phases = sp.default_phi_grid(8) + 0.3
    p_bar = expected_probabilities(C2_MODEL, sigma_b, n_echo, tau, phases,
                                   detection)
    # the noise leaves a contrast the counts can tell from 0 and from 1
    p_free = expected_probabilities(C2_MODEL, 0.0, n_echo, tau, phases,
                                    detection)
    ramsey = np.exp(-1j * phases)
    contrast = abs(p_bar @ ramsey) / abs(p_free @ ramsey)
    assert 0.2 <= contrast <= 0.9
    noise = am.NoiseModel(kind="quasi_static", sigma_B=sigma_b)
    k = sum(np.array([pt.k_D for pt in sp.run_fringe_scan(
        n_echo, tau, C2_MODEL, noise, phases, shots, seed,
        detection=detection).points]) for seed in range(seeds))
    n = shots * seeds
    z = (k - n * p_bar) / np.sqrt(n * p_bar * (1.0 - p_bar))
    assert np.all(np.abs(z) < 4.0), z
    assert np.sum(z ** 2) < chi2.ppf(0.999, len(z)), z


def test_per_angle_offsets_shift_signal_only():
    plan = sp.CampaignPlan(beta_list=(0.0,), gradient_list=(1e8,),
                           tau_total_list=(1e-3,), n_echo=4,
                           shots_per_point=10, n_phases=12,
                           exact_probabilities=True)
    plain = sp.run_campaign(plan, MODEL, NONE, 1)
    shifted = sp.run_campaign(replace(plan, per_angle_offsets=(0.3,)), MODEL, NONE, 1)
    assert plain.cells[0].reference_fringe == shifted.cells[0].reference_fringe
    assert plain.cells[0].fringe != shifted.cells[0].fringe
    from ddquad.estimator import fit_fringe_mle, wrap_phase
    f0 = fit_fringe_mle(plain.cells[0].fringe, compute_ci=False)
    f1 = fit_fringe_mle(shifted.cells[0].fringe, compute_ci=False)
    # a laser-phase offset shifts the fitted fringe phase the opposite way
    assert wrap_phase(f0.phase - f1.phase) == pytest.approx(0.3, abs=1e-9)


def test_csv_round_trip():
    plan = sp.CampaignPlan(beta_list=(0.0, 0.5), gradient_list=(1e8,),
                           tau_total_list=(1e-3,), n_echo=4,
                           shots_per_point=40, n_phases=6)
    camp = sp.run_campaign(plan, MODEL, NOISE, 11)
    text = sp.campaign_to_csv(camp)
    assert text.splitlines()[0] == ",".join(sp.CSV_COLUMNS)
    back = sp.campaign_from_csv(text)
    assert back.cells == camp.cells
    # serialization itself is stable
    assert sp.campaign_to_csv(back) == text


def test_csv_cell_without_reference_is_a_value_error():
    plan = sp.CampaignPlan(beta_list=(0.0,), gradient_list=(1e8,),
                           tau_total_list=(1e-3,), n_echo=4,
                           shots_per_point=10, n_phases=3)
    lines = sp.campaign_to_csv(sp.run_campaign(plan, MODEL, NONE, 1)
                               ).splitlines()
    signal = [line for line in lines[1:] if line.endswith(",0")]
    with pytest.raises(ValueError, match="reference"):
        sp.campaign_from_csv("\n".join(lines[:1] + signal) + "\n")


@st.composite
def fringes(draw, exact):
    """A fringe on a strictly increasing phase grid, with integer counts
    or, in exact mode, real-valued n*p."""
    phis = sorted(set(draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                                    max_size=6))))
    points = []
    for phi in phis:
        n = draw(st.integers(1, 10 ** 6))
        k = draw(st.floats(0.0, n) if exact else st.integers(0, n))
        points.append(sp.FringePoint(phi_laser=phi, n_shots=n, k_D=k))
    return sp.FringeDataset(tuple(points))


@st.composite
def campaigns(draw):
    exact = draw(st.booleans())
    n_echo = draw(st.sampled_from([2, 8, 32]))
    keys = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1e9),
                                   st.floats(0.0, 1e-2)),
                         min_size=1, max_size=4, unique=True))
    return sp.CampaignDataset(tuple(
        sp.CampaignCell(beta_nominal=beta, dEz_dz=grad, tau_total=tau_total,
                        n_echo=n_echo, fringe=draw(fringes(exact)),
                        reference_fringe=draw(fringes(exact)))
        for beta, grad, tau_total in keys))


@given(campaigns())
def test_csv_round_trip_property(camp):
    back = sp.campaign_from_csv(sp.campaign_to_csv(camp))
    assert len(back.cells) == len(camp.cells)
    for got, want in zip(back.cells, camp.cells):
        assert got == want
        for a, b in ((got.fringe, want.fringe),
                     (got.reference_fringe, want.reference_fringe)):
            assert [type(p.k_D) for p in a.points] == \
                [type(p.k_D) for p in b.points]


def test_csv_round_trip_keeps_each_cells_n_echo():
    # a campaign built without run_campaign: each cell's n_echo is its own
    # field, written to and read back from its campaign.csv rows
    fringe = sp.FringeDataset((sp.FringePoint(0.0, 10, 3),
                               sp.FringePoint(2.0, 10, 7)))
    camp = sp.CampaignDataset((
        sp.CampaignCell(beta_nominal=0.1, dEz_dz=1e8, tau_total=1e-3,
                        n_echo=4, fringe=fringe, reference_fringe=fringe),
        sp.CampaignCell(beta_nominal=0.1, dEz_dz=1e8, tau_total=2e-3,
                        n_echo=8, fringe=fringe, reference_fringe=fringe)))
    assert sp.campaign_from_csv(sp.campaign_to_csv(camp)) == camp


def test_json_snapshot_complete():
    import json
    plan = sp.CampaignPlan(beta_list=(0.1,), gradient_list=(1e8,),
                           tau_total_list=(1e-3,), n_echo=2,
                           shots_per_point=20, n_phases=6)
    det = sp.DetectionModel(eps_bright=0.02)
    camp = sp.run_campaign(plan, MODEL, NOISE, 2, detection=det)
    doc = json.loads(sp.campaign_to_json(camp, plan, MODEL, NOISE, 2, det))
    assert doc["plan"]["n_echo"] == 2
    assert doc["plan"]["seed"] == 2
    assert doc["model"]["theta"] == MODEL.theta
    assert doc["model"]["noise"]["kind"] == "quasi_static"
    assert doc["model"]["detection"]["eps_bright"] == 0.02
    assert len(doc["cells"]) == 1
    assert len(doc["cells"][0]["fringe"]) == 6


def test_exact_mode_is_noise_free_and_deterministic():
    data1 = sp.run_fringe_scan(4, 1e-4, MODEL, NOISE, PHIS, 100, 1, exact=True)
    data2 = sp.run_fringe_scan(4, 1e-4, MODEL, NOISE, PHIS, 100, 999, exact=True)
    assert data1 == data2   # exact mode ignores the seed and the noise draw
