import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddquad import atommodel as am
from ddquad import sequence as sq
from ddquad.spincore import rotation_unitary
from wigner import wigner_d_matrix


MODEL = am.IonModel()
NO_C2 = replace(MODEL, species=replace(MODEL.species, c2_quad_zeeman=0.0))


def test_builder_shape_and_duration():
    seq = sq.build_quadrupole_dd_sequence(n_echo=2, tau=1e-4, laser_phase=0.3)
    assert len(seq.elements) == 11
    waits = [e.tau for e in seq.elements if isinstance(e, sq.Wait)]
    # n_echo is the RF pi count, tau the first wait's length
    assert sum(isinstance(e, sq.RFPulse) for e in seq.elements) == 2
    assert waits[0] == 1e-4
    assert sum(waits) == pytest.approx(4e-4, rel=1e-12)
    assert isinstance(seq.elements[-1], sq.Measure)


def test_builder_rejects_odd_or_small_n():
    with pytest.raises(ValueError):
        sq.build_quadrupole_dd_sequence(n_echo=3, tau=1e-4)
    with pytest.raises(ValueError):
        sq.build_quadrupole_dd_sequence(n_echo=0, tau=1e-4)


# the non-finite values are checked in test_echo_elements.py
@pytest.mark.parametrize("make, match", [
    (lambda: sq.Wait(-1e-6), ">= 0"),
    (lambda: sq.RFPulse(-math.pi), ">= 0"),
    (lambda: sq.OpticalPulse(-2.5, -math.pi / 2), ">= 0"),
    (lambda: sq.OpticalPulse(-3.5, math.pi), "not a D sublevel"),
], ids=["wait_negative", "rf_negative_area", "optical_negative_area",
        "optical_target"])
def test_elements_reject_invalid_values(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_initial_state_labels():
    s = sq.initial_state("S:-1/2")
    assert s[0] == 1.0 and np.sum(np.abs(s) ** 2) == 1.0
    d = sq.initial_state("D:+5/2")
    assert d[7] == 1.0
    with pytest.raises(ValueError):
        sq.initial_state("D:+7/2")


def test_psi_i_preparation():
    # pi/2 to D:-5/2 then pi to D:-1/2 leaves (|D,-5/2> + |D,-1/2>)/sqrt(2)
    seq = sq.PulseSequence(elements=(
        sq.OpticalPulse(target_m=-2.5, area=math.pi / 2, laser_phase=0.0),
        sq.OpticalPulse(target_m=-0.5, area=math.pi, laser_phase=0.0),
        sq.Measure()))
    psi = sq.run_sequence(sq.initial_state(), seq, MODEL)
    pops = np.abs(psi) ** 2
    assert pops[2] == pytest.approx(0.5, abs=1e-12)   # D:-5/2
    assert pops[4] == pytest.approx(0.5, abs=1e-12)   # D:-1/2
    assert np.sum(pops) == pytest.approx(1.0, abs=1e-12)


def test_rf_pi_maps_psi_i_to_mirror_pair():
    seq = sq.PulseSequence(elements=(
        sq.OpticalPulse(target_m=-2.5, area=math.pi / 2, laser_phase=0.0),
        sq.OpticalPulse(target_m=-0.5, area=math.pi, laser_phase=0.0),
        sq.RFPulse(area=math.pi, rf_phase=0.0),
        sq.Measure()))
    psi = sq.run_sequence(sq.initial_state(), seq, MODEL)
    pops = np.abs(psi) ** 2
    assert pops[7] == pytest.approx(0.5, abs=1e-12)   # D:+5/2
    assert pops[5] == pytest.approx(0.5, abs=1e-12)   # D:+1/2


def test_rf_rabi_matches_wigner_law():
    # populations from the stretched state follow |d^{5/2}_{m,-5/2}|^2
    for area in np.linspace(0, 2 * math.pi, 40):
        seq = sq.PulseSequence(elements=(
            sq.RFPulse(area=float(area), rf_phase=0.0), sq.Measure()))
        psi = sq.run_sequence(sq.initial_state("D:-5/2"), seq, MODEL)
        pops = np.abs(psi[2:8]) ** 2
        d = wigner_d_matrix(2.5, float(area))
        assert np.max(np.abs(pops - d[:, 0] ** 2)) < 1e-12


def test_norm_preserved_with_noise():
    seq = sq.build_quadrupole_dd_sequence(n_echo=4, tau=2e-4, laser_phase=0.9)
    noise = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-4, step_dt=5e-5)
    tr = am.sample_noise_trajectory(noise, 1.6e-3, 3, n_shots=16)
    states = np.tile(sq.initial_state(), (16, 1)).astype(complex)
    out = sq.run_sequence(states, seq, MODEL, trajectory=tr)
    assert np.allclose(np.sum(np.abs(out) ** 2, axis=-1), 1.0, atol=1e-10)


def test_batched_matches_single_shot():
    seq = sq.build_quadrupole_dd_sequence(n_echo=2, tau=1e-4, laser_phase=0.4)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=2e-7)
    tr = am.sample_noise_trajectory(noise, 4e-4, 5, n_shots=4)
    batch = sq.run_sequence(np.tile(sq.initial_state(), (4, 1)), seq, MODEL,
                            trajectory=tr)
    for i in range(4):
        single = sq.run_sequence(
            sq.initial_state(), seq, MODEL,
            trajectory=am.NoiseTrajectory(tr.edges, tr.values[i]))
        assert np.allclose(batch[i], single, atol=1e-12)


def _exact_phi_total(model, n_echo, tau, trajectory=None, rf_area_error=0.0):
    """Fringe phase difference (reference minus signal) from exact
    probabilities; avoids the shot sampler entirely."""
    from ddquad.estimator import fit_fringe_mle, phase_difference
    from ddquad.sampler import FringeDataset, FringePoint, measure_population_D

    def scan(tau_w):
        pts = []
        for phi in np.linspace(0, 2 * math.pi, 13)[:-1]:
            seq = sq.build_quadrupole_dd_sequence(n_echo, tau_w, laser_phase=float(phi))
            if rf_area_error:
                seq = sq.PulseSequence(
                    elements=tuple(
                        replace(e, area=math.pi * (1 + rf_area_error))
                        if isinstance(e, sq.RFPulse) else e
                        for e in seq.elements))
            psi = sq.run_sequence(sq.initial_state(), seq, model, trajectory=trajectory)
            p = min(max(float(measure_population_D(psi)), 0.0), 1.0)
            pts.append(FringePoint(float(phi), 1000, 1000 * p))
        return fit_fringe_mle(FringeDataset(tuple(pts)), compute_ci=False)

    return phase_difference(scan(tau), scan(0.0))


def test_reference_fringe_extrema():
    # at tau = 0 the fringe is (1 - cos(phi_laser))/2: dark at 0, bright at pi
    from ddquad.sampler import measure_population_D
    for phi, expect in ((0.0, 0.0), (math.pi, 1.0)):
        seq = sq.build_quadrupole_dd_sequence(2, 0.0, laser_phase=phi)
        psi = sq.run_sequence(sq.initial_state(), seq, MODEL)
        assert measure_population_D(psi) == pytest.approx(expect, abs=1e-12)


def test_phi_total_matches_analytic():
    from ddquad.estimator import wrap_phase
    phi = _exact_phi_total(NO_C2, 4, 250e-6)
    want = sq.analytic_phase(4, 250e-6, NO_C2)
    assert wrap_phase(phi - want) == pytest.approx(0.0, abs=1e-9)


def test_static_zeeman_offset_echoed_away():
    offset = am.NoiseTrajectory([0.0, np.inf], [3e-7])
    phi0 = _exact_phi_total(NO_C2, 4, 250e-6)
    phi1 = _exact_phi_total(NO_C2, 4, 250e-6, trajectory=offset)
    assert abs(phi1 - phi0) < 1e-9


def test_pulse_area_error_scales_quadratically():
    b1 = _exact_phi_total(NO_C2, 8, 250e-6, rf_area_error=0.01) \
        - _exact_phi_total(NO_C2, 8, 250e-6)
    b2 = _exact_phi_total(NO_C2, 8, 250e-6, rf_area_error=0.005) \
        - _exact_phi_total(NO_C2, 8, 250e-6)
    assert b1 != 0.0
    assert b1 / b2 == pytest.approx(4.0, rel=0.1)


def test_run_sequence_requires_trailing_measure():
    from ddquad.errors import SimulationError
    seq = sq.PulseSequence(elements=(sq.Wait(1e-4),))
    with pytest.raises(SimulationError):
        sq.run_sequence(sq.initial_state(), seq, MODEL)


def wait_integrals(trajectory, t0, t1):
    """[Int offset dt, Int offset^2 dt] over [t0, t1], per row."""
    return np.stack([trajectory.integral(t0, t1),
                     trajectory.square_integral(t0, t1)], axis=-1)


def one_wait(tau):
    """The block of one wait of length ``tau``, which moves no level
    (built directly, since ``_compile`` drops a wait of length 0)."""
    return sq._block([0], [tau])


def offset_rates(model):
    """Each level's offset phase per unit of the wait integrals, (2, 8)."""
    lin, _, b2 = sq.level_coefficients(model)
    b0 = model.field_cfg.B
    return -2.0 * math.pi * np.array([lin + 2.0 * b0 * b2, b2])


def per_level_factors(tau, model, integrals):
    """A wait's phase factors with one cos/sin per level of the offset
    phase, times the field-free factor: the form the block kernel
    replaces."""
    lin, static, b2 = sq.level_coefficients(model)
    b0 = model.field_cfg.B
    phase = integrals @ offset_rates(model)
    factors = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=factors.real)
    np.sin(phase, out=factors.imag)
    field_free = -2j * math.pi * (lin * b0 + static + b2 * b0 * b0)
    return factors * np.exp(tau * field_free)


def test_free_evolve_phase_integration_matches_brute_force():
    # piecewise-constant trajectory: compare against many short exact steps
    tr = am.NoiseTrajectory([0.0, 3e-5, 9e-5, 2e-4], [2e-7, -1e-7, 4e-8])
    state = (sq.initial_state("D:-5/2") + sq.initial_state("D:-1/2")) / math.sqrt(2)
    direct = sq.free_evolve(
        state.copy(), one_wait(1.8e-4), MODEL,
        integrals=wait_integrals(tr, 1e-5, 1.9e-4)[..., None])
    stepped = state.copy()
    edges = np.linspace(1e-5, 1.9e-4, 3601)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        stepped = sq.free_evolve(
            stepped, one_wait(t1 - t0), MODEL,
            integrals=wait_integrals(tr, t0, t1)[..., None])
    assert np.max(np.abs(direct - stepped)) < 1e-10


def test_free_evolve_matches_level_frequencies():
    # exp(-i 2pi Int nu dt), nu = lin*B + static + b2*B^2, written out per
    # level and segment for a wait that runs past the last edge
    tr = am.NoiseTrajectory([0.0, 3e-5, 9e-5], [2e-7, -1e-7])
    lin, static, b2 = sq.level_coefficients(MODEL)
    b0 = MODEL.field_cfg.B
    phase = np.zeros(8)
    for dt, offset in ((2e-5, 2e-7), (6e-5, -1e-7), (1.1e-4, -1e-7)):
        b = b0 + offset
        phase += -2 * math.pi * (lin * b + static + b2 * b * b) * dt
    state = np.full(8, 1 / math.sqrt(8), dtype=complex)
    got = sq.free_evolve(state, one_wait(1.9e-4), MODEL,
                         integrals=wait_integrals(tr, 1e-5, 2e-4)[..., None])
    assert np.max(np.abs(got - state * np.exp(1j * phase))) < 1e-10


# an RF pi moves D:m to D:-m and leaves S alone
MIRROR = [0, 1, 7, 6, 5, 4, 3, 2]


def check_block_rates(model):
    """The block kernel's rates per unit of Int dB dt and Int dB^2 dt are
    the level rates, and a [wait, RF pi, wait] block puts each slot in its
    own level during the first wait and in the mirrored level during the
    second, where it ends."""
    rates = sq._phase_rates(model)
    assert rates.shape == (4, 8)
    assert np.array_equal(rates[2:], offset_rates(model))
    field_free = -2.0 * math.pi * (
        sq.level_coefficients(model)[0] * model.field_cfg.B)
    assert np.array_equal(rates[0], field_free)
    assert np.array_equal(rates[0, MIRROR[2:]], -rates[0, 2:])
    elements = (sq.Wait(1e-4), sq.RFPulse(math.pi, 0.3), sq.Wait(3e-4),
                sq.Measure())
    (block,) = sq._compile(elements)[0]
    assert np.array_equal(block.where, MIRROR)
    assert np.array_equal(block.levels, [range(8), MIRROR])
    assert np.array_equal(block.lengths, [[1e-4], [3e-4]])


SPECIES_MODELS = st.builds(
    lambda g_s, g_d, c2, b: replace(
        MODEL, species=am.IonSpecies(g_ground=g_s, g_D=g_d, c2_quad_zeeman=c2),
        field_cfg=replace(MODEL.field_cfg, B=b)),
    st.floats(0.1, 3.0), st.floats(0.1, 3.0),
    st.one_of(st.just(0.0), st.floats(1.0, 1e7), st.floats(-1e7, -1.0)),
    st.floats(1e-6, 1e-2))


def test_unit_rates_rebuild_the_paper_models_level_rates():
    check_block_rates(MODEL)


@given(SPECIES_MODELS)
def test_unit_rates_rebuild_the_level_rates(model):
    check_block_rates(model)


@given(SPECIES_MODELS, st.sampled_from(["single", "batch", "broadcast"]),
       st.integers(1, 6), st.floats(0.0, 1e3), st.floats(0.0, 1e-3),
       st.integers(0, 2 ** 32 - 1))
def test_three_phasors_match_the_per_level_formula(model, kind, n, max_phase,
                                                   tau, seed):
    """``free_evolve`` on a one-wait block against the per-level cos/sin
    formula.  The kernel takes one cos/sin of the whole
    phase, field-free part included, so both sides round that phase."""
    rng = np.random.default_rng(seed)
    rows = () if kind == "single" else (n,)
    rates = np.max(np.abs(offset_rates(model)), axis=1)
    # |phase| up to max_phase from each integral; some rows all zero
    integrals = rng.uniform([-1.0, 0.0], 1.0, rows + (2,)) * max_phase / 2 \
        / np.where(rates > 0, rates, 1.0)
    integrals[rng.random(rows) < 0.3] = 0.0
    lead = () if kind != "batch" else rows
    state = rng.normal(size=lead + (8,)) + 1j * rng.normal(size=lead + (8,))
    state /= np.linalg.norm(state, axis=-1, keepdims=True)
    got = sq.free_evolve(state, one_wait(tau), model,
                         integrals=integrals[..., None])
    want = state * per_level_factors(tau, model, integrals)
    phase = np.max(np.abs(integrals @ offset_rates(model)), initial=0.0) \
        + tau * np.max(np.abs(sq._phase_rates(model)[:2].sum(axis=0)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= \
        64 * np.finfo(float).eps * (1.0 + phase)


def test_analytic_phase_uses_geometry():
    m1 = replace(NO_C2, field_cfg=replace(NO_C2.field_cfg, beta=0.0))
    m2 = replace(NO_C2, field_cfg=replace(NO_C2.field_cfg,
                                          beta=math.acos(1 / math.sqrt(3))))
    assert sq.analytic_phase(4, 1e-4, m2) == pytest.approx(0.0, abs=1e-12)
    assert sq.analytic_phase(4, 1e-4, m1) == pytest.approx(
        8e-4 * am.arm_phase_rate(m1.trap, m1.theta, 0.0), rel=1e-12)


# -- compiled executor against the one-element API ------------------------------

def reference_run(initial, seq, model, trajectory=None):
    """Left fold over the elements, one wait at a time, each wait by the
    per-level cos/sin formula: the executor without compilation or
    blocks.  A single state run against N > 1 trajectory
    rows comes back as N rows, waits or not."""
    state = np.array(initial, dtype=complex)
    if trajectory is None:
        trajectory = am.zero_trajectory()
    rows = trajectory.values.shape[:-1]
    t = 0.0
    for element in seq.elements[:-1]:
        if isinstance(element, sq.Wait):
            if element.tau > 0:
                integrals = wait_integrals(trajectory, t, t + element.tau)
                if state.ndim == 1 and rows == (1,):
                    integrals = integrals[0]
                state = state * per_level_factors(element.tau, model,
                                                  integrals)
            t += element.tau
        elif isinstance(element, sq.RFPulse):
            state = sq.apply_rf_pulse(state, element)
        else:
            state = sq.apply_optical_pulse(state, element)
    if state.ndim == 1 and rows not in ((), (1,)):
        state = np.array(np.broadcast_to(state, rows + (8,)))
    return state


# few distinct lengths, so adjacent and equal-length waits are common
TAUS = st.sampled_from([0.0, 0.0, 5e-5, 1e-4, 2.5e-4])
PHASES = st.floats(-10.0, 10.0)
AREAS = st.one_of(st.floats(0.0, 2 * math.pi),
                  st.floats(-0.05, 0.05).map(lambda e: math.pi * (1 + e)),
                  st.floats(-0.05, 0.05).map(lambda e: math.pi / 2 * (1 + e)))
ELEMENTS = st.one_of(
    st.builds(sq.Wait, TAUS),
    st.builds(sq.RFPulse, AREAS, PHASES),
    st.builds(sq.OpticalPulse, st.sampled_from(am.D_M_VALUES), AREAS, PHASES))


@st.composite
def sequences(draw):
    """Random element lists, or the echo sequence with pulse-area errors."""
    if draw(st.booleans()):
        elements = draw(st.lists(ELEMENTS, max_size=14))
        return sq.PulseSequence(tuple(elements) + (sq.Measure(),))
    seq = sq.build_quadrupole_dd_sequence(
        draw(st.sampled_from([2, 4, 8])), draw(TAUS), draw(PHASES))
    err = draw(st.floats(-0.05, 0.05))
    return sq.PulseSequence(tuple(
        replace(e, area=e.area * (1 + err))
        if isinstance(e, (sq.RFPulse, sq.OpticalPulse)) else e
        for e in seq.elements))


@st.composite
def cases(draw):
    """(initial state, trajectory): a batch, or one 1-D state that may
    drive several trajectory rows; no noise, a constant offset per row
    (one segment, its last edge infinite or inside the sequence), or a
    random walk whose last edge is finite (waits past it run on the last
    value)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    single = draw(st.booleans())
    rows = () if single else (draw(st.integers(1, 5)),)
    state = rng.normal(size=rows + (8,)) + 1j * rng.normal(size=rows + (8,))
    state /= np.linalg.norm(state, axis=-1, keepdims=True)
    kind = draw(st.sampled_from(["none", "constant", "short", "walk"]))
    if kind == "none":
        return state, None
    lead = rows or draw(st.sampled_from([(), (1,), (3,)]))
    if kind in ("constant", "short"):
        last = np.inf if kind == "constant" else 1e-4
        return state, am.NoiseTrajectory([0.0, last],
                                          rng.normal(0.0, 3e-7, lead + (1,)))
    k = draw(st.integers(1, 6))
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-5, 2e-4, k))])
    values = np.cumsum(rng.normal(0.0, 1e-7, lead + (k,)), axis=-1)
    return state, am.NoiseTrajectory(edges, values)


@given(sequences(), cases())
def test_compiled_matches_reference_fold(seq, case):
    initial, trajectory = case
    got = sq.run_sequence(initial, seq, MODEL, trajectory)
    want = reference_run(initial, seq, MODEL, trajectory)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10
    p_got = np.sum(np.abs(got[..., 2:]) ** 2, axis=-1)
    p_want = np.sum(np.abs(want[..., 2:]) ** 2, axis=-1)
    assert np.max(np.abs(p_got - p_want)) <= 1e-10


@given(sequences(), cases())
def test_norm_preserved(seq, case):
    initial, trajectory = case
    out = sq.run_sequence(initial, seq, MODEL, trajectory)
    assert np.max(np.abs(np.sum(np.abs(out) ** 2, axis=-1) - 1.0)) <= 1e-12


@given(st.sampled_from([2, 4, 8, 16]), st.floats(0.0, 5e-4), PHASES,
       st.floats(0.0, 1e-6), st.integers(0, 2 ** 32 - 1))
def test_echo_cancels_any_static_offset(n_echo, tau, laser_phase, sigma_b,
                                        seed):
    from ddquad.sampler import measure_population_D
    seq = sq.build_quadrupole_dd_sequence(n_echo, tau, laser_phase)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=sigma_b)
    tr = am.sample_noise_trajectory(noise, 2 * n_echo * tau, seed, n_shots=4)
    batch = np.tile(sq.initial_state(), (4, 1))
    p_noisy = measure_population_D(sq.run_sequence(batch, seq, NO_C2, tr))
    p_quiet = measure_population_D(sq.run_sequence(sq.initial_state(), seq,
                                                   NO_C2))
    assert np.max(np.abs(p_noisy - p_quiet)) <= 1e-9


def paper_prefix(n_echo, tau):
    """The echo sequence without its closing pi/2 pulse, as a fringe scan
    runs it."""
    *shared, _, measure = sq.build_quadrupole_dd_sequence(n_echo, tau).elements
    return sq.PulseSequence(tuple(shared) + (measure,))


def test_compile_merges_waits_and_drops_empty_ones():
    seq = sq.PulseSequence((
        sq.Wait(0.0), sq.RFPulse(math.pi), sq.Wait(1e-4), sq.Wait(0.0),
        sq.Wait(2e-4), sq.RFPulse(math.pi), sq.Wait(0.0), sq.Measure()))
    steps, starts, ends = sq._compile(seq.elements)
    # the pi pulses are monomial, so everything is one block of one wait
    assert [type(s) for s in steps] == [sq._Block]
    assert steps[0].lengths.tolist() == [[pytest.approx(3e-4)]]
    assert starts == (0.0,) and ends == (pytest.approx(3e-4),)
    # a dense pulse ends a block, and a wait after it starts a new one
    seq = sq.PulseSequence((
        sq.Wait(1e-4), sq.RFPulse(math.pi / 2), sq.Wait(0.0), sq.Wait(2e-4),
        sq.Measure()))
    steps, starts, ends = sq._compile(seq.elements)
    assert [type(s) for s in steps] == [sq._Block, tuple, sq._Block]
    assert [s.waits for s in steps[::2]] == [slice(0, 1), slice(1, 2)]
    assert starts == (0.0, 1e-4) and ends == (1e-4, pytest.approx(3e-4))
    assert len(sq._compile(paper_prefix(8, 1e-4).elements)[1]) == 9


def test_static_trajectory_computes_each_wait_length_once(monkeypatch):
    """Every wait of the paper prefix is folded into one block when the
    sequence is compiled, once per sequence: a run makes one
    ``free_evolve`` call, on the cached block itself, on a static
    trajectory or a random walk."""
    calls, free_evolve = [], sq.free_evolve

    def record(state, tau, *args, **kwargs):
        calls.append(tau)
        return free_evolve(state, tau, *args, **kwargs)

    monkeypatch.setattr(sq, "free_evolve", record)
    for tau, waits in ((2.5e-4, 9), (0.0, 0)):
        steps, starts, _ = sq._compile(paper_prefix(8, tau).elements)
        assert [type(s) for s in steps] == [tuple, sq._Block]   # the pi/2
        assert steps[1].levels.shape == (waits, 8) and len(starts) == waits
    static = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-4,
                         step_dt=5e-5)
    prefix = paper_prefix(8, 2.5e-4)
    for noise in (static, walk):
        tr = am.sample_noise_trajectory(noise, 4e-3, 4, n_shots=300)
        hits = sq._compile.cache_info().hits
        sq.run_sequence(sq.initial_state(), prefix, MODEL, tr)
        assert sq._compile.cache_info().hits == hits + 1
    block = sq._compile(prefix.elements)[0][1]
    assert len(calls) == 2 and all(c is block for c in calls)
    # cached, so read-only
    assert not any(a.flags.writeable for a in block[:4])


@given(st.sampled_from([2, 4, 8, 16]), st.floats(0.0, 5e-4),
       st.floats(0.0, 1e-6), st.integers(0, 2 ** 32 - 1))
def test_echo_is_offset_free_without_c2(n_echo, tau, sigma_b, seed):
    """The paper's cancellation, exact: without the second-order Zeeman
    term a quasi-static offset leaves the prefix's state bit for bit as
    the noiseless run leaves it, because each slot's m-linear phase sums
    to exactly 0 over the waits."""
    prefix = paper_prefix(n_echo, tau)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=sigma_b)
    tr = am.sample_noise_trajectory(noise, 2 * n_echo * tau, seed, n_shots=4)
    quiet = sq.run_sequence(sq.initial_state(), prefix, NO_C2)
    noisy = sq.run_sequence(sq.initial_state(), prefix, NO_C2, tr)
    assert np.array_equal(noisy, np.broadcast_to(quiet, (4, 8)))


@given(PHASES)
def test_pi_pulses_are_closed_form(phase):
    """An area of exactly pi gives a monomial pulse (one nonzero entry per
    row and column) equal to the dense forms: the RF rotation from
    ``rotation_unitary``, whose eigendecomposition leaves a few ULPs where
    the closed form has exact zeros, and the optical formula with
    cos(pi/2) and sin(pi/2).  An area one part in 1e15 off pi stays
    dense."""
    eps = np.finfo(float).eps
    rf = sq._pulse_op(sq.RFPulse(math.pi, phase))[1].T
    dense = rotation_unitary(2.5, math.pi, phase)
    assert np.count_nonzero(rf) == 6
    assert np.max(np.abs(rf - dense)[rf != 0]) <= 4e-15
    assert np.max(np.abs(dense[rf == 0])) <= 32 * eps
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    dense = np.array([[c, -1j * s * np.exp(-1j * phase)],
                      [-1j * s * np.exp(1j * phase), c]])
    for m in am.D_M_VALUES:
        optical = sq._pulse_op(sq.OpticalPulse(m, math.pi, phase))[1].T
        assert np.count_nonzero(optical) == 2
        assert np.max(np.abs(optical - dense)) <= 4e-15
    for area in (math.pi * (1 - 1e-15), math.pi * (1 + 1e-15)):
        for pulse in (sq.RFPulse(area, phase),
                      sq.OpticalPulse(-2.5, area, phase)):
            steps = sq._compile((pulse, sq.Measure()))[0]
            assert [type(s) for s in steps] == [tuple]


@given(st.sampled_from(am.D_M_VALUES),
       st.one_of(st.sampled_from([math.pi, math.pi / 2]),
                 st.floats(0.0, 4 * math.pi)),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
       st.sampled_from([None, 1, 2, 5]), st.integers(0, 2 ** 32 - 1))
def test_stacked_optical_rotation_matches_each_pulse(target, area, phases,
                                                     rows, seed):
    """``_optical_op``'s stacked U^T, applied through ``_apply_pulse``,
    rotates each phase's rows as ``apply_optical_pulse`` with that laser
    phase does, bit for bit: on a (P, rows, 8) batch with one U^T per
    phase, and (rows None) on a single state with the first phase's."""
    rng = np.random.default_rng(seed)
    shape = (8,) if rows is None else (len(phases), rows, 8)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pulse = sq.OpticalPulse(target, area)
    if rows is None:
        phases = phases[0]
    got = sq._apply_pulse(state.copy(), *sq._optical_op(pulse, phases))
    want = [sq.apply_optical_pulse(s, replace(pulse, laser_phase=phi))
            for s, phi in zip(state.reshape(-1, *shape[-2:]),
                              np.atleast_1d(phases))]
    assert got.tobytes() == np.array(want).reshape(shape).tobytes()


@pytest.mark.parametrize("initial, values, tau, named", [
    # last axis not 8
    (np.ones((4, 6)), np.zeros((4, 1)), 1e-4, [(4, 6)]),
    # 5 states against 3 trajectory rows
    (np.ones((5, 8)), np.zeros((3, 2)), 1e-4, [(5, 8), (3, 2)]),
    # the same without a wait (the tau = 0 reference sequence)
    (np.ones((5, 8)), np.zeros((3, 1)), 0.0, [(5, 8), (3, 1)]),
], ids=["last_axis", "rows", "rows_without_wait"])
def test_run_sequence_rejects_mismatched_shapes(initial, values, tau, named):
    from ddquad.errors import SimulationError
    seq = sq.build_quadrupole_dd_sequence(2, tau)
    tr = am.NoiseTrajectory(np.arange(values.shape[-1] + 1) * 1e-4, values)
    with pytest.raises(SimulationError) as info:
        sq.run_sequence(initial, seq, MODEL, tr)
    for shape in named:
        assert str(shape) in str(info.value)


def test_run_sequence_takes_a_walk_or_its_wait_integrals():
    """A walk's ``wait_integrals`` run the sequence to the walk's states,
    bit for bit, on a batch or a single state; they are checked like the
    walk: one row per state row, and one column per merged wait."""
    from ddquad.errors import SimulationError
    seq = sq.build_quadrupole_dd_sequence(4, 1e-4)
    _, starts, ends = sq._compile(seq.elements)
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-6,
                         step_dt=3e-5)
    tr = am.sample_noise_trajectory(walk, 8e-4, 5, n_shots=6)
    integrals = sq.wait_integrals(tr, starts, ends)
    assert integrals.shape == (6, 2, len(starts))
    for initial in (sq.initial_state(), np.tile(sq.initial_state(), (6, 1))):
        want = sq.run_sequence(initial, seq, MODEL, tr)
        got = sq.run_sequence(initial, seq, MODEL, integrals=integrals)
        assert got.tobytes() == want.tobytes()
    for kwargs, message in (
            (dict(trajectory=tr, integrals=integrals), "not both"),
            (dict(integrals=integrals[:, :, 1:]), "(6, 2, 4)"),
            (dict(integrals=integrals[:5]), "wait integrals have shape "
                                            "(5, 2, 5)")):
        with pytest.raises(SimulationError, match=re.escape(message)):
            sq.run_sequence(np.ones((6, 8)), seq, MODEL, **kwargs)


@pytest.mark.parametrize("call, named", [
    (lambda: sq.apply_rf_pulse(np.ones((5, 6), complex), sq.RFPulse(math.pi)),
     [(5, 6)]),
    (lambda: sq.apply_optical_pulse(np.ones((5, 6), complex),
                                    sq.OpticalPulse(-2.5, math.pi)), [(5, 6)]),
], ids=["rf_pulse", "optical_pulse"])
def test_steps_reject_mismatched_shapes(call, named):
    from ddquad.errors import SimulationError
    with pytest.raises(SimulationError) as info:
        call()
    for shape in named:
        assert str(shape) in str(info.value)


@pytest.mark.parametrize("tau", [None, 0.0], ids=["no_wait", "zero_waits"])
def test_single_state_against_rows_returns_rows_without_waits(tau):
    """A single state against N trajectory rows gives a new (N, 8) batch
    whether or not any wait makes the rows differ."""
    if tau is None:
        seq = sq.PulseSequence((sq.OpticalPulse(-2.5, math.pi / 2),
                                sq.RFPulse(math.pi, 0.3), sq.Measure()))
    else:
        seq = sq.build_quadrupole_dd_sequence(4, tau, laser_phase=0.7)
    initial = sq.initial_state()
    one = sq.run_sequence(initial, seq, MODEL)
    for values in (np.zeros((5, 1)), np.full((5, 3), 2e-7)):
        tr = am.NoiseTrajectory(np.arange(values.shape[-1] + 1) * 1e-4, values)
        out = sq.run_sequence(initial, seq, MODEL, tr)
        assert out.shape == (5, 8)
        assert out.flags.writeable and out.flags.owndata
        assert np.array_equal(out, np.broadcast_to(one, (5, 8)))
        assert np.array_equal(initial, sq.initial_state())
    # one batched row still drives a single state
    assert sq.run_sequence(initial, seq, MODEL,
                           am.zero_trajectory(1)).shape == (8,)


def test_rows_appear_at_the_first_wait(monkeypatch):
    """The steps before the first block with a wait act on one state, and
    the rows appear at that block."""
    calls = []
    apply_pulse, evolve = sq._apply_pulse, sq.free_evolve

    def pulse(state, columns, u_t):
        calls.append(("pulse", state.shape))
        return apply_pulse(state, columns, u_t)

    def block(state, *args, **kwargs):
        calls.append(("block", state.shape))
        return evolve(state, *args, **kwargs)

    monkeypatch.setattr(sq, "_apply_pulse", pulse)
    monkeypatch.setattr(sq, "free_evolve", block)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
    tr = am.sample_noise_trajectory(noise, 1e-3, 4, n_shots=30)
    sq.run_sequence(sq.initial_state(), sq.build_quadrupole_dd_sequence(
        2, 1e-4), MODEL, tr)
    # the pi/2 leaves S:-1/2 and D:-5/2; the closing pi/2 acts on the rows
    assert calls == [("pulse", (8,)), ("block", (8,)), ("pulse", (30, 8))]
    calls.clear()
    out = sq.run_sequence(sq.initial_state(), sq.build_quadrupole_dd_sequence(
        2, 0.0), MODEL, tr)
    assert calls == [("pulse", (8,)), ("block", (8,)), ("pulse", (8,))]
    assert out.shape == (30, 8)


# -- closed-form phases of a constant offset -----------------------------------

@pytest.mark.parametrize("values", [np.zeros(1), np.full(1, -2.3e-7),
                                    np.zeros((4, 1)),
                                    np.random.default_rng(3).normal(
                                        0.0, 3e-7, (5, 1))],
                         ids=["zero", "quasi_static", "zero_rows",
                              "quasi_static_rows"])
@pytest.mark.parametrize("last", [np.inf, 1.5e-4],
                         ids=["infinite_edge", "finite_edge"])
def test_one_segment_integrals_match_the_overlap(values, last):
    """A one-segment trajectory's closed form, const + v A + v^2 B with A
    and B summed over the waits in wait order, leaves the
    state that the overlap integrals of every wait leave (the
    multi-segment path, here given two equal segments): bit for bit
    without an offset, to the rounding of the summed phases otherwise,
    whether the last edge is infinite or inside the sequence.  The
    Ramsey sequence has one wait, so its integrals on two segments have
    one column per row, as the offset and its square have."""
    ramsey = sq.PulseSequence((
        sq.OpticalPulse(-2.5, math.pi / 2), sq.Wait(1.2e-4),
        sq.OpticalPulse(-2.5, math.pi / 2, 0.7), sq.Measure()))
    one = am.NoiseTrajectory([0.0, last], values)
    two = am.NoiseTrajectory([0.0, 7.5e-5, last],
                             np.repeat(values, 2, axis=-1))
    for seq in (sq.build_quadrupole_dd_sequence(4, 1e-4, laser_phase=0.7),
                ramsey):
        got = sq.run_sequence(sq.initial_state(), seq, MODEL, one)
        want = sq.run_sequence(sq.initial_state(), seq, MODEL, two)
        assert got.shape == want.shape == values.shape[:-1] + (8,)
        if not values.any():
            assert np.array_equal(got, want)
        else:
            # each wait's offset phase is below 50 rad, its rounding ~1e-14
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
