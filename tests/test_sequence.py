import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddquad import atommodel as am
from ddquad import sequence as sq
from wigner import wigner_d_matrix


MODEL = am.IonModel()
NO_C2 = replace(MODEL, species=replace(MODEL.species, c2_quad_zeeman=0.0))


def test_builder_shape_and_duration():
    seq = sq.build_quadrupole_dd_sequence(n_echo=2, tau=1e-4, laser_phase=0.3)
    assert len(seq.elements) == 11
    assert seq.n_echo == 2 and seq.tau == 1e-4
    assert seq.duration() == pytest.approx(4e-4, rel=1e-12)
    assert isinstance(seq.elements[-1], sq.Measure)


def test_builder_rejects_odd_or_small_n():
    with pytest.raises(ValueError):
        sq.build_quadrupole_dd_sequence(n_echo=3, tau=1e-4)
    with pytest.raises(ValueError):
        sq.build_quadrupole_dd_sequence(n_echo=0, tau=1e-4)


# the non-finite values are checked in test_dsl.py
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
        sq.Measure()), n_echo=0, tau=0.0)
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
        sq.Measure()), n_echo=0, tau=0.0)
    psi = sq.run_sequence(sq.initial_state(), seq, MODEL)
    pops = np.abs(psi) ** 2
    assert pops[7] == pytest.approx(0.5, abs=1e-12)   # D:+5/2
    assert pops[5] == pytest.approx(0.5, abs=1e-12)   # D:+1/2


def test_rf_rabi_matches_wigner_law():
    # populations from the stretched state follow |d^{5/2}_{m,-5/2}|^2
    for area in np.linspace(0, 2 * math.pi, 40):
        seq = sq.PulseSequence(elements=(
            sq.RFPulse(area=float(area), rf_phase=0.0), sq.Measure()),
            n_echo=0, tau=0.0)
        psi = sq.run_sequence(sq.initial_state("D:-5/2"), seq, MODEL)
        pops = np.abs(psi[2:8]) ** 2
        d = wigner_d_matrix(2.5, float(area))
        assert np.max(np.abs(pops - d[:, 0] ** 2)) < 1e-12


def test_norm_preserved_with_noise():
    seq = sq.build_quadrupole_dd_sequence(n_echo=4, tau=2e-4, laser_phase=0.9)
    noise = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-4, step_dt=5e-5)
    tr = am.sample_noise_trajectory(noise, seq.duration(), 3, n_shots=16)
    states = np.tile(sq.initial_state(), (16, 1)).astype(complex)
    out = sq.run_sequence(states, seq, MODEL, trajectory=tr)
    assert np.allclose(np.sum(np.abs(out) ** 2, axis=-1), 1.0, atol=1e-10)


def test_batched_matches_single_shot():
    seq = sq.build_quadrupole_dd_sequence(n_echo=2, tau=1e-4, laser_phase=0.4)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=2e-7)
    tr = am.sample_noise_trajectory(noise, seq.duration(), 5, n_shots=4)
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
                        for e in seq.elements),
                    n_echo=seq.n_echo, tau=seq.tau)
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
    seq = sq.PulseSequence(elements=(sq.Wait(1e-4),), n_echo=0, tau=0.0)
    with pytest.raises(SimulationError):
        sq.run_sequence(sq.initial_state(), seq, MODEL)


def test_free_evolve_phase_integration_matches_brute_force():
    # piecewise-constant trajectory: compare against many short exact steps
    tr = am.NoiseTrajectory([0.0, 3e-5, 9e-5, 2e-4], [2e-7, -1e-7, 4e-8])
    state = (sq.initial_state("D:-5/2") + sq.initial_state("D:-1/2")) / math.sqrt(2)
    direct = sq.free_evolve(state.copy(), 1.8e-4, MODEL, tr, t_start=1e-5)
    stepped = state.copy()
    edges = np.linspace(1e-5, 1.9e-4, 3601)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        stepped = sq.free_evolve(stepped, t1 - t0, MODEL, tr, t_start=t0)
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
    got = sq.free_evolve(state, 1.9e-4, MODEL, tr, t_start=1e-5)
    assert np.max(np.abs(got - state * np.exp(1j * phase))) < 1e-10


def test_analytic_phase_uses_geometry():
    m1 = replace(NO_C2, field_cfg=replace(NO_C2.field_cfg, beta=0.0))
    m2 = replace(NO_C2, field_cfg=replace(NO_C2.field_cfg,
                                          beta=math.acos(1 / math.sqrt(3))))
    assert sq.analytic_phase(4, 1e-4, m2) == pytest.approx(0.0, abs=1e-12)
    assert sq.analytic_phase(4, 1e-4, m1) == pytest.approx(
        8e-4 * am.arm_phase_rate(m1.trap, m1.theta, 0.0), rel=1e-12)


# -- compiled executor against the one-element API ------------------------------

def reference_run(initial, seq, model, trajectory=None):
    """Left fold of ``free_evolve``/``apply_*_pulse`` over the elements,
    one wait at a time: the executor without compilation.  A single state
    run against N > 1 trajectory rows comes back as N rows, waits or not."""
    state = np.array(initial, dtype=complex)
    t = 0.0
    for element in seq.elements[:-1]:
        if isinstance(element, sq.Wait):
            state = sq.free_evolve(state, element.tau, model, trajectory,
                                   t_start=t)
            t += element.tau
        elif isinstance(element, sq.RFPulse):
            state = sq.apply_rf_pulse(state, element)
        else:
            state = sq.apply_optical_pulse(state, element)
    rows = () if trajectory is None else trajectory.values.shape[:-1]
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
    tr = am.sample_noise_trajectory(noise, seq.duration(), seed, n_shots=4)
    batch = np.tile(sq.initial_state(), (4, 1))
    p_noisy = measure_population_D(sq.run_sequence(batch, seq, NO_C2, tr))
    p_quiet = measure_population_D(sq.run_sequence(sq.initial_state(), seq,
                                                   NO_C2))
    assert np.max(np.abs(p_noisy - p_quiet)) <= 1e-9


def test_compile_merges_waits_and_drops_empty_ones():
    seq = sq.PulseSequence((
        sq.Wait(0.0), sq.RFPulse(math.pi), sq.Wait(1e-4), sq.Wait(0.0),
        sq.Wait(2e-4), sq.RFPulse(math.pi), sq.Wait(0.0), sq.Measure()))
    steps, taus, starts, ends = sq._compile(seq.elements)
    assert [isinstance(s, int) for s in steps] == [False, True, False]
    assert taus == [pytest.approx(3e-4)]
    assert starts == [0.0] and ends == [pytest.approx(3e-4)]
    paper = sq.build_quadrupole_dd_sequence(8, 1e-4)
    assert len(sq._compile(paper.elements)[1]) == 9   # 16 waits


def test_static_trajectory_computes_each_wait_length_once(monkeypatch):
    calls = []
    free_evolve = sq.free_evolve

    def counting(*args, **kwargs):
        calls.append(args[1])
        return free_evolve(*args, **kwargs)

    monkeypatch.setattr(sq, "free_evolve", counting)
    batch = np.broadcast_to(sq.initial_state(), (300, 8))

    def count(tau, noise):
        seq = sq.build_quadrupole_dd_sequence(8, tau, laser_phase=0.7)
        tr = am.sample_noise_trajectory(noise, seq.duration(), 4, n_shots=300)
        calls.clear()
        sq.run_sequence(batch, seq, MODEL, tr)
        return len(calls)

    static = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
    walk = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-4,
                         step_dt=5e-5)
    assert count(2.5e-4, static) == 2          # tau, 2 tau
    assert count(2.5e-4, walk) == 9            # one per merged wait
    assert count(0.0, static) == 0


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


@pytest.mark.parametrize("call, named", [
    (lambda: sq.free_evolve(np.ones((5, 8), complex), 1e-4, MODEL,
                            am.zero_trajectory(3)), [(5, 8), (3, 1)]),
    (lambda: sq.free_evolve(np.ones((5, 6), complex), 1e-4, MODEL), [(5, 6)]),
    (lambda: sq.apply_rf_pulse(np.ones((5, 6), complex), sq.RFPulse(math.pi)),
     [(5, 6)]),
    (lambda: sq.apply_optical_pulse(np.ones((5, 6), complex),
                                    sq.OpticalPulse(-2.5, math.pi)), [(5, 6)]),
], ids=["free_evolve_rows", "free_evolve_last_axis", "rf_pulse",
        "optical_pulse"])
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
    shapes = []
    apply_pulse = sq._apply_pulse

    def recording(state, columns, u_t):
        shapes.append(state.shape)
        return apply_pulse(state, columns, u_t)

    monkeypatch.setattr(sq, "_apply_pulse", recording)
    noise = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
    tr = am.sample_noise_trajectory(noise, 1e-3, 4, n_shots=30)
    sq.run_sequence(sq.initial_state(), sq.build_quadrupole_dd_sequence(
        2, 1e-4), MODEL, tr)
    assert shapes == [(8,)] * 2 + [(30, 8)] * 4
    shapes.clear()
    out = sq.run_sequence(sq.initial_state(), sq.build_quadrupole_dd_sequence(
        2, 0.0), MODEL, tr)
    assert shapes == [(8,)] * 6 and out.shape == (30, 8)


@given(st.lists(PHASES, min_size=1, max_size=6), AREAS,
       st.sampled_from(am.D_M_VALUES), st.sampled_from([(), (1,), (5,)]),
       st.integers(0, 2 ** 32 - 1))
def test_apply_pulses_matches_one_pulse_at_a_time(phases, area, target, rows,
                                                  seed):
    rng = np.random.default_rng(seed)
    shape = (len(phases),) + rows + (8,)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pulses = [sq.OpticalPulse(target, area, phase) for phase in phases]
    got = sq.apply_pulses(states, pulses)
    for state, pulse, row in zip(states, pulses, got):
        assert np.array_equal(row, sq.apply_optical_pulse(state, pulse))


@pytest.mark.parametrize("states, pulses, match", [
    (np.ones((2, 8)), [sq.OpticalPulse(-2.5, 1.0)], r"\(1, ..., 8\)"),
    (np.ones((2, 8)), [sq.OpticalPulse(-2.5, 1.0), sq.OpticalPulse(-0.5, 1.0)],
     "same columns"),
    (np.ones((2, 6)), [sq.RFPulse(1.0)] * 2, r"\(2, 6\)"),
], ids=["count", "columns", "last_axis"])
def test_apply_pulses_rejects_mismatches(states, pulses, match):
    from ddquad.errors import SimulationError
    with pytest.raises(SimulationError, match=match):
        sq.apply_pulses(states, pulses)


# -- closed-form integrals of a constant offset --------------------------------

@pytest.mark.parametrize("values", [np.zeros(1), np.full(1, -2.3e-7),
                                    np.zeros((4, 1)),
                                    np.random.default_rng(3).normal(
                                        0.0, 3e-7, (5, 1))],
                         ids=["zero", "quasi_static", "zero_rows",
                              "quasi_static_rows"])
@pytest.mark.parametrize("last, exact", [(np.inf, True), (1.5e-4, False)],
                         ids=["infinite_edge", "finite_edge"])
def test_one_segment_integrals_match_the_overlap(values, last, exact):
    """A one-segment trajectory's closed-form [v L, v^2 L] equals the
    general overlap integrals over [0, L]: bit for bit when the segment's
    edge is infinite, to rounding when the waits run past a finite last
    edge."""
    seq = sq.build_quadrupole_dd_sequence(4, 1e-4, laser_phase=0.7)
    _, taus, starts, ends = sq._compile(seq.elements)
    lengths = list(dict.fromkeys(taus))
    trajectory = am.NoiseTrajectory([0.0, last], values)
    static, got = sq._read_trajectory(trajectory, taus, starts, ends)
    want = sq._wait_integrals([0.0] * len(lengths), lengths, trajectory,
                              False)
    assert static
    assert got.shape == want.shape == (2,) + values.shape[:-1] + (2,)
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
