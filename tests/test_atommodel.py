import math

import numpy as np
import pytest

from ddquad import atommodel as am
from ddquad import constants as const
from ddquad.sequence import level_coefficients


def test_mu_b_over_h_value():
    # adjacent-sublevel Zeeman splitting g * mu_B * B / h with g = 1.2
    assert 1.2 * const.MU_B_OVER_H * 3e-4 == pytest.approx(5.038648e6, rel=1e-6)


def test_quadrupole_shift_reference_values():
    trap = am.TrapConfig(dEz_dz=1e8)
    assert am.quadrupole_shift(2.5, trap, 2.973, 0.0) == pytest.approx(-100.652, abs=1e-3)
    assert am.quadrupole_shift(0.5, trap, 2.973, 0.0) == pytest.approx(80.521, abs=1e-3)


def test_quadrupole_shift_m_symmetry_and_tracelessness():
    trap = am.TrapConfig(dEz_dz=7.7e7, epsilon1=0.3, alpha=0.2)
    ms = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    shifts = [am.quadrupole_shift(m, trap, 2.973, 0.9) for m in ms]
    for m, s in zip(ms, shifts):
        assert s == pytest.approx(am.quadrupole_shift(-m, trap, 2.973, 0.9), rel=1e-12)
    # sum over the multiplet vanishes: sum(35 - 12 m^2) = 0
    assert sum(shifts) == pytest.approx(0.0, abs=1e-9 * max(abs(s) for s in shifts))


def test_magic_angle_kills_shift():
    magic = math.acos(1.0 / math.sqrt(3.0))
    assert am.quadrupole_geometry(magic) == pytest.approx(0.0, abs=1e-14)
    trap = am.TrapConfig(dEz_dz=1e8)
    assert am.quadrupole_shift(2.5, trap, 2.973, magic) == pytest.approx(0.0, abs=1e-10)


def _geometry_from_hessian(beta, eps1, alpha):
    """Independent oracle for the angular bracket.

    The DC potential's Hessian (in trap axes, up to the common
    prefactor) is diag(1+eps1, 1-eps1, -2) -- traceless, as the Laplace
    equation requires.  The bracket is -n^T H n with the quantization
    axis n = (sin b sin a, sin b cos a, cos b): at eps1 = 0 this is
    3cos^2(b) - 1.
    """
    h = np.diag([1.0 + eps1, 1.0 - eps1, -2.0])
    n = np.array([math.sin(beta) * math.sin(alpha),
                  math.sin(beta) * math.cos(alpha),
                  math.cos(beta)])
    return -n @ h @ n


def test_epsilon1_geometry_against_rotated_hessian():
    rng = np.random.default_rng(11)
    for _ in range(200):
        beta = rng.uniform(0, math.pi)
        alpha = rng.uniform(0, 2 * math.pi)
        eps1 = rng.uniform(-1, 1)
        want = _geometry_from_hessian(beta, eps1, alpha)
        assert am.quadrupole_geometry(beta, eps1, alpha) == pytest.approx(want, abs=1e-12)


def test_epsilon1_term_vanishes_at_default_azimuth():
    # alpha = pi/4 puts the field along the trap x+y diagonal where the
    # asymmetric contribution cancels
    for beta in (0.3, 0.9, 1.4):
        assert am.quadrupole_geometry(beta, 0.7, math.pi / 4) \
            == pytest.approx(am.quadrupole_geometry(beta, 0.0, math.pi / 4), abs=1e-14)


def test_arm_phase_rate_value_and_identity():
    trap = am.TrapConfig(dEz_dz=1e8)
    rate = am.arm_phase_rate(trap, 2.973, 0.0)
    assert rate == pytest.approx(1138.345, abs=1e-2)
    via_shifts = 2 * math.pi * (am.quadrupole_shift(0.5, trap, 2.973, 0.0)
                                - am.quadrupole_shift(2.5, trap, 2.973, 0.0))
    assert rate == pytest.approx(via_shifts, rel=1e-12)


def second_order_zeeman_shift(m: float, field_cfg: am.FieldConfig,
                              species: am.IonSpecies) -> float:
    """Second-order Zeeman shift of |D, m> in Hz.

    Proportional to m^2 B^2 and normalized so that the echo-mapped
    {5/2, 1/2} arm pair sees the configured differential coefficient:
    nu(5/2) - nu(1/2) = c2_quad_zeeman * B^2.
    """
    if m not in am.D_INDEX:
        raise ValueError(f"m={m} is not a D_5/2 sublevel")
    # (25/4 - 1/4) / 6 = 1, hence the /6 normalization
    return species.c2_quad_zeeman * field_cfg.B ** 2 * m * m / 6.0


def test_second_order_zeeman_differential():
    sp = am.IonSpecies()
    f = am.FieldConfig(B=3e-4)
    # differential between the m=-5/2 and m=-1/2 arms is C2*B^2 = 0.279 Hz
    diff = second_order_zeeman_shift(-2.5, f, sp) - second_order_zeeman_shift(-0.5, f, sp)
    assert diff == pytest.approx(3.1e6 * (3e-4) ** 2, rel=1e-12)
    assert diff == pytest.approx(0.279, abs=1e-6)
    # even in m
    assert second_order_zeeman_shift(1.5, f, sp) \
        == pytest.approx(second_order_zeeman_shift(-1.5, f, sp), rel=1e-12)


def test_level_coefficients_b2_matches_second_order_zeeman():
    model = am.IonModel(field_cfg=am.FieldConfig(B=4.2e-4))
    b2 = level_coefficients(model)[2]
    B = model.field_cfg.B
    for m, i in am.D_INDEX.items():
        assert b2[i] * B ** 2 == pytest.approx(
            second_order_zeeman_shift(m, model.field_cfg, model.species), rel=1e-12)
    for i in am.S_INDEX.values():
        assert b2[i] == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        am.TrapConfig(epsilon1=1.5)
    with pytest.raises(ValueError):
        am.FieldConfig(B=0.0)
    with pytest.raises(ValueError):
        am.NoiseModel(kind="pink")
    with pytest.raises(ValueError):
        am.NoiseModel(kind="quasi_static", sigma_B=-1.0)


@pytest.mark.parametrize("make", [
    lambda: am.NoiseTrajectory([0.0, math.nan, 1.0], [0.0, 1e-7]),
    lambda: am.NoiseModel(kind="quasi_static", sigma_B=math.nan),
    lambda: am.NoiseModel(kind="random_walk", drift_rate_sigma=math.nan),
    lambda: am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-6,
                          step_dt=math.nan),
    lambda: am.NoiseModel(kind="quasi_static", sigma_B=math.inf),
], ids=["edge", "sigma_B", "drift_rate_sigma", "step_dt", "inf_sigma_B"])
def test_noise_layer_rejects_non_finite_parameters(make):
    # a NaN edge gave NaN integrals and a non-finite state with no error;
    # a NaN sigma gave an all-zero fringe, a NaN step_dt an error in ceil
    with pytest.raises(ValueError):
        make()


def test_trajectory_integrals_exact():
    tr = am.NoiseTrajectory([0.0, 1.0, 3.0, 4.0], [2.0, -1.0, 0.5])
    assert tr.integral(0.0, 4.0) == pytest.approx(2.0 - 2.0 + 0.5)
    assert tr.integral(0.5, 1.5) == pytest.approx(2.0 * 0.5 - 1.0 * 0.5)
    assert tr.square_integral(0.0, 4.0) == pytest.approx(4.0 + 2.0 + 0.25)
    # final segment extends past the last edge
    assert tr.integral(3.5, 5.0) == pytest.approx(0.5 * 1.5)


def test_trajectory_integrals_with_array_bounds():
    # one call with W intervals equals W scalar calls, for a single and a
    # batched trajectory, including intervals past the finite last edge
    values = np.array([[2.0, -1.0, 0.5], [0.3, 0.7, -2.0]])
    t0 = np.array([0.0, 0.5, 3.5, 4.5, 2.0, 1.0])
    t1 = np.array([4.0, 1.5, 5.0, 6.0, 2.0, 3.0])
    for vals in (values[0], values):
        tr = am.NoiseTrajectory([0.0, 1.0, 3.0, 4.0], vals)
        i1 = tr.integral(t0, t1)
        i2 = tr.square_integral(t0, t1)
        assert i1.shape == i2.shape == vals.shape[:-1] + (len(t0),)
        for w in range(len(t0)):
            assert np.array_equal(i1[..., w], tr.integral(t0[w], t1[w]))
            assert np.array_equal(i2[..., w], tr.square_integral(t0[w], t1[w]))
    assert tr.integral(t0, t1)[1, 3] == pytest.approx(-2.0 * 1.5)


def test_square_integral_by_row_blocks():
    # a batch larger than one block of squares gives the full-matrix
    # product to within the rounding of a K-term sum of positive terms
    rng = np.random.default_rng(3)
    rows, k = 2 * am.SQUARE_BLOCK_ROWS + 7, 50
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-5, 1e-4, k))])
    tr = am.NoiseTrajectory(edges, rng.normal(0.0, 1e-7, (rows, k)))
    t0, t1 = np.array([0.0, 2e-4, 1e-3]), np.array([5e-3, 9e-4, 1e-2])
    got = tr.square_integral(t0, t1)
    want = (tr.values ** 2) @ tr._overlap(t0, t1)
    assert got.shape == (rows, 3)
    np.testing.assert_allclose(got, want, rtol=k * np.finfo(float).eps,
                               atol=0.0)


def test_trajectory_shape_validation():
    with pytest.raises(ValueError):
        am.NoiseTrajectory([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        am.NoiseTrajectory([0.0, 0.0, 1.0], [1.0, 2.0])
    # a trajectory that started later ran as if it held from t = 0 on the
    # executor's one-segment path, but as zero before its first edge in a
    # free_evolve of each wait (1.13 apart in amplitude on an echo)
    with pytest.raises(ValueError, match="start at 0"):
        am.NoiseTrajectory([5e-5, np.inf], [3e-7])


def test_noise_sampling_deterministic():
    model = am.NoiseModel(kind="quasi_static", sigma_B=1e-7)
    t1 = am.sample_noise_trajectory(model, 1e-3, 42, n_shots=50)
    t2 = am.sample_noise_trajectory(model, 1e-3, 42, n_shots=50)
    assert np.array_equal(t1.values, t2.values)
    t3 = am.sample_noise_trajectory(model, 1e-3, 43, n_shots=50)
    assert not np.array_equal(t1.values, t3.values)


def test_quasi_static_statistics():
    model = am.NoiseModel(kind="quasi_static", sigma_B=2e-7)
    tr = am.sample_noise_trajectory(model, 1e-3, 7, n_shots=20000)
    vals = tr.values[:, 0]
    assert np.mean(vals) == pytest.approx(0.0, abs=5e-9)
    assert np.std(vals) == pytest.approx(2e-7, rel=0.03)


def test_random_walk_statistics():
    model = am.NoiseModel(kind="random_walk", drift_rate_sigma=1e-5, step_dt=1e-4)
    tr = am.sample_noise_trajectory(model, 4e-3, 7, n_shots=5000)
    # starts at zero, variance grows linearly with time
    assert np.all(tr.values[:, 0] == 0.0)
    final = tr.values[:, -1]
    t_final = (tr.values.shape[1] - 1) * 1e-4
    assert np.std(final) == pytest.approx(1e-5 * math.sqrt(t_final), rel=0.05)


def test_hbar_derived_from_h():
    assert const.HBAR == const.PLANCK_H / (2 * math.pi)
