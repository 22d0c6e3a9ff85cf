import math

import numpy as np
import pytest
from scipy.linalg import expm

from ddquad import spincore
from wigner import wigner_d_element, wigner_d_matrix


JS = [0.5, 1.0, 1.5, 2.5]


def test_m_values_ascending():
    m = spincore.m_values(2.5)
    assert np.allclose(m, [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])


@pytest.mark.parametrize("j", JS)
def test_commutation_relations(j):
    ops = spincore.spin_operators(j)
    comm = ops["Jx"] @ ops["Jy"] - ops["Jy"] @ ops["Jx"]
    assert np.allclose(comm, 1j * ops["Jz"], atol=1e-12)
    j2 = ops["Jx"] @ ops["Jx"] + ops["Jy"] @ ops["Jy"] + ops["Jz"] @ ops["Jz"]
    assert np.allclose(j2, j * (j + 1) * np.eye(int(2 * j + 1)), atol=1e-12)


def test_ladder_matrix_elements():
    ops = spincore.spin_operators(2.5)
    m = spincore.m_values(2.5)
    jp = ops["Jplus"]
    for i in range(5):
        expected = math.sqrt(2.5 * 3.5 - m[i] * (m[i] + 1))
        assert jp[i + 1, i] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(ops["Jminus"], jp.conj().T)


@pytest.mark.parametrize("j", JS)
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, 2.7, 4 * math.pi])
def test_wigner_d_matches_expm(j, theta):
    jy = spincore.spin_operators(j)["Jy"]
    ref = expm(-1j * theta * jy).real
    assert np.max(np.abs(wigner_d_matrix(j, theta) - ref)) < 1e-10


def test_wigner_d_element_matches_matrix():
    theta = 1.234
    d = wigner_d_matrix(2.5, theta)
    m = spincore.m_values(2.5)
    for i, m_to in enumerate(m):
        for k, m_from in enumerate(m):
            assert wigner_d_element(2.5, m_to, m_from, theta) \
                == pytest.approx(d[i, k], abs=1e-14)


@pytest.mark.parametrize("j", JS)
def test_rotation_unitary_is_unitary(j):
    u = spincore.rotation_unitary(j, 1.1, 0.7)
    dim = int(2 * j + 1)
    assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_rotation_unitary_matches_generator():
    ops = spincore.spin_operators(2.5)
    for area, phi in [(math.pi, 0.0), (math.pi / 2, 1.3), (2.2, -0.4)]:
        gen = ops["Jx"] * math.cos(phi) + ops["Jy"] * math.sin(phi)
        ref = expm(-1j * area * gen)
        assert np.max(np.abs(spincore.rotation_unitary(2.5, area, phi) - ref)) < 1e-10


def test_axis_phase_is_z_rotation_conjugation():
    # U(area, phi) = exp(-i phi Jz) U(area, 0) exp(+i phi Jz)
    ops = spincore.spin_operators(2.5)
    phi = 0.9
    rz = expm(-1j * phi * ops["Jz"])
    u0 = spincore.rotation_unitary(2.5, 1.7, 0.0)
    u = spincore.rotation_unitary(2.5, 1.7, phi)
    assert np.max(np.abs(u - rz @ u0 @ rz.conj().T)) < 1e-12


def test_two_pi_rotation_half_integer_spin():
    # a 2*pi rotation of a half-integer spin is -identity
    u = spincore.rotation_unitary(2.5, 2 * math.pi, 0.0)
    assert np.allclose(u, -np.eye(6), atol=1e-12)


def test_pi_rotation_reverses_m():
    # area pi about x maps |j,m> onto |j,-m> up to phase
    u = spincore.rotation_unitary(2.5, math.pi, 0.0)
    pops = np.abs(u) ** 2
    assert np.allclose(pops, np.fliplr(np.eye(6)), atol=1e-12)


def test_cached_unitary_is_readonly():
    u = spincore.rotation_unitary(2.5, math.pi, 0.0)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0


def test_invalid_j_rejected():
    with pytest.raises(ValueError):
        spincore.spin_operators(0.3)
    with pytest.raises(ValueError):
        spincore.m_values(-1.0)
