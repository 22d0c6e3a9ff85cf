"""The echo sequence as elements: its exact layout, and the values an
element refuses, checked on the elements and on
``build_quadrupole_dd_sequence`` directly."""

import math

import pytest

from ddquad import sequence as sq


def test_written_elements_match_builder():
    # the paper's sequence written out element by element, n_echo = 4
    wait = sq.Wait(250e-6)
    blocks = []
    for rf_phase in (0.0, math.pi, 0.0, math.pi):
        blocks += [wait, sq.RFPulse(math.pi, rf_phase), wait]
    written = (sq.OpticalPulse(-2.5, math.pi / 2, 0.0),
               sq.OpticalPulse(-0.5, math.pi, 0.0),
               *blocks,
               sq.OpticalPulse(-2.5, math.pi, 0.0),
               sq.OpticalPulse(-0.5, math.pi / 2, 0.7),
               sq.Measure())
    assert sq.build_quadrupole_dd_sequence(
        4, 250e-6, laser_phase=0.7).elements == written


def test_duration_suffix_is_bit_exact():
    for tau in (250e-6, 1.5e-3, 80e-9):
        seq = sq.build_quadrupole_dd_sequence(2, tau)
        waits = [e.tau for e in seq.elements if isinstance(e, sq.Wait)]
        assert waits == [tau] * 4      # exact equality, not approx
        assert waits[0] == tau


def test_alt_resolves_per_iteration():
    for n_echo in (2, 4, 8):
        seq = sq.build_quadrupole_dd_sequence(n_echo, 10e-6)
        rf_phases = [e.rf_phase for e in seq.elements
                     if isinstance(e, sq.RFPulse)]
        assert rf_phases == [0.0, math.pi] * (n_echo // 2)


def test_round_trip_preserves_everything():
    # the parameters read back from the elements (n_echo is the RF pi
    # count, tau the first wait's length) rebuild the sequence
    seq = sq.build_quadrupole_dd_sequence(8, 250e-6, laser_phase=1.234)
    n_echo = sum(isinstance(e, sq.RFPulse) for e in seq.elements)
    tau = next(e.tau for e in seq.elements if isinstance(e, sq.Wait))
    again = sq.build_quadrupole_dd_sequence(
        n_echo, tau, laser_phase=seq.elements[-2].laser_phase)
    assert again == seq


@pytest.mark.parametrize("make", [
    lambda: sq.Wait(math.inf),
    lambda: sq.Wait(math.nan),
    lambda: sq.RFPulse(math.inf),
    lambda: sq.RFPulse(math.pi, math.nan),
    lambda: sq.OpticalPulse(-2.5, math.nan),
    lambda: sq.OpticalPulse(-2.5, math.pi, -math.inf),
], ids=["wait_inf", "wait_nan", "rf_area", "rf_phase", "optical_area",
        "optical_phase"])
def test_elements_reject_non_finite_values(make):
    with pytest.raises(ValueError, match="finite"):
        make()
