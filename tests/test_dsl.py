import math

import pytest
from hypothesis import given, strategies as st

from ddquad import dsl, sequence as sq
from ddquad.atommodel import D_M_VALUES
from ddquad.errors import SequenceSemanticError, SequenceSyntaxError


CANONICAL = """\
init S:-1/2
pulse optical pi/2 S:-1/2 D:-5/2 phase 0
pulse optical pi S:-1/2 D:-1/2 phase 0
repeat 4 {
  wait 250us
  pulse rf pi phase alt(0,pi)
  wait 250us
}
pulse optical pi S:-1/2 D:-5/2 phase 0
pulse optical pi/2 S:-1/2 D:-1/2 phase $phi_laser
measure
"""


def test_parse_matches_builder():
    seq = dsl.parse_sequence_text(CANONICAL, variables={"phi_laser": 0.7})
    assert seq.elements == sq.build_quadrupole_dd_sequence(
        4, 250e-6, laser_phase=0.7).elements


def test_duration_suffix_is_bit_exact():
    seq = dsl.parse_sequence_text("init S:-1/2\nwait 250us\nmeasure\n")
    assert seq.elements[0].tau == 250e-6       # exact equality, not approx
    seq2 = dsl.parse_sequence_text("init S:-1/2\nwait 1.5ms\nmeasure\n")
    assert seq2.elements[0].tau == 1.5e-3
    seq3 = dsl.parse_sequence_text("init S:-1/2\nwait 80ns\nmeasure\n")
    assert seq3.elements[0].tau == 80e-9


def test_pi_literals():
    text = ("init S:-1/2\n"
            "pulse optical pi/2 S:-1/2 D:-5/2 phase pi\n"
            "pulse optical 3pi/2 S:-1/2 D:-1/2 phase pi/2\n"
            "pulse optical 2pi S:-1/2 D:-5/2 phase 0\n"
            "measure\n")
    seq = dsl.parse_sequence_text(text)
    areas = [e.area for e in seq.elements[:-1]]
    assert areas == [math.pi / 2, 3 * math.pi / 2, 2 * math.pi]
    assert seq.elements[0].laser_phase == math.pi
    assert seq.elements[1].laser_phase == math.pi / 2


def test_alt_resolves_per_iteration():
    text = ("init S:-1/2\n"
            "repeat 4 {\n"
            "wait 10us\n"
            "pulse rf pi phase alt(0,pi)\n"
            "wait 10us\n"
            "}\n"
            "measure\n")
    seq = dsl.parse_sequence_text(text)
    rf_phases = [e.rf_phase for e in seq.elements if isinstance(e, sq.RFPulse)]
    assert rf_phases == [0.0, math.pi, 0.0, math.pi]


def test_round_trip_preserves_everything():
    seq = sq.build_quadrupole_dd_sequence(8, 250e-6, laser_phase=1.234)
    text = dsl.serialize_sequence(seq)
    again = dsl.parse_sequence_text(text)
    assert again.elements == seq.elements
    # serialization is a fixed point
    assert dsl.serialize_sequence(again) == text


def test_round_trip_flat_sequence():
    text = ("init D:-5/2\n"
            "pulse rf pi/2 phase 0.25\n"
            "wait 42us\n"
            "measure\n")
    seq = dsl.parse_sequence_text(text)
    again = dsl.parse_sequence_text(dsl.serialize_sequence(seq))
    assert again == seq


def test_syntax_error_reports_line():
    with pytest.raises(SequenceSyntaxError) as err:
        dsl.parse_sequence_text("init S:-1/2\nblorp 3\nmeasure\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text", [
    "init S:-1/2\nwait 3parsec\nmeasure\n",            # unknown unit
    "init S:-1/2\npulse rf pi phase\nmeasure\n",       # missing value
    "init S:-1/2\nrepeat 2 {\nwait 1us\nmeasure\n",    # unterminated block
    "init S:-1/2\nrepeat 2 {\nrepeat 2 {\nwait 1us\n}\n}\nmeasure\n",  # nested
])
def test_syntax_errors(text):
    with pytest.raises(SequenceSyntaxError):
        dsl.parse_sequence_text(text)


@pytest.mark.parametrize("text", [
    "init S:+3/2\nmeasure\n",                           # bad init level
    "init S:-1/2\npulse optical pi S:+1/2 D:-1/2 phase 0\nmeasure\n",
    "init S:-1/2\npulse optical pi S:-1/2 D:-7/2 phase 0\nmeasure\n",
    "init S:-1/2\nrepeat 3 {\nwait 1us\npulse rf pi phase alt(0,pi)\nwait 1us\n}\nmeasure\n",
    "init S:-1/2\nmeasure\nwait 1us\n",                 # measure not last
    "init S:-1/2\npulse optical pi S:-1/2 D:-1/2 phase $missing\nmeasure\n",
    "init S:-1/2\nwait -3us\nmeasure\n",                # negative duration
    "init S:-1/2\nrepeat 0 {\nwait 1us\n}\nmeasure\n",  # zero repeats
    "init S:-1/2\npulse rf -pi phase 0\nmeasure\n",     # negative area
    "init S:-1/2\npulse optical -1 S:-1/2 D:-1/2 phase 0\nmeasure\n",
    # numbers that are not finite
    "init S:-1/2\nwait inf\nmeasure\n",
    "init S:-1/2\nwait 1e400us\nmeasure\n",           # overflows to inf
    "init S:-1/2\nwait 1e9999999us\nmeasure\n",       # past Decimal's range
    "init S:-1/2\npulse rf 1e400 phase 0\nmeasure\n",
    "init S:-1/2\npulse rf pi phase nan\nmeasure\n",
    "init S:-1/2\npulse rf pi/0 phase 0\nmeasure\n",
    "init S:-1/2\npulse rf pi phase $p\nmeasure\n",   # $p is bound to nan
])
def test_semantic_errors(text):
    with pytest.raises(SequenceSemanticError):
        dsl.parse_sequence_text(text, variables={"p": math.nan})


def test_non_finite_number_names_its_line():
    with pytest.raises(SequenceSemanticError,
                       match=r"^line 3: 'inf' is not a finite number$"):
        dsl.parse_sequence_text("init S:-1/2\nwait 1us\nwait inf\nmeasure\n")


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
    # an element the DSL cannot write as text that parses back
    with pytest.raises(ValueError, match="finite"):
        make()


def test_unbound_variable_message_names_it():
    with pytest.raises(SequenceSemanticError) as err:
        dsl.parse_sequence_text(
            "init S:-1/2\nwait $t\nmeasure\n")
    assert "t" in str(err.value)


def test_variables_bind_numbers():
    seq = dsl.parse_sequence_text(
        "init S:-1/2\npulse rf pi phase $p\nmeasure\n", variables={"p": 0.5})
    assert seq.elements[0].rf_phase == 0.5


# -- round trip as a property ------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
AREAS = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, 2 * math.pi,
                                   3 * math.pi / 2]),
                  st.floats(0.0, 1e6))
DURATIONS = st.one_of(st.sampled_from([0.0, 250e-6, 1e-3]),
                      st.floats(0.0, 1.0))
ELEMENTS = st.one_of(
    st.builds(sq.OpticalPulse, target_m=st.sampled_from(D_M_VALUES),
              area=AREAS, laser_phase=FINITE),
    st.builds(sq.RFPulse, area=AREAS,
              rf_phase=st.one_of(st.sampled_from([0.0, math.pi]), FINITE)),
    st.builds(sq.Wait, tau=DURATIONS))


@st.composite
def sequences(draw):
    """Valid sequences: random elements around an optional run of n echo
    blocks (odd n included), with or without a final measure."""
    elements = draw(st.lists(ELEMENTS, max_size=5))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        blocks = sq.build_quadrupole_dd_sequence(
            2 * n, draw(DURATIONS)).elements[2:2 + 3 * n]
        elements += list(blocks) + draw(st.lists(ELEMENTS, max_size=5))
    if draw(st.booleans()):
        elements.append(sq.Measure())
    return sq.PulseSequence(tuple(elements))


builder_sequences = st.builds(
    sq.build_quadrupole_dd_sequence, st.integers(1, 8).map(lambda k: 2 * k),
    DURATIONS, laser_phase=FINITE)


@given(st.one_of(sequences(), builder_sequences))
def test_serialize_round_trip(seq):
    text = dsl.serialize_sequence(seq)
    again = dsl.parse_sequence_text(text)
    assert again.elements == seq.elements
    assert dsl.serialize_sequence(again) == text


@given(builder_sequences)
def test_builder_sequences_round_trip_exactly(seq):
    again = dsl.parse_sequence_text(dsl.serialize_sequence(seq))
    assert again.elements == seq.elements
