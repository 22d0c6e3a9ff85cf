import configparser
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ddquad import config as cfg
from ddquad.cli import _load_scenario
from ddquad.errors import ConfigError


def test_default_round_trip():
    base = cfg.ScenarioConfig()
    text = cfg.dump_config(base)
    back = cfg.load_config(text)
    assert back == base
    assert cfg.dump_config(back) == text


def test_paper_scenario_round_trip():
    base = cfg.paper_scenario(seed=123)
    text = cfg.dump_config(base)
    back = cfg.load_config(text)
    assert back == base
    assert back.seed == 123
    assert back.plan.n_echo == 8


def test_hash_stability_and_sensitivity():
    a = cfg.config_hash(cfg.ScenarioConfig())
    assert a == cfg.config_hash(cfg.ScenarioConfig())
    b = cfg.config_hash(cfg.ScenarioConfig(theta_true=3.0))
    assert a != b


def test_unknown_section_rejected():
    text = cfg.dump_config(cfg.ScenarioConfig()) + "\n[webserver]\nport = 80\n"
    with pytest.raises(ConfigError):
        cfg.load_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        cfg.load_config("[trap]\nbogus = 1\n")


def test_bad_value_rejected():
    text = cfg.dump_config(cfg.ScenarioConfig()).replace(
        "theta_true = 2.973", "theta_true = not-a-number")
    with pytest.raises(ConfigError):
        cfg.load_config(text)


def test_semantic_validation_propagates():
    text = cfg.dump_config(cfg.ScenarioConfig()).replace(
        "n_echo = 8", "n_echo = 3")
    with pytest.raises((ConfigError, ValueError)):
        cfg.load_config(text)


def test_ion_model_construction():
    scen = cfg.paper_scenario(seed=1)
    model = scen.ion_model()
    assert model.theta == scen.theta_true
    assert model.field_cfg.beta == pytest.approx(math.pi / 4)


REMOVED_KEYS = [("ion", "mass_u"), ("ion", "charge_e"), ("trap", "omega_z"),
                ("trap", "rf_axial_correction"),
                ("field", "beta_calibration_sigma")]


@pytest.mark.parametrize("section, key", REMOVED_KEYS)
def test_removed_key_rejected(section, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'.*valid keys"):
        cfg.load_config(f"[{section}]\n{key} = 1\n")


def test_unknown_section_names_valid_sections():
    with pytest.raises(ConfigError) as info:
        cfg.load_config("[webserver]\nport = 80\n")
    assert ("valid sections: ion, trap, field, noise, detection, plan, "
            "fit, run") in str(info.value)


def test_bootstrap_resamples_below_100_rejected():
    with pytest.raises(ConfigError, match="bootstrap_resamples"):
        cfg.load_config("[fit]\nbootstrap_resamples = 5\n")


finite = st.floats(allow_nan=False, allow_infinity=False)
float_tuple = st.lists(finite, min_size=1, max_size=4).map(tuple)
# a plan grid's entries are distinct
grid_tuple = st.lists(finite, min_size=1, max_size=4, unique=True).map(tuple)
# one strategy of valid values per scenario key
STRATEGIES = {
    ("ion", "g_ground"): finite, ("ion", "g_d"): finite,
    ("ion", "c2_quad_zeeman"): finite,
    ("trap", "dez_dz"): finite,
    ("trap", "epsilon1"): st.floats(-1.0, 1.0),
    ("trap", "alpha"): finite,
    ("field", "b"): st.floats(0.0, 1e300, exclude_min=True),
    ("field", "beta"): finite, ("field", "beta0"): finite,
    ("noise", "kind"): st.sampled_from(["none", "quasi_static", "random_walk"]),
    ("noise", "sigma_b"): st.floats(0.0, 1e300),
    ("noise", "drift_rate_sigma"): st.floats(0.0, 1e300),
    ("noise", "step_dt"): st.floats(0.0, 1e300, exclude_min=True),
    ("detection", "eps_bright"): st.floats(0.0, 0.5),
    ("detection", "eps_dark"): st.floats(0.0, 0.5),
    ("plan", "beta_list"): grid_tuple,
    ("plan", "gradient_list"): grid_tuple,
    ("plan", "tau_total_list"): st.lists(
        st.floats(0.0, 1e300), min_size=1, max_size=4, unique=True).map(tuple),
    ("plan", "n_echo"): st.integers(1, 10 ** 6).map(lambda k: 2 * k),
    ("plan", "shots_per_point"): st.integers(1, 10 ** 9),
    ("plan", "n_phases"): st.integers(3, 10 ** 6),
    ("plan", "exact_probabilities"): st.booleans(),
    ("plan", "per_angle_offsets"): float_tuple,  # resized to beta_list below
    ("fit", "float_epsilon1"): st.booleans(),
    ("fit", "bootstrap_resamples"): st.integers(100, 10 ** 6),
    ("run", "theta_true"): finite,
    ("run", "seed"): st.integers(0, 2 ** 32 - 1),
}


@st.composite
def non_default_scenarios(draw):
    """A ScenarioConfig whose every scenario key holds a non-default value."""
    default = cfg.ScenarioConfig()
    changes: dict = {}
    for (section, key), strategy in STRATEGIES.items():
        owner, name, _ = cfg._SCHEMA[section, key]
        old = getattr(default if owner is None else getattr(default, owner), name)
        if key == "per_angle_offsets":
            size = len(changes["plan"]["beta_list"])
            strategy = st.lists(finite, min_size=size, max_size=size).map(tuple)
        changes.setdefault(owner, {})[name] = draw(
            strategy.filter(lambda v, old=old: v != old))
    top = changes.pop(None)
    return replace(default, **top, **{
        owner: replace(getattr(default, owner), **fields)
        for owner, fields in changes.items()})


def test_strategies_cover_every_key():
    assert list(STRATEGIES) == list(cfg._SCHEMA)


@settings(max_examples=200)
@given(scenario=non_default_scenarios())
def test_dump_load_round_trip_property(scenario):
    text = cfg.dump_config(scenario)
    back = cfg.load_config(text)
    assert back == scenario
    assert cfg.dump_config(back) == text
    # the same entries as --set items give the same scenario
    parser = configparser.ConfigParser()
    parser.read_string(text)
    sets = [f"{section}.{key}={value}" for section in parser.sections()
            for key, value in parser.items(section)]
    assert _load_scenario(None, None, sets) == scenario


def test_docs_scenario_table_matches_schema():
    """docs/formats.md lists exactly the scenario keys, in table order, with
    their value types and defaults; on a mismatch the message holds the
    table generated from the schema."""
    names = {float: "float", int: "integer", str: "text",
             cfg._bool: "boolean", cfg._float_list: "float list"}
    defaults = configparser.ConfigParser()
    defaults.read_string(cfg.dump_config(cfg.ScenarioConfig()))
    expected = []
    for (section, key), (_, _, parse) in cfg._SCHEMA.items():
        default = (f"`{defaults[section][key]}`"
                   if defaults.has_option(section, key) else "unset")
        expected.append(f"| `{section}` | `{key}` | {names[parse]} | {default} |")
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    scenario = doc.split("## Scenario INI", 1)[1].split("\n## ", 1)[0]
    documented = [line for line in scenario.splitlines()
                  if line.startswith("| `")]
    assert documented == expected, "\n".join(expected)


@pytest.mark.parametrize("text", ["[trap]\ndez_dz = nan\n",
                                  "[field]\nbeta = inf\n",
                                  "[run]\ntheta_true = -inf\n",
                                  "[plan]\ntau_total_list = 1e-3, nan\n",
                                  "[field]\nb = 1e400\n"],
                         ids=["dez_dz", "beta", "theta_true", "tau_total_list",
                              "b_overflow"])
def test_non_finite_value_rejected(text):
    with pytest.raises(ConfigError, match="not finite"):
        cfg.load_config(text)
