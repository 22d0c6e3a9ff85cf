"""Scenario configuration: strict INI-style files plus CLI overrides.

``_SCHEMA`` below is the one list of scenario sections and keys; unknown
sections and keys are rejected.  Every run writes back the fully resolved
configuration it used, and outputs embed its content hash, so a run can
always be reproduced from its own artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, replace

from . import constants as const
from .atommodel import FieldConfig, IonSpecies, NoiseModel, TrapConfig, IonModel
from .errors import ConfigError
from .sampler import CampaignPlan, DetectionModel


@dataclass(frozen=True)
class FitOptions:
    float_epsilon1: bool = False
    bootstrap_resamples: int = 0     # 0 disables the bootstrap cross-check

    def __post_init__(self):
        if self.bootstrap_resamples != 0 and self.bootstrap_resamples < 100:
            raise ValueError("bootstrap_resamples must be 0 or >= 100")


@dataclass(frozen=True)
class ScenarioConfig:
    ion: IonSpecies = field(default_factory=IonSpecies)
    trap: TrapConfig = field(default_factory=TrapConfig)
    field_cfg: FieldConfig = field(default_factory=FieldConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    detection: DetectionModel = field(default_factory=DetectionModel)
    plan: CampaignPlan = field(default_factory=lambda: CampaignPlan(
        beta_list=(0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
        gradient_list=(0.5e8, 1.0e8, 1.5e8),
        tau_total_list=(1e-3, 2e-3, 3e-3, 4e-3)))
    fit: FitOptions = field(default_factory=FitOptions)
    theta_true: float = 2.973
    seed: int = 20160401

    def ion_model(self) -> IonModel:
        return IonModel(species=self.ion, trap=self.trap,
                        field_cfg=self.field_cfg, theta=self.theta_true)


def paper_scenario(seed: int = 20160401) -> ScenarioConfig:
    """The built-in paper-shaped scenario used by ``reproduce-paper``.

    300 shots/point, tau_total up to 4 ms at n_echo = 8 (tau = 250 us),
    gradients 0.5-1.5e8 V/m^2, five field angles spanning 0-1.5 rad,
    quasi-static field noise worth ~2 kHz of Zeeman shift, 1% detection
    errors and a 50 mrad unknown base-angle offset.
    """
    sigma_b = 2000.0 / (1.2 * const.MU_B_OVER_H)   # ~2 kHz Zeeman equivalent
    return ScenarioConfig(
        field_cfg=FieldConfig(B=3.0e-4, beta=math.pi / 4, beta0=0.05),
        noise=NoiseModel(kind="quasi_static", sigma_B=sigma_b),
        detection=DetectionModel(eps_bright=0.01, eps_dark=0.01),
        plan=CampaignPlan(
            beta_list=(0.0, 0.375, 0.75, 1.125, 1.5),
            gradient_list=(0.5e8, 1.0e8, 1.5e8),
            tau_total_list=(1e-3, 2e-3, 3e-3, 4e-3),
            n_echo=8, shots_per_point=300, n_phases=8),
        seed=seed,
    )


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad numeric list: {text!r}") from None


def _bool(text: str) -> bool:
    try:   # 1/0, true/false, yes/no, on/off
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"bad boolean: {text!r}") from None


# The only list of scenario keys, in canonical dump order:
# (section, key) -> (ScenarioConfig attribute that owns the field, or None
# for fields of ScenarioConfig itself; dataclass field; parser).
_SCHEMA = {
    ("ion", "g_ground"): ("ion", "g_ground", float),
    ("ion", "g_d"): ("ion", "g_D", float),
    ("ion", "c2_quad_zeeman"): ("ion", "c2_quad_zeeman", float),
    ("trap", "dez_dz"): ("trap", "dEz_dz", float),
    ("trap", "epsilon1"): ("trap", "epsilon1", float),
    ("trap", "alpha"): ("trap", "alpha", float),
    ("field", "b"): ("field_cfg", "B", float),
    ("field", "beta"): ("field_cfg", "beta", float),
    ("field", "beta0"): ("field_cfg", "beta0", float),
    ("noise", "kind"): ("noise", "kind", str),
    ("noise", "sigma_b"): ("noise", "sigma_B", float),
    ("noise", "drift_rate_sigma"): ("noise", "drift_rate_sigma", float),
    ("noise", "step_dt"): ("noise", "step_dt", float),
    ("detection", "eps_bright"): ("detection", "eps_bright", float),
    ("detection", "eps_dark"): ("detection", "eps_dark", float),
    ("plan", "beta_list"): ("plan", "beta_list", _float_list),
    ("plan", "gradient_list"): ("plan", "gradient_list", _float_list),
    ("plan", "tau_total_list"): ("plan", "tau_total_list", _float_list),
    ("plan", "n_echo"): ("plan", "n_echo", int),
    ("plan", "shots_per_point"): ("plan", "shots_per_point", int),
    ("plan", "n_phases"): ("plan", "n_phases", int),
    ("plan", "exact_probabilities"): ("plan", "exact_probabilities", _bool),
    ("plan", "per_angle_offsets"): ("plan", "per_angle_offsets", _float_list),
    ("fit", "float_epsilon1"): ("fit", "float_epsilon1", _bool),
    ("fit", "bootstrap_resamples"): ("fit", "bootstrap_resamples", int),
    ("run", "theta_true"): (None, "theta_true", float),
    ("run", "seed"): (None, "seed", int),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _SCHEMA))
_FORMAT = {bool: lambda v: str(v).lower(), str: str,
           tuple: lambda v: " ".join(repr(x) for x in v)}    # else repr


def load_config(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse INI text into a ScenarioConfig, overriding ``base`` defaults."""
    cfg = base or ScenarioConfig()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    changes: dict = {}      # owner -> {field: value}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; valid "
                              f"sections: {', '.join(_SECTIONS)}")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                valid = ", ".join(k for s, k in _SCHEMA if s == section)
                raise ConfigError(f"unknown key {key!r} in section "
                                  f"[{section}]; valid keys: {valid}")
            owner, name, parse = _SCHEMA[section, key]
            try:
                changes.setdefault(owner, {})[name] = parse(raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {exc}") from None
    try:
        owned = {owner: replace(getattr(cfg, owner), **fields)
                 for owner, fields in changes.items() if owner is not None}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return replace(cfg, **owned, **changes.get(None, {}))


def dump_config(cfg: ScenarioConfig) -> str:
    """Resolved configuration as canonical INI text (load/dump stable)."""
    parser = configparser.ConfigParser()
    parser.read_dict({section: {} for section in _SECTIONS})
    for (section, key), (owner, name, _) in _SCHEMA.items():
        value = getattr(cfg if owner is None else getattr(cfg, owner), name)
        if value is not None:
            parser.set(section, key, _FORMAT.get(type(value), repr)(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()
