"""Desk-scale simulator and estimation pipeline for a dynamic-decoupling
measurement of the D_5/2 electric quadrupole moment in a trapped ion.

Layers, bottom up:

- ``spincore``: exact spin-j rotation algebra (spin operators, rotation unitaries)
- ``atommodel``: level shifts, trap geometry, field-noise processes
- ``sequence``: pulse-sequence construction and state evolution
- ``sampler``: quantum-projection-noise shot sampling and campaign runs
- ``estimator``: fringe MLE, phase unwrapping, joint quadrupole fit
- ``cli``: command-line front end
"""

__version__ = "0.1.0"

from .atommodel import (FieldConfig, IonModel, IonSpecies, NoiseModel,
                        TrapConfig, arm_phase_rate, quadrupole_geometry,
                        quadrupole_shift)
from .config import ScenarioConfig, config_hash, dump_config, load_config, \
    paper_scenario
from .errors import (ConfigError, DDQuadError, DegenerateDataError, FitError,
                     FitConvergenceError, NonIdentifiableError,
                     SimulationError)
from .estimator import (FringeFit, JointFitResult, bootstrap_ci,
                        fit_fringe_mle, fit_phase_vs_time,
                        fit_frequency_vs_gradient, joint_fit_campaign,
                        joint_fit_quadrupole, phase_difference,
                        theta_comparison_report, two_stage_theta,
                        unwrap_by_continuity)
from .sampler import (CampaignDataset, CampaignPlan, DetectionModel,
                      FringeDataset, FringePoint, campaign_from_csv,
                      campaign_to_csv, campaign_to_json, run_campaign,
                      run_fringe_scan)
from .sequence import (PulseSequence, analytic_phase,
                       build_quadrupole_dd_sequence, initial_state,
                       run_sequence)
from .spincore import rotation_unitary, spin_operators

__all__ = [name for name in dir() if not name.startswith("_")]
