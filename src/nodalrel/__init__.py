"""Nonsingular nodal-element parametrization of satellite relative motion.

Subpackages: frames (rotations and relative orientation), relstate (the
six-state parametrization and local mappings), dynamics (exact Keplerian
and perturbed evolution plus the Cowell oracle), conjunction (passive
safety and avoidance planning), navigation (angles-only EKF), and
missionsim (scenarios, campaigns, CLI).
"""

from .constants import AU_KM, MU_EARTH, MU_SUN
from .errors import (
    GeometryError,
    InfeasibleEncounter,
    NodalError,
    RetrogradeSingularity,
    StepFailure,
    ZeroRange,
    ZeroSensitivity,
    ZetaUndefined,
)
from .frames import (
    ClassicalElements,
    RelativeOrientation,
    pci_to_pqw,
    relative_orientation,
    rot_x,
    rot_z,
    wrap_angle,
)
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    RelativePosition,
    oe_from_classical,
    position_jacobians,
    relative_position,
    relative_position_batch,
    separation_distance,
)
from .dynamics import (
    CartesianState,
    CowellTrajectory,
    PerturbationInput,
    Trajectory,
    apply_impulse,
    cartesian_to_elements,
    cowell_propagate,
    elements_to_cartesian,
    input_matrices,
    kepler_advance,
    orbital_period,
    propagate,
    rtn_basis,
    unperturbed_flow,
)
from .conjunction import (
    C1Verdict,
    C2Result,
    ManeuverPlan,
    c1_test,
    c2_check,
    plan_avoidance,
    zeta,
    zeta_gradient,
)
from .navigation import (
    NoiseSpec,
    ekf_propagate,
    ekf_update,
    measure,
    predict_measurement,
)
from .missionsim import (
    EncounterSpec,
    ScenarioConfig,
    build_collision_scenario,
    build_truth,
    run_flyby,
    run_maneuver_sweep,
    run_montecarlo,
    run_validation,
)

__version__ = "0.1.0"
