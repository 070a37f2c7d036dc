"""Simulator and optimizer for federated learning over a wireless uplink.

The package models per-link rates, delays, packet errors, and energy;
solves the joint user-selection / resource-block / power problem with a
Hungarian matching; runs the lossy federated training loop; and evaluates
the analytical convergence bound against measured trajectories.
"""

from .phy import (
    NOISE_DENSITY_W_PER_HZ,
    FadingExpectation,
    NetworkParams,
    UserProfile,
    expected_downlink_rate,
    expected_uplink_rate,
    downlink_delay,
    packet_error_rate,
    training_energy,
    uplink_delay,
    user_energy,
)
from .assignment import (
    AllocationDecision,
    EdgeWeightMatrix,
    baseline_min_sum_per,
    baseline_optselect_randomrb,
    build_edge_weights,
    feasible_power_interval,
    hungarian_assign,
    optimal_power,
    verify_allocation,
    wireless_error_sum,
)
from .training import (
    Dataset,
    TrainingDiverged,
    generate_regression_data,
    global_loss,
    least_squares_model,
    run_training,
)
from .bounds import (
    BoundSeries,
    CurvatureEstimate,
    GradientBoundFit,
    bound_series,
    convergence_slope_limit,
    curvature,
    empirical_gap,
    fit_gradient_bound,
    worst_case_error_sum,
)
from .config import ConfigError, ExperimentConfig, load_config, serialize_config
from .harness import (
    RunRecord,
    bound_report,
    build_topology,
    export_csv,
    place_users,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"
