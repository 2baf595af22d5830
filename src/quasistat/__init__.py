"""Simulation and statistical verification of competing-particle dynamics
and random mass-partition reshuffling."""

from .pointproc import (
    ArrivalTimes,
    MassPartition,
    PointConfiguration,
    config_from_mass_partition,
    mass_partition_from_config,
    normalize_to_mass_partition,
    sample_gamma_arrivals,
    sample_pd_poisson_kingman,
    sample_pd_stickbreaking,
    sample_pk_powerlaw,
    sample_pp_exponential,
)
from .dynamics import (
    IncrementLaw,
    Trajectory,
    evolve_additive,
    evolve_multiplicative,
    run_trajectory,
    shift_leader,
    shift_tail,
)
from .analysis import (
    FrontProfile,
    FrontRootError,
    ShallowTruncationError,
    StepTestFunction,
    front_position,
    front_profile,
    gap_vector,
    gen_functional_mc,
    gen_functional_pp_exponential,
    jump_event_bound_check,
    normalized_profile,
    sum_squares,
)
from .stattest import (
    InvarianceReport,
    energy_distance_perm_test,
    invariance_verdict,
    ks_two_sample,
    marginal_law_test,
)

__version__ = "0.1.0"
