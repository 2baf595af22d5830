"""Simulation and statistical verification of competing-particle dynamics
and random mass-partition reshuffling."""

from .pointproc import (
    MassPartition,
    PointConfiguration,
    config_from_mass_partition,
    mass_partition_from_config,
    sample_gamma_arrivals,
    sample_pd_poisson_kingman,
    sample_pd_stickbreaking,
    sample_pp_exponential,
)
from .dynamics import (
    IncrementLaw,
    evolve_additive,
    evolve_multiplicative,
    shift_tail,
)
from .analysis import (
    FrontProfile,
    FrontRootError,
    ShallowTruncationError,
    front_position,
    front_profile,
    gen_functional_mc,
    gen_functional_pp_exponential,
    jump_event_bound_check,
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
