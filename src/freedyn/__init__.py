"""Free stochastic dynamics on continuum configuration spaces.

Simulation and verification tools for independent-particle dynamics of
infinite particle systems: Poisson configuration sampling, one-particle
motion/killing/jump kernels, birth-and-death and jump evolutions, exact
Laplace-functional identities to verify them against, correlation and
cluster (Ursell) combinatorics, summability certificates, and the
small-jump scaling limit connecting jump dynamics to birth-and-death.
"""

__version__ = "0.1.0"

from .space import Domain, ball_volume
from .pointproc import (BoundedField, Configuration, MuConditionsReport,
                        NeymanScottMeasure, PoissonMeasure, RngStream,
                        as_field, parallel_map_ordered,
                        sample_poisson_space_time, theta_check)
from .functions import (NumericFunction, TestFunction, gauss_smooth,
                        integrate_function)
from .kernels import (BrownianKernel, BumpProfile, DeathKernel,
                      GaussianProfile, GtSeries, KawasakiKernel,
                      KilledBrownianKernel, check_summability,
                      exit_probability, g_t_series,
                      kawasaki_polynomial_certificate)
from .dynamics import (Buffer, Event, EventStream, GlauberDynamics,
                       buffer_leakage_bound, event_stream, evolve_snapshot,
                       evolve_with_immigration, glauber_evolve)
from .observables import (CylinderFunction, UrsellTable,
                          analytic_laplace_markov,
                          analytic_laplace_submarkov,
                          correlations_from_ursell, estimate_correlations,
                          generator_apply, generator_fd_check,
                          glauber_joint_laplace, pairing,
                          poisson_laplace_exponent, set_partitions,
                          ursell_from_correlations)
from .scaling import ScalingReport, run_scaling_experiment
from .experiments import (ExperimentReport, glauber_joint_experiment,
                          markov_laplace_experiment,
                          poisson_correlation_experiment,
                          poisson_laplace_experiment,
                          submarkov_laplace_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
