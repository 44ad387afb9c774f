"""Sparse superposition codes over the AWGN channel: state evolution,
potential functions and threshold solvers for the underlying and spatially
coupled ensembles, with a Monte-Carlo verification suite."""

from .denoiser import (MCConfig, MonotoneTable, build_tables,
                       default_n_samples, gaussian_block, isotonic_increasing)
from .ensemble import (CoupledParams, CouplingMatrix, DesignFunction,
                       UnderlyingParams, asymmetric_exponential_design,
                       build_coupling_matrix, capacity, effective_rate,
                       make_design, measurement_rate, rectangular_design,
                       triangular_design)
from .potential import (GapReport, PotentialCurve, free_energy_gap,
                        potential_coupled, potential_curve,
                        potential_energy_underlying, potential_large_B,
                        potential_underlying, stationarity_residual)
from .state_evolution import (DEGRADED_EQUAL, INCOMPARABLE, REVERSED,
                              STRICTLY_DEGRADED, ErrorProfile,
                              FixedPointReport, SaturatedProfile,
                              basin_boundary, fixed_point_tolerance,
                              fold_rate, is_degraded, iterate_coupled,
                              iterate_underlying, max_profile_increment,
                              ones_profile, pinned_columns, pinned_rows,
                              saturate_profile, scalar_fixed_points,
                              se_step_coupled, se_step_underlying, shift,
                              sigma_underlying, zeros_profile)
from .thresholds import (BracketingError, MonotonicityError, ThresholdReport,
                         ThresholdSearchError, amp_threshold_coupled,
                         amp_threshold_underlying, large_B_limits,
                         make_tables_factory, potential_threshold)
from .verification import (LemmaReport, coupled_chain, i_mmse_report,
                           nishimori_report, run_suite, shift_potential_scaling,
                           theorem1_experiment, verify_basin_exclusion,
                           verify_smoothness, verify_telescoping)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
