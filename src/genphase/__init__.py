"""Misspecified phase retrieval with generative priors.

Estimate a unit signal x from single-index measurements y = f(a^T x) with an
unknown link f satisfying Cov[y, (a^T x)^2] > 0, under the constraint that x
lies in the range of a normalized generative prior.  The solver is two-step:
spectral projected-power initialization followed by adaptive projected
gradient refinement.  Baselines, synthetic priors, and a seeded experiment
harness are included.
"""

from .baselines import ALGORITHMS, appgd_step, run_algorithm
from .errors import (ConfigurationError, DegenerateLatentError, InsufficientDataError,
                     NumericalError, ProjectionFailureError)
from .harness import (ExperimentConfig, SlopeFit, SweepResult, config_from_dict,
                      config_from_file, draw_signal, emit_outputs, fit_slope,
                      read_sweep_csv, run_experiment, validate_config)
from .links import (LinkModel, MeasurementSet, MomentReport, apply_link,
                    load_measurements, population_nu, sample_measurements,
                    save_measurements)
from .priors import (GenerativePrior, ProjectionConfig, ProjectionResult, evaluate,
                     linear_subspace_prior, load_prior, project, project_exact,
                     project_iterative, projection_loss_grad, relu_mlp_prior,
                     save_prior)
from .refine import refine_step, run_refine
from .runtrace import RunTrace, Step, write_trajectory_csv
from .spectral import (ShiftedMatrix, SpectralMatrix, build_spectral_matrix,
                       empirical_mean_y, initial_vector, projected_power, shifted_matrix)

__version__ = "0.1.0"
