"""Learning contracting vector fields from demonstrations.

The package fits a vector field xdot = f(x) to demonstration data with
matrix-valued random Fourier features (Gaussian separable or curl-free),
enforces equilibria exactly through a vanishing projector, and imposes
contraction at sampled points via a PSD-constrained least-squares problem
solved by a primal-dual interior-point method.  Trained fields integrate
with an embedded Dormand-Prince pair and are scored with trajectory,
velocity, DTW and goal-convergence metrics.
"""

from .dataset import (DemoSet, Demonstration, PreprocessConfig,
                      finite_difference_velocities, load_demonstrations,
                      resample_and_average, subsample_constraint_points)
from .dynamics import (IntegratorSettings, RolloutBatch, RolloutResult, TrainedField,
                       export_field_grid, max_contraction_eigenvalues, rollout)
from .features import (FeatureMap, VanishingProjector, build_vanishing_projector,
                       potential_from_features, sample_feature_map)
from .kernels import CURL_FREE, GAUSSIAN_SEPARABLE, KernelKind
from .metrics import (EvalReport, GridEvalReport, dtw_distance, evaluate,
                      grid_evaluate, trajectory_error, velocity_error)
from .modelfile import load_model, save_model
from .solver import (ConstrainedLSQProblem, SolveReport, SolverSettings,
                     assemble_problem, solve_in_range)
from .training import TrainConfig, read_settings, train_field

__version__ = "0.1.0"
