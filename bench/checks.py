"""Output checks, computed from what a command wrote through public functions.

Each check returns a list of problems; an empty list is a pass.  None of
them reads the solver's own report, so a solver that misreports its
constraint violation still fails here.
"""

import numpy as np

from cvfield import dataset, features, modelfile

GOAL_TOL = 1e-8


def goal_problems(field):
    """The field must vanish at the goal, which loading puts at the origin."""
    f0 = float(np.linalg.norm(field.eval(np.zeros(field.map.n))))
    return [] if f0 <= GOAL_TOL else [f"||f(0)|| = {f0:.3e} > {GOAL_TOL:g}"]


def worst_contraction(field, cpoints, tau):
    """max over the points of lambda_max(sym J) + tau (<= 0 means contracting at rate tau)."""
    J = features.field_jacobians(field.map, field.eta, cpoints)
    sym = 0.5 * (J + J.transpose(0, 2, 1))
    return float(np.max(np.linalg.eigvalsh(sym)[:, -1])) + tau


def contraction_problems(field, cpoints, tau, eps_abs):
    worst = worst_contraction(field, cpoints, tau)
    if worst <= eps_abs:
        return []
    return [f"max lambda_max(sym J) + tau = {worst:.6e} > eps_abs {eps_abs:g}"]


def constraint_points(train_csv, config):
    """The averaged demonstration and the constraint points training used."""
    avg = dataset.resample_and_average(dataset.load_demonstrations(train_csv))
    return avg, dataset.subsample_constraint_points(avg, config["constraint_points"])


def train_problems(model_path, cpoints, config):
    """Checks on a written model file: goal equilibrium and contraction."""
    field, _, _ = modelfile.load_model(model_path)
    return (goal_problems(field)
            + contraction_problems(field, cpoints, config["tau"], config["admm"]["eps_abs"]))


def eval_problems(doc, num_demos):
    """Checks on the JSON that `cvfield eval` prints."""
    try:
        ev, grid = doc["eval"], doc["grid_eval"]
        found = [(ev["integration_failures"], 0, "integration_failures"),
                 (ev["number_reached_goal"], num_demos, "number_reached_goal"),
                 (grid["grid_fraction_reached"], 1.0, "grid_fraction_reached")]
    except (KeyError, TypeError) as exc:
        return [f"eval output lacks {exc}"]
    return [f"{name} = {got!r}, expected {want!r}" for got, want, name in found if got != want]


def fit_objective(field, avg, lam):
    """||Phi^Z theta - v||^2 + lam ||theta||^2 on the averaged demonstration."""
    resid = field.eval(avg.positions) - avg.velocities
    return float(np.sum(resid**2) + lam * np.sum(field.theta**2))
