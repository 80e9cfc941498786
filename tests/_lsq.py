"""Training problems from an explicit design (A, b): the tests' way to state
minimize |A theta - b|^2 + lam |theta|^2 in the normal-equation form that
`cvfield.solver.ConstrainedLSQProblem` holds."""

import numpy as np

from cvfield.solver import ConstrainedLSQProblem


def lsq_problem(A, b, lam, ops, tau):
    """The problem of design A, targets b, ridge weight lam, constraint
    operators ops (m, n, n, p), with C_i(theta) = ops[i] @ theta, and rates
    tau (m,)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return ConstrainedLSQProblem(A.T @ A, A.T @ b, float(b @ b), lam, ops,
                                 np.asarray(tau, dtype=float))
