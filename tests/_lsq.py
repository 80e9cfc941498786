"""Training problems from an explicit design (A, b): the tests' way to state
minimize |A theta - b|^2 + lam |theta|^2 in the normal-equation form that
`cvfield.solver.ConstrainedLSQProblem` holds, and a grid-search oracle for
their optimum."""

import numpy as np

from cvfield.solver import ConstrainedLSQProblem


def lsq_problem(A, b, lam, ops, tau):
    """The problem of design A, targets b, ridge weight lam, constraint
    operators ops (m, n, n, p), with C_i(theta) = ops[i] @ theta, and rates
    tau (m,)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return ConstrainedLSQProblem(A.T @ A, A.T @ b, float(b @ b), lam, ops,
                                 np.asarray(tau, dtype=float))


def zoom_oracle(A, b, prob, half, rounds, pts):
    """The optimal value of a small problem by a feasible grid search that
    zooms on the incumbent: each round lays pts points a side over
    [c - half, c + half] in every coordinate about the incumbent c, from
    c = 0, and then shrinks half by 0.6; convexity makes the local
    refinement global.  The objective is evaluated straight from the design
    A and targets b, not from the problem's normal equations."""
    p = A.shape[1]
    m, n = prob.constraint_ops.shape[:2]
    P = prob.constraint_ops.reshape(m, -1, p)
    eye = np.eye(n)

    def objective(G):
        r = G @ A.T - b
        return np.sum(r * r, axis=1) + prob.lam * np.sum(G * G, axis=1)

    def feasible(G):
        ok = np.ones(G.shape[0], dtype=bool)
        for i in range(m):
            C = (G @ P[i].T).reshape(G.shape[0], n, n) + prob.tau[i] * eye
            ok &= np.linalg.eigvalsh(C)[:, -1] <= 1e-9
        return ok

    center, best_val = np.zeros(p), np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, pts) for c in center]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        vals = objective(G)
        vals[~feasible(G)] = np.inf
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, center = float(vals[k]), G[k]
        half *= 0.6
    return best_val
