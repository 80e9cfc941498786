import os

import numpy as np
import pytest

from _synth import angle_demos, decay_demos
from cvfield import TrainConfig, train_field
from cvfield.dataset import DemoSet
from cvfield.solver import SolverSettings


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:       # no children at all
        return
    pytest.fail(f"test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")


@pytest.fixture(scope="session")
def angle_seven():
    # gentler pi/3 sweep: wide contraction basin, trains in under a second
    return angle_demos(num=7, samples=600, seed=0, sweep=np.pi / 3)


@pytest.fixture(scope="session")
def angle_train(angle_seven):
    return DemoSet(angle_seven.demos[:4], angle_seven.goal)


@pytest.fixture(scope="session")
def angle_test(angle_seven):
    return DemoSet(angle_seven.demos[4:], angle_seven.goal)


@pytest.fixture(scope="session")
def angle_model(angle_train):
    """Small curl-free model shared read-only by dynamics/metrics/cli tests."""
    cfg = TrainConfig(kernel="curl_free", sigma=10.0, num_features=200, lam=0.01,
                      tau=0.0, constraint_points=100, seed=0,
                      admm=SolverSettings(eps_abs=1e-6, eps_rel=1e-7, max_iters=60000))
    field, report, avg = train_field(angle_train, cfg)
    assert report.converged and report.max_constraint_violation <= 1e-5
    return field, report, avg


@pytest.fixture(scope="session")
def decay_model():
    """tau = 0.3 model on radial-decay demos plus its train/test split."""
    full = decay_demos(num=3, samples=400, seed=3)
    train = DemoSet(full.demos[:2], full.goal)
    test = DemoSet(full.demos[2:], full.goal)
    cfg = TrainConfig(kernel="curl_free", sigma=15.0, num_features=100, lam=0.01,
                      tau=0.3, constraint_points=60, seed=0,
                      admm=SolverSettings(eps_abs=1e-6, eps_rel=1e-7, max_iters=60000))
    field, report, avg = train_field(train, cfg)
    assert report.converged
    return field, report, avg, train, test
