"""Seeded inputs for the benchmark: S-curve demonstrations, CSVs and configs.

The generator is a copy of `tests/_synth.s_demos`, kept here so that an edit
to the test helpers cannot change what the benchmark measures.  It returns
plain arrays and imports nothing from the package under test.

The demonstration shapes are always the draw of generator seed 1 (the draw
the acceptance fixtures train on).  The run seed only places each recording
in the world frame: every demonstration is shifted by a whole number of
millimetres.  Positions are rounded to multiples of 2**-20 mm first, so the
shift and the goal-to-origin translation done on load are exact and every
run seed yields a bit-identical training problem.  Between shape draws the
solver's iteration count varies by a factor of two or more, which would
drown the machine noise the benchmark has to resolve.
"""

import csv
import json

import numpy as np

SHAPE_SEED = 1
NUM_DEMOS = 7
NUM_TRAIN = 4
SAMPLES = 1000
POSITION_QUANTUM = 2.0 ** -20     # mm
MAX_SHIFT_MM = 1000


def s_demos(num=NUM_DEMOS, samples=SAMPLES, seed=SHAPE_SEED):
    """Planar S-shaped reaching motions ending at the origin.

    Returns a list of (times, positions, velocities) arrays with analytic
    velocities; the same arithmetic as `tests/_synth.s_demos`.
    """
    rng = np.random.default_rng(seed)
    demos = []
    for _ in range(num):
        T = 5.0 * (1 + 0.1 * rng.uniform(-1, 1))
        amp = 10.0 * (1 + 0.08 * rng.uniform(-1, 1))
        height = 40.0 * (1 + 0.05 * rng.uniform(-1, 1))
        rot = 0.05 * rng.uniform(-1, 1)
        a = 2.0 * rng.uniform(0.3, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        dhat = rng.normal(size=2)
        dhat /= np.linalg.norm(dhat)
        t = np.linspace(0, T, samples)
        tau = t / T
        u = 0.6 * tau + 0.4 * (3 * tau**2 - 2 * tau**3)
        du = (0.6 + 0.4 * (6 * tau - 6 * tau**2)) / T
        cx = -amp * np.sin(2 * np.pi * u)
        cy = height * (1 - u)
        dcx = -amp * 2 * np.pi * np.cos(2 * np.pi * u)
        dcy = -height * np.ones_like(u)
        px = a * np.sin(np.pi * u + phase) * (1 - u) * dhat[0]
        py = a * np.sin(np.pi * u + phase) * (1 - u) * dhat[1]
        dpx = a * (np.pi * np.cos(np.pi * u + phase) * (1 - u) - np.sin(np.pi * u + phase)) * dhat[0]
        dpy = a * (np.pi * np.cos(np.pi * u + phase) * (1 - u) - np.sin(np.pi * u + phase)) * dhat[1]
        R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        pos = np.stack([cx + px, cy + py], axis=1) @ R.T
        vel = (np.stack([dcx + dpx, dcy + dpy], axis=1) * du[:, None]) @ R.T
        demos.append((t, pos, vel))
    return demos


def recorded_demos(seed):
    """The S-curve set as recorded in a seed-dependent world frame."""
    rng = np.random.default_rng(seed)
    out = []
    for t, pos, vel in s_demos():
        shift = rng.integers(-MAX_SHIFT_MM, MAX_SHIFT_MM + 1, size=2).astype(float)
        pos = np.round(pos / POSITION_QUANTUM) * POSITION_QUANTUM
        out.append((t, pos + shift, vel))
    return out


def write_demo_csv(path, demos):
    """Write (times, positions, velocities) triples as one demo_id CSV."""
    n = demos[0][1].shape[1]
    header = (["demo_id", "t"] + [f"x{i}" for i in range(1, n + 1)]
              + [f"v{i}" for i in range(1, n + 1)])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, (t, pos, vel) in enumerate(demos):
            for j in range(t.size):
                w.writerow([i, t[j], *pos[j], *vel[j]])


def write_inputs(workdir, seed, config):
    """Write train.csv (4 demonstrations), test.csv (3) and config.json."""
    demos = recorded_demos(seed)
    paths = {"train": workdir / "train.csv", "test": workdir / "test.csv",
             "config": workdir / "config.json"}
    write_demo_csv(paths["train"], demos[:NUM_TRAIN])
    write_demo_csv(paths["test"], demos[NUM_TRAIN:])
    paths["config"].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return paths
