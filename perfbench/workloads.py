"""Seeded workload generators for the pipeline benchmark.

A workload is a model document (the JSON object a stochviab model file
holds) plus the queries the benchmark makes on it: the start state, the
kernel level, the Monte Carlo sizes, and a second, enumerable instance of
the same model family for the brute-force oracle.  The same
``(name, seed, scale)`` always gives the same workload.  Nothing here
imports stochviab, so the references built from these parameters stay
independent of the code they check.

Run as a script, this file is the benchmark's set-up step: it imports
stochviab, generates one workload and writes its model file.

    python3 perfbench/workloads.py WORKLOAD SEED OUT.json [--scale tiny]
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("three-state", "table-1d", "expr-2d")
SCALES = ("full", "tiny")

# Per workload and scale: model size, in-process Monte Carlo samples, CLI
# estimate samples, simulated paths exported, and repetitions of each phase
# per pass.  Phases that take milliseconds repeat so that every phase of a
# pass measures enough work to time steadily.
SIZES = {
    ("three-state", "full"): dict(T=40, oracle_T=6, mc=1_000_000, cli=200_000, paths=2_000,
                                  reps=dict(solve=20, verify=1, export=3, cli=2)),
    ("three-state", "tiny"): dict(T=40, oracle_T=3, mc=20_000, cli=5_000, paths=50,
                                  reps=dict(solve=2, verify=1, export=1, cli=1)),
    ("table-1d", "full"): dict(n=601, steps=20, mc=100_000, cli=50_000, paths=200,
                               reps=dict(solve=1, verify=3, export=3, cli=1)),
    ("table-1d", "tiny"): dict(n=41, steps=4, mc=5_000, cli=2_000, paths=20,
                               reps=dict(solve=1, verify=1, export=1, cli=1)),
    ("expr-2d", "full"): dict(n=13, steps=8, mc=100_000, cli=50_000, paths=200,
                              reps=dict(solve=1, verify=5, export=8, cli=1)),
    ("expr-2d", "tiny"): dict(n=5, steps=3, mc=5_000, cli=2_000, paths=20,
                              reps=dict(solve=1, verify=1, export=1, cli=1)),
}


@dataclass
class Instance:
    """One model document with the data the references need."""

    doc: dict  # in the key order and layout stochviab's save_model writes
    x0: int  # start state index
    params: dict = field(default_factory=dict)

    def text(self) -> str:
        """The model file contents."""
        return json.dumps(self.doc, indent=2) + "\n"


@dataclass
class Workload:
    """One generated benchmark input and the queries made on it."""

    name: str
    seed: int
    model: Instance
    oracle: Instance  # same family, small enough for brute-force enumeration
    beta: float  # level of the kernel slices taken at every stage
    mc_samples: int  # in-process estimate_probability samples
    cli_samples: int  # samples of the `stochviab estimate` subprocess
    sim_paths: int  # simulate_batch paths written as a trajectory CSV
    reps: dict  # phase -> repetitions per pass


def three_state(p: float, T: int) -> Instance:
    """The built-in bounded random walk on {-1, 0, 1}: dynamics x + u + w,
    controls {-1, 1}, disturbance {-1, 0, 1} with probabilities (p, 1-2p, p),
    started at x = 0 (state index 1)."""
    doc = {
        "time": {"t0": 0, "T": T},
        "states": {"dim": 1, "points": [[-1.0], [0.0], [1.0]]},
        "controls": {"mode": "shared", "lists": [[-1.0], [1.0]]},
        "noise": {"support": [[-1.0], [0.0], [1.0]], "probs": [p, 1.0 - 2.0 * p, p]},
        "dynamics": {"mode": "expr", "body": ["x + u + w"]},
        "constraints": {"mode": "set", "stationary": [0, 1, 2]},
    }
    return Instance(doc, 1, {"p": p})


def table_1d(rng: np.random.Generator, n: int, steps: int) -> Instance:
    """Uniform grid on [0, 1]; table dynamics x + u + w + d_k in grid steps.

    Controls move 0 or +-a grid steps and the five noise atoms 0, +-b, +-2b;
    the per-stage drift d_k comes from ``rng``, so the dynamics vary by
    stage.  Successors off the grid go to the sink (-1).  The constraint is
    the box [0.2, 0.8].
    """
    a = max(1, (n - 1) // 10)
    b = max(1, (n - 1) // 9)
    reach = (n - 1) // 20
    drift = rng.integers(-reach, reach + 1, size=steps)
    ctrl_off = np.array([-a, 0, a])
    noise_off = np.array([-2 * b, -b, 0, b, 2 * b])
    succ = (np.arange(n)[None, :, None, None] + ctrl_off[None, None, :, None]
            + noise_off[None, None, None, :] + drift[:, None, None, None])
    succ = np.where((succ >= 0) & (succ < n), succ, -1)
    h = 1.0 / (n - 1)
    doc = {
        "time": {"t0": 0, "T": steps},
        "states": {"dim": 1, "points": np.linspace(0.0, 1.0, n)[:, None].tolist()},
        "controls": {"mode": "shared", "lists": (ctrl_off * h)[:, None].tolist()},
        "noise": {"support": (noise_off * h)[:, None].tolist(),
                  "probs": [0.1, 0.2, 0.4, 0.2, 0.1]},
        "dynamics": {"mode": "table", "body": succ.tolist()},
        "constraints": {"mode": "box", "stationary": {"lower": [0.2], "upper": [0.8]}},
    }
    x0 = int(rng.integers(int(0.4 * n), int(0.6 * n) + 1))
    return Instance(doc, x0, {"table": succ})


def expr_2d(rng: np.random.Generator, n: int, steps: int) -> Instance:
    """Integer grid {0..n-1}^2 with time-invariant expression dynamics.

    The coupling terms shift each coordinate by a fraction of a grid step,
    so projection rounds most successors to a grid point and sends those
    farther than half a step from every grid point to the sink, as it does
    steps off the grid.  The disturbance moves up to two steps, one more
    than a control, and the constraint is the box [2, n-3]^2 (a margin of
    one below n = 7, none below n = 5).
    """
    c = (n - 1) / 2.0
    margin = float(min(2, (n - 3) // 2))
    a1 = round(float(rng.uniform(0.3, 0.5)), 6)
    a2 = round(float(rng.uniform(0.3, 0.5)), 6)
    b2 = round(a2 / 2.0, 6)
    body = [
        f"x1 + u1 + w1 + {a1!r} * (x2 - {c!r}) / {c!r}",
        f"x2 + u2 + w2 + {a2!r} * abs(x1 - {c!r}) / {c!r} - {b2!r}",
    ]
    axis = np.arange(n, dtype=np.float64)
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    doc = {
        "time": {"t0": 0, "T": steps},
        "states": {"dim": 2, "points": points.tolist()},
        "controls": {"mode": "shared", "lists": [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]},
        "noise": {"support": [[0.0, 0.0], [2.0, 1.0], [-2.0, -1.0], [-1.0, 2.0], [1.0, -2.0]],
                  "probs": [0.4, 0.15, 0.15, 0.15, 0.15]},
        "dynamics": {"mode": "expr", "body": body},
        "constraints": {"mode": "box",
                        "stationary": {"lower": [margin] * 2, "upper": [n - 1.0 - margin] * 2}},
    }
    mid = n // 2
    x0 = int(rng.integers(max(1, mid - 2), mid + 1)) * n + mid
    return Instance(doc, x0, {"coef": (a1, a2, b2, c)})


def generate(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    size = SIZES[name, scale]
    if name == "three-state":
        # the paper's headline instance; the seed picks the Monte Carlo streams
        model, oracle = three_state(0.01, size["T"]), three_state(0.01, size["oracle_T"])
    elif name == "table-1d":
        rng = np.random.default_rng([int(seed), 1])
        model, oracle = table_1d(rng, size["n"], size["steps"]), table_1d(rng, 5, 2)
    else:
        rng = np.random.default_rng([int(seed), 2])
        model, oracle = expr_2d(rng, size["n"], size["steps"]), expr_2d(rng, 3, 1)
    return Workload(
        name=name,
        seed=int(seed),
        model=model,
        oracle=oracle,
        beta=0.995 if name == "three-state" else 0.5,
        mc_samples=size["mc"],
        cli_samples=size["cli"],
        sim_paths=size["paths"],
        reps=size["reps"],
    )


def main(argv: list[str]) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="Write one workload's model file.")
    ap.add_argument("workload", choices=NAMES)
    ap.add_argument("seed", type=int)
    ap.add_argument("out")
    ap.add_argument("--scale", choices=SCALES, default="full")
    args = ap.parse_args(argv)
    import stochviab  # noqa: F401  (its start-up cost is part of set-up)

    wl = generate(args.workload, args.seed, args.scale)
    Path(args.out).write_text(wl.model.text(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
