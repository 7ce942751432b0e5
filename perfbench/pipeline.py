"""The work the benchmark times, phase by phase, with optional spans.

A pass runs four phases, the way a user goes from a model file to checked
results:

* ``solve``  -- io.load_model -> Model.tables -> validate -> dp.solve ->
  kernel.select_feedback -> kernel.kernel_slice at every stage ->
  io.write_value_csv + io.write_argmax_csv;
* ``verify`` -- dp.evaluate_policy, mc.estimate_probability, and
  dp.brute_force_value on the workload's enumerable instance;
* ``export`` -- io.save_model, io.write_policy_csv, mc.simulate_batch +
  io.write_trajectories_csv, io.read_value_csv;
* ``cli``    -- ``stochviab solve`` then ``stochviab estimate``, each a fresh
  interpreter.

Each call into a stochviab module goes through :meth:`Tracer.call`, which
records a span only when tracing is on.

The speed of a small shared machine swings by 10-50 % within seconds (other
tenants, frequency), more than the benchmark's bounds.  :class:`Calibration`
times a fixed loop of the same kinds of work right before and after every
timed repetition, and each timing is rescaled by
``CALIBRATION_NOMINAL_S / measured``: reported times are seconds at the
speed where that loop takes its nominal time.  The raw times are kept in
the run record.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PHASES = ("solve", "verify", "export", "cli")
CLI_TIMEOUT_S = 60
# Median time of Calibration.measure on the 2-core x86-64 machine (2.1 GHz)
# where the benchmark was tuned; a constant, so runs compare across commits.
CALIBRATION_NOMINAL_S = 0.0044


class Calibration:
    """A fixed loop of JSON parsing, float formatting and numpy gathers."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = json.dumps(rng.integers(-1, 3000, size=(900, 3, 5)).tolist())
        self.floats = rng.random(900).tolist()
        self.values = rng.random(1 << 20)
        self.index = rng.integers(0, 1 << 20, size=120_000)
        self.history: list[float] = []

    def _loop(self) -> float:
        start = time.perf_counter()
        json.loads(self.text)
        ",".join(format(x, ".17g") for x in self.floats)
        float(np.add.reduce(self.values[self.index]))
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of three timings of the loop."""
        elapsed = sorted(self._loop() for _ in range(3))[1]
        self.history.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two calibrations into
        nominal-speed seconds."""
        return CALIBRATION_NOMINAL_S / (0.5 * (before + after))


class Tracer:
    """In-memory spans: id, name, start, end, parent span id, workload id."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)


def package_env(src: Path) -> dict:
    """Environment for subprocesses that import stochviab from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_command(argv: list[str], env: dict, cwd: Path) -> tuple[int, str, str]:
    """Run one subprocess to completion; (exit code, stdout, stderr)."""
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


class Pipeline:
    """One workload's phases, run against its model file in ``work``."""

    def __init__(self, sv, wl, model_path: Path, work: Path, src: Path, tracer: Tracer):
        self.sv = sv
        self.wl = wl
        self.model_path = model_path
        self.work = work
        self.env = package_env(src)
        self.tracer = tracer
        self.files = {
            "value": work / "value.csv",
            "argmax": work / "argmax_policy.csv",
            "saved_model": work / "saved_model.json",
            "policy": work / "policy.csv",
            "trajectories": work / "trajectories.csv",
        }
        self.cli_dir = work / "cli"
        # Built once and warmed, so every timed enumeration does equal work.
        self.oracle_model = sv.io.model_from_dict(wl.oracle.doc)
        self.oracle_model.tables

    def solve(self) -> dict:
        sv, call, f = self.sv, self.tracer.call, self.files
        model = call("io.load_model", sv.io.load_model, self.model_path)
        tables = call("tables.build", lambda: model.tables)
        violations = call("model.validate", sv.validate, model)
        if violations:
            raise RuntimeError(f"model file rejected by validate: {violations}")
        vf, am = call("dp.solve", sv.solve, model)
        fb = call("kernel.select_feedback", sv.select_feedback, am)
        kernels = [call("kernel.kernel_slice", sv.kernel_slice, vf, t, self.wl.beta)
                   for t in range(vf.t0, vf.T + 1)]
        call("io.write_value_csv", sv.io.write_value_csv, vf, f["value"])
        call("io.write_argmax_csv", sv.io.write_argmax_csv, model, am, f["argmax"])
        return {"model": model, "tables": tables, "vf": vf, "am": am, "fb": fb,
                "kernels": kernels}

    def verify(self, s: dict) -> dict:
        sv, call, wl = self.sv, self.tracer.call, self.wl
        model, fb = s["model"], s["fb"]
        ev = call("dp.evaluate_policy", sv.evaluate_policy, model, fb)
        start = time.perf_counter()
        est = call("mc.estimate_probability", sv.estimate_probability,
                   model, fb, wl.model.x0, wl.mc_samples, wl.seed)
        mc_s = time.perf_counter() - start
        bf = call("dp.brute_force_value", sv.brute_force_value,
                  self.oracle_model, wl.oracle.x0)
        return {"ev": ev, "est": est, "mc_s": mc_s, "brute_force": bf}

    def export(self, s: dict) -> dict:
        sv, call, wl, f = self.sv, self.tracer.call, self.wl, self.files
        model, fb = s["model"], s["fb"]
        call("io.save_model", sv.io.save_model, model, f["saved_model"])
        call("io.write_policy_csv", sv.io.write_policy_csv, model, fb, f["policy"])
        states, controls, _, success = call("mc.simulate_batch", sv.simulate_batch,
                                            model, fb, wl.model.x0, wl.sim_paths,
                                            wl.seed + 1)
        call("io.write_trajectories_csv", sv.io.write_trajectories_csv,
             model, states, controls, success, f["trajectories"])
        vf_back = call("io.read_value_csv", sv.io.read_value_csv, f["value"])
        return {"states": states, "success": success, "vf_back": vf_back}

    def cli_argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "stochviab.cli", *args]

    def cli(self) -> dict:
        call, wl = self.tracer.call, self.wl
        solve = call("cli.solve", run_command,
                     self.cli_argv("solve", "--model", str(self.model_path),
                                   "--out", str(self.cli_dir)),
                     self.env, self.work)
        estimate = call("cli.estimate", run_command,
                        self.cli_argv("estimate", "--model", str(self.model_path),
                                      "--x0", str(wl.model.x0),
                                      "--samples", str(wl.cli_samples),
                                      "--seed", str(wl.seed)),
                        self.env, self.work)
        return {"solve": solve, "estimate": estimate}

    def import_probe(self) -> tuple[int, str, str]:
        """``python -c "import stochviab"`` in a fresh interpreter."""
        return self.tracer.call("cli.import", run_command,
                                [sys.executable, "-c", "import stochviab"],
                                self.env, self.work)
