"""Correctness-gated benchmark of stochviab's model file -> solve -> verify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from
``src/`` next to this directory, never from an installed copy.  One run
generates the workload from its seed, sets up its model file seven times
in fresh interpreters (``setup_s``), runs one warm-up pass of the pipeline
in ``pipeline.py``, then repeats passes for ``--seconds`` and reports the
median of every phase.  Times are scaled to a nominal machine speed by the
calibration in ``pipeline.py``.  The warm-up pass's outputs are checked by
``checks.py`` and every later pass must reproduce them byte for byte.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a check
failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the spans of
the traced ones, and the tracing overhead from their median pass times.
Spans, environment, computed sizes, raw times and output hashes are written
to ``.perfbench/runs/`` when the run ends.  ``perfbench/README.md`` lists
every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads
from pipeline import PHASES, Calibration, Pipeline, Tracer, package_env, run_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 7

LAYER_TIMES = (
    "io.load_model", "io.save_model", "io.write_value_csv", "io.read_value_csv",
    "io.write_argmax_csv", "io.write_policy_csv", "io.write_trajectories_csv",
    "tables.build", "model.validate", "dp.solve", "dp.evaluate_policy",
    "dp.brute_force_value", "kernel.select_feedback", "kernel.kernel_slice",
    "mc.estimate_probability", "mc.simulate_batch", "cli.import", "cli.solve",
    "cli.estimate",
)


def import_package():
    """stochviab from this checkout's ``src/``; exits when it is missing."""
    init = SRC / "stochviab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; "
                         "run the benchmark from a stochviab checkout")
    sys.path.insert(0, str(SRC))
    import stochviab

    if Path(stochviab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported stochviab from {stochviab.__file__}, not {init}")
    return stochviab


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"l{level}_cache"] = size
    return env


def describe(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median={statistics.median(s):.6g} n={n}"
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            text += f" p{p:g}={s[math.ceil(n * p / 100.0) - 1]:.6g}"
            break
    return text


class Timings:
    """Raw and speed-scaled samples, by phase (plus "mc" and "pass")."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)

    def add(self, key: str, seconds: float, factor: float) -> None:
        self.raw[key].append(seconds)
        self.scaled[key].append(seconds * factor)

    def median(self, key: str) -> float:
        return statistics.median(self.scaled[key])


class Report:
    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.per_layer: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []
        self.gate = checks.Gate()

    @property
    def correct(self) -> bool:
        return self.gate.failed == 0


def run_pass(pipe: Pipeline, reps: dict, timings: Timings, cal: Calibration) -> dict:
    """One pass of every phase; each repetition sits between two calibrations,
    which scale its sample and its spans."""
    tracer = pipe.tracer
    out: dict = {}
    steps = {
        "solve": pipe.solve,
        "verify": lambda: pipe.verify(out["solve"]),
        "export": lambda: pipe.export(out["solve"]),
        "cli": pipe.cli,
    }
    before = cal.measure()
    total = scaled_total = 0.0
    for phase in PHASES:
        for _ in range(reps[phase]):
            first_span = len(tracer.spans)
            gc.collect()  # every repetition starts from the same collector state
            start = time.perf_counter()
            with tracer.span(phase):
                out[phase] = steps[phase]()
            elapsed = time.perf_counter() - start
            after = cal.measure()
            factor = cal.scale(before, after)
            before = after
            for span in tracer.spans[first_span:]:
                span["scale"] = factor
            timings.add(phase, elapsed, factor)
            if phase == "verify":
                timings.add("mc", out["verify"]["mc_s"], factor)
            total += elapsed
            scaled_total += elapsed * factor
    timings.add("pass", total, scaled_total / total)
    return out


def output_hashes(pipe: Pipeline, cli: dict) -> dict:
    files = dict(pipe.files, model=pipe.model_path, cli_value=pipe.cli_dir / "value.csv",
                 cli_argmax=pipe.cli_dir / "argmax_policy.csv")
    hashes = {k: sha256(p) for k, p in sorted(files.items())}
    for k in ("solve", "estimate"):
        hashes[f"cli_{k}_stdout"] = hashlib.sha256(cli[k][1].encode()).hexdigest()
    return hashes


def layer_times(spans: list[dict]) -> dict[str, dict[int, float]]:
    """Per call name: scaled seconds summed inside each enclosing phase span
    (a span outside any phase counts on its own)."""
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["name"] not in PHASES:
            key = s["id"] if s["parent"] is None else s["parent"]
            out[s["name"]][key] += (s["end"] - s["start"]) * s["scale"]
    return out


def per_layer_metrics(wl, pipe: Pipeline, first: dict, spans: list[dict],
                      untraced: Timings, traced: Timings) -> dict[str, tuple[float, str]]:
    t = layer_times(spans)
    med = {name: statistics.median(v.values()) for name, v in t.items()}
    solve_self = statistics.median(
        t["dp.solve"][k] - t["model.validate"][k] for k in t["dp.solve"])
    s = first["solve"]
    tab, am = s["tables"], s["am"]
    m, steps, u_max, n_atoms = tab.n_states, tab.steps, tab.u_max, tab.n_atoms
    transitions = steps * m * u_max * n_atoms
    admissible = np.arange(u_max)[None, None, :] < tab.n_ctrl[:, :m, None]
    to_sink = (tab.next_state[:, :m] == m) & admissible[..., None]
    doc = wl.model.doc
    evals = transitions * doc["states"]["dim"] if doc["dynamics"]["mode"] == "expr" else 0
    csv_bytes = sum(pipe.files[k].stat().st_size
                    for k in ("value", "argmax", "policy", "trajectories"))
    metrics = {f"{name}_s": (med[name], "s") for name in LAYER_TIMES}
    metrics.update({
        "io.model_bytes": (pipe.model_path.stat().st_size, "B"),
        "io.csv_bytes": (csv_bytes, "B"),
        "tables.transitions": (transitions, "count"),
        "tables.next_state_bytes": (tab.next_state.nbytes, "B"),
        "tables.sink_frac": (float(to_sink.sum() / (admissible.sum() * n_atoms)), "1"),
        "expr.evals": (evals, "count"),
        "dp.solve_self_s": (solve_self, "s"),
        "dp.backups_per_s": (steps * m * u_max / solve_self, "1/s"),
        "dp.tie_frac": (float(np.mean(am.mask[:, :m].sum(axis=2) > 1)), "1"),
        "mc.steps_per_s": (wl.mc_samples * steps / med["mc.estimate_probability"], "1/s"),
        "trace.overhead_frac": (traced.median("pass") / untraced.median("pass") - 1.0, "1"),
    })
    return metrics


def set_up(name: str, seed: int, scale: str, model_path: Path, runs: int,
           cal: Calibration, gate: checks.Gate) -> Timings:
    """Import stochviab, generate the workload and write its model file, each
    time in a fresh interpreter; every run must write the same bytes."""
    setup = Timings()
    hashes = set()
    env = package_env(SRC)
    before = cal.measure()
    for _ in range(runs):
        start = time.perf_counter()
        code, _, err = run_command(
            [sys.executable, str(HERE / "workloads.py"), name, str(seed),
             str(model_path), "--scale", scale], env, ROOT)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up failed with exit {code}: {err.strip()}")
        after = cal.measure()
        setup.add("setup", elapsed, cal.scale(before, after))
        before = after
        hashes.add(sha256(model_path))
    gate.check("setup.repeat", len(hashes) == 1,
               "set-up wrote different model files for one seed")
    return setup


def run(sv, name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        out_dir: Path = OUT) -> Report:
    report = Report()
    gate = report.gate
    wl = workloads.generate(name, seed, scale)
    cal = Calibration()
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        model_path = work / "model.json"
        setup = set_up(name, seed, scale, model_path, 1 if trace else SETUP_RUNS, cal, gate)

        tracer = Tracer(f"{name}/{scale}/{seed}")
        pipe = Pipeline(sv, wl, model_path, work, SRC, tracer)
        # The benchmark's own objects (the generated workload above all) stay
        # out of the collections the timed code triggers.
        gc.collect()
        gc.freeze()
        timings = {"warm-up": Timings(), False: Timings(), True: Timings()}

        def one_pass(key) -> tuple[dict, dict]:
            tracer.enabled = key is True
            reps = dict.fromkeys(PHASES, 1) if key == "warm-up" else wl.reps
            out = run_pass(pipe, reps, timings[key], cal)
            if tracer.enabled:
                before = cal.measure()
                code, _, err = pipe.import_probe()
                tracer.spans[-1]["scale"] = cal.scale(before, cal.measure())
                gate.check("cli.import.exit", code == 0, f"exit {code}: {err.strip()}")
            tracer.enabled = False
            for k in ("solve", "estimate"):
                code, _, err = out["cli"][k]
                gate.check(f"cli.{k}.exit", code == 0, f"exit {code}: {err.strip()[-300:]}")
            return out, output_hashes(pipe, out["cli"])

        # The warm-up pass finishes lazy imports and first-call costs; its
        # outputs are the ones checked, and every later pass must repeat them.
        first, first_hashes = one_pass("warm-up")
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(timings[False].raw["pass"]) > len(timings[True].raw["pass"])
            _, hashes = one_pass(traced)
            gate.check("outputs.repeat", hashes == first_hashes,
                       "a pass wrote different bytes than the first")
            if time.perf_counter() >= deadline and (not trace or timings[True].raw["pass"]):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        run_checks(sv, wl, pipe, first, gate)
        record_path = out_dir / "sha256" / f"{name}-{scale}-{seed}.json"
        if record_path.is_file():
            gate.check("outputs.across_runs",
                       json.loads(record_path.read_text()) == first_hashes,
                       f"output hashes differ from the earlier run recorded in {record_path}")
        else:
            record_path.parent.mkdir(parents=True, exist_ok=True)
            record_path.write_text(json.dumps(first_hashes, indent=1) + "\n")

        untraced = timings[False]
        steps = first["solve"]["tables"].steps
        report.metrics = {
            "setup_s": (setup.median("setup"), "s"),
            **{f"{p}_s": (untraced.median(p), "s") for p in PHASES},
            "mc_steps_per_s": (wl.mc_samples * steps / untraced.median("mc"), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if trace:
            report.per_layer = per_layer_metrics(wl, pipe, first, tracer.spans,
                                                 untraced, timings[True])
        record = {
            "workload": name, "scale": scale, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": environment(),
            "computed_sizes": {
                "next_state_bytes": int(first["solve"]["tables"].next_state.nbytes),
                "file_bytes": {k: p.stat().st_size
                               for k, p in dict(pipe.files, model=model_path).items()},
            },
            "sha256": first_hashes,
            "setup": {"raw": setup.raw, "scaled": setup.scaled},
            "passes": {str(k): {"raw": v.raw, "scaled": v.scaled} for k, v in timings.items()},
            "calibration": cal.history,
            "checks": [list(r) for r in gate.results],
            "spans": tracer.spans,
        }
        report.lines = [
            "environment: " + json.dumps(record["environment"]),
            "computed sizes: " + json.dumps(record["computed_sizes"]),
            "sha256: " + json.dumps(first_hashes),
            f"setup_s [s] {describe(setup.scaled['setup'])}; "
            f"raw {describe(setup.raw['setup'])}",
            *(f"{p}_s [s] {describe(untraced.scaled[p])}; raw {describe(untraced.raw[p])}"
              for p in PHASES),
        ]
        runs = out_dir / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{name}-{scale}-{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def run_checks(sv, wl, pipe: Pipeline, first: dict, gate: checks.Gate) -> None:
    """Everything the warm-up pass produced, against the references."""
    s, v, e, c = first["solve"], first["verify"], first["export"], first["cli"]
    model, vf, am, fb = s["model"], s["vf"], s["am"], s["fb"]
    x0 = wl.model.x0
    checks.solution(gate, sv, wl.name, wl.model, model, vf, am)
    checks.kernels(gate, vf, wl.beta, s["kernels"])
    checks.monte_carlo(gate, v["est"], v["ev"].value(vf.t0, x0))
    checks.oracle(gate, sv, pipe.oracle_model, wl.oracle.x0, v["brute_force"])
    if wl.name == "three-state":
        checks.closed_form(gate, sv, vf, wl.model.params["p"])
    checks.simulation(gate, wl.model, e["states"], e["success"])
    rewritten = pipe.work / "value_rewritten.csv"
    sv.io.write_value_csv(e["vf_back"], rewritten)
    checks.round_trips(gate, vf, e["vf_back"], pipe.model_path.read_bytes(),
                       pipe.files["saved_model"].read_bytes(), rewritten.read_bytes(),
                       pipe.files["value"].read_bytes())
    checks.cli_solve(gate, c["solve"][1], vf, model.states.points,
                     {"value": pipe.cli_dir / "value.csv",
                      "argmax": pipe.cli_dir / "argmax_policy.csv"},
                     {"value": pipe.files["value"], "argmax": pipe.files["argmax"]})
    est = sv.estimate_probability(model, fb, x0, wl.cli_samples, wl.seed)
    checks.cli_estimate(gate, c["estimate"][1], est)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sv = import_package()
    # One CPU for this process and every subprocess it starts, so that the
    # calibration runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    report = run(sv, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report.per_layer if args.trace else report.metrics
    gate = report.gate
    for line in report.lines:
        print(line)
    for k, (value, unit) in metrics.items():
        print(f"{k} = {value!r} {unit}")
    print(f"checks: attempted={gate.attempted} failed={gate.failed} "
          f"fail_frac={gate.failed / gate.attempted!r}")
    for failure in gate.failures():
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": value, "unit": unit} for k, (value, unit) in metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
