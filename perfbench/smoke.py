"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and requires a
passing gate and exactly the metrics BENCHMARK.json names.  Then shows that
the gate fails on a perturbed value function, on an argmax set that flags a
non-maximizer and on one that misses a maximizer, and that the benchmark
exits non-zero without a result line when the package is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import checks
import reference
import run
import workloads

SEED = 3


def failed_checks(sv, wl, model, vf, am) -> set[str]:
    gate = checks.Gate()
    checks.solution(gate, sv, wl.name, wl.model, model, vf, am)
    return {name for name, ok, _ in gate.results if not ok}


def check_runs(sv, spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.NAMES:
        for trace in (False, True):
            report = run.run(sv, name, SEED, 0.0, trace, scale="tiny",
                             out_dir=run.OUT / "smoke")
            assert report.correct, report.gate.failures()
            assert set(report.metrics) == end_to_end, set(report.metrics) ^ end_to_end
            if trace:
                assert set(report.per_layer) == per_layer, set(report.per_layer) ^ per_layer
            values = (report.per_layer if trace else report.metrics).values()
            assert all(np.isfinite(v) for v, _ in values)
        print(f"ok   {name}: gate passes, metrics complete")


def check_gate_catches(sv) -> None:
    for name in workloads.NAMES:
        wl = workloads.generate(name, SEED, "tiny")
        model = sv.io.model_from_dict(wl.model.doc)
        vf, am = sv.solve(model)
        assert not failed_checks(sv, wl, model, vf, am)

        table = vf.table.copy()
        table[0, wl.model.x0] += 1e-6
        bad_vf = sv.ValueFunction(vf.t0, vf.T, vf.points, table)
        assert "value.reference" in failed_checks(sv, wl, model, bad_vf, am)

        succ = reference.transitions(name, wl.model)
        member = reference.membership(wl.model)
        V, Q = reference.q_values(succ, member, np.asarray(wl.model.doc["noise"]["probs"]))
        m = member.shape[1]
        worse = member[:-1, :, None] & (Q < V[:-1, :m, None] - 1e-6)
        k, x, j = np.argwhere(worse)[0]
        mask = am.mask.copy()
        mask[k, x, j] = True
        bad_am = sv.ArgmaxPolicy(am.t0, am.T, mask, am.counts)
        assert "argmax.sound" in failed_checks(sv, wl, model, vf, bad_am)

        k, x, j = np.argwhere(am.mask[:, :m])[0]
        mask = am.mask.copy()
        mask[k, x, j] = False
        bad_am = sv.ArgmaxPolicy(am.t0, am.T, mask, am.counts)
        assert "argmax.complete" in failed_checks(sv, wl, model, vf, bad_am)
        print(f"ok   {name}: gate fails on a perturbed V and on wrong argmax sets")


def check_without_package() -> None:
    bare = run.OUT / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "three-state",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok   without src/stochviab the benchmark exits non-zero with no result")


def main() -> int:
    sv = run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_runs(sv, spec)
    check_gate_catches(sv)
    check_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())
