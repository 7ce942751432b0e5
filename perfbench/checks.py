"""The correctness gate: every output the benchmark times is checked here.

Each check appends one ``(name, ok, detail)`` result to a :class:`Gate`;
a failed check counts in the run's ``failed``.  Tolerances are chosen so
that a correct solver passes on every seed:

* values against the independent backward induction in ``reference.py``:
  relative 1e-12;
* policy evaluation of a selection from the argmax sets against V:
  absolute 1e-9 (the seed differs by a few 1e-12 on table models);
* Monte Carlo: the exact value inside a z = 5 Wilson band, which a correct
  sampler misses with probability about 6e-7;
* closed form and brute force on small models: absolute 1e-12.
"""

from __future__ import annotations

import numpy as np

import reference

WILSON_Z = 5.0
REL_TOL = 1e-12
POLICY_TOL = 1e-9
ORACLE_TOL = 1e-12
# A control whose reference Q-value lies this close (relatively) to the
# stage maximum is an exact maximizer up to summation order, so every
# argmax rule has to flag it.
TIE_REL = 1e-14


def fmt(x: float) -> str:
    return format(float(x), ".17g")


class Gate:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.results.append((name, ok, "" if ok else detail))
        return ok

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def _rel_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(np.abs(a), np.abs(b))))


def solution(gate: Gate, sv, name: str, inst, model, vf, am) -> None:
    """Compiled tables, values and argmax sets against the references, and
    policy evaluation of both tie-breaks against V."""
    succ = reference.transitions(name, inst)
    member = reference.membership(inst)
    probs = np.asarray(inst.doc["noise"]["probs"], dtype=np.float64)
    m = member.shape[1]
    tab = model.tables
    gate.check("tables.next_state", tab.next_state.shape[:2] == (succ.shape[0], m + 1)
               and np.array_equal(tab.next_state[:, :m, :succ.shape[2]], succ),
               "successor table differs from the reference dynamics")
    gate.check("tables.member", np.array_equal(tab.member[:, :m], member),
               "constraint membership differs from the reference")

    V, Q = reference.q_values(succ, member, probs)
    table = vf.table
    gate.check("value.range", np.all((table >= 0.0) & (table <= 1.0)) and
               np.all(table[:, m] == 0.0), "V outside [0, 1] or non-zero at the sink")
    gate.check("value.reference", table.shape == V.shape and _rel_close(table, V, REL_TOL),
               f"V differs from the reference backward induction by up to "
               f"{np.max(np.abs(table - V)) if table.shape == V.shape else 'shape'}")

    mask = am.mask[:, :m, :Q.shape[2]]
    live = member[:-1, :, None] & np.ones_like(mask)
    best = V[:-1, :m, None]
    sound = ~mask | (live & (Q >= best - POLICY_TOL))
    ties = live & (Q >= best * (1.0 - TIE_REL))
    gate.check("argmax.sound", np.all(sound),
               f"{int(np.count_nonzero(~sound))} flagged controls are not maximizers")
    gate.check("argmax.complete", np.all(mask | ~ties),
               f"{int(np.count_nonzero(ties & ~mask))} maximizers are not flagged")

    for rule in ("smallest", "largest"):
        ev = sv.evaluate_policy(model, sv.select_feedback(am, rule))
        err = float(np.max(np.abs(ev.table - table)))
        gate.check(f"policy.{rule}", err <= POLICY_TOL,
                   f"evaluate_policy of the {rule}-slot selection differs from V by {err}")


def kernels(gate: Gate, vf, beta: float, slices) -> None:
    m = vf.n_states
    want = [tuple(np.nonzero(vf.table[k, :m] >= beta)[0].tolist())
            for k in range(vf.table.shape[0])]
    got = [tuple(sl.members) for sl in slices]
    gate.check("kernel.slices", got == want, "kernel members differ from {x : V >= beta}")


def monte_carlo(gate: Gate, est, exact: float) -> None:
    successes = int(round(est.mean * est.n))
    lo, hi = reference.wilson(successes, est.n, WILSON_Z)
    gate.check("mc.wilson_z5", lo <= exact <= hi,
               f"exact value {exact!r} outside the z=5 band [{lo!r}, {hi!r}] "
               f"of {successes}/{est.n}")


def simulation(gate: Gate, inst, states, success) -> None:
    member = reference.membership(inst)
    m = member.shape[1]
    padded = np.concatenate([member, np.zeros((member.shape[0], 1), dtype=bool)], axis=1)
    inside = padded[np.arange(states.shape[1])[None, :], states]
    gate.check("mc.paths", states.shape[1] == member.shape[0] and
               np.all((states >= 0) & (states <= m)) and
               np.array_equal(inside.all(axis=1), np.asarray(success, dtype=bool)),
               "simulated success flags disagree with the visited states")


def oracle(gate: Gate, sv, model, x0: int, brute: float) -> None:
    vf, _ = sv.solve(model)
    err = abs(brute - vf.value(vf.t0, x0))
    gate.check("dp.brute_force", err <= ORACLE_TOL,
               f"brute_force_value differs from solve by {err}")


def closed_form(gate: Gate, sv, vf, p: float) -> None:
    want = np.array([sv.closed_form.matrix_value(p, vf.T, vf.t0, c) for c in (-1, 0, 1)])
    err = float(np.max(np.abs(vf.table[0, :3] - want)))
    gate.check("three_state.closed_form", err <= ORACLE_TOL,
               f"V(t0, .) differs from closed_form.matrix_value by {err}")


def round_trips(gate: Gate, vf, vf_back, model_text: bytes, saved_text: bytes,
                rewritten: bytes, value_text: bytes) -> None:
    gate.check("io.model_round_trip", saved_text == model_text,
               "save_model(load_model(file)) does not reproduce the file")
    gate.check("io.value_round_trip",
               np.array_equal(vf_back.table, vf.table) and
               np.array_equal(vf_back.points, vf.points) and rewritten == value_text,
               "value CSV does not round-trip exactly")


def cli_solve(gate: Gate, stdout: str, vf, points, cli_files: dict, files: dict) -> None:
    """`stochviab solve` output against the in-process solution; its exit
    code is checked after every pass."""
    lines = [f"V({vf.t0}, x{x}=[{' '.join(fmt(c) for c in points[x])}]) = "
             f"{fmt(vf.table[0, x])}" for x in range(vf.n_states)]
    gate.check("cli.solve.stdout", stdout == "\n".join(lines) + "\n",
               "stdout differs from the in-process values")
    same = all(cli_files[k].is_file() and cli_files[k].read_bytes() == files[k].read_bytes()
               for k in cli_files)
    gate.check("cli.solve.files", same, "CLI CSVs differ from the in-process ones")


def cli_estimate(gate: Gate, stdout: str, est) -> None:
    want = f"{fmt(est.mean)} {est.n} {fmt(est.ci_low)} {fmt(est.ci_high)} {est.seed}\n"
    gate.check("cli.estimate.stdout", stdout == want,
               f"stdout {stdout.strip()!r} differs from {want.strip()!r}")
