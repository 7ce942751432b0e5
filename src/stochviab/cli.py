"""Command-line front end.

Subcommands: ``example``, ``solve``, ``value``, ``kernel``, ``policy``,
``simulate``, ``estimate``, ``oracle``.  Data goes to files or standard
output; diagnostics go to standard error; the exit code is 0 exactly when
the requested computation completed.  Every subcommand is deterministic
given its flags, seeds included.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import io, kernel as kern
from .dp import ValueFunction, solve
from .kernel import select_feedback
from .model import (InvalidModelError, Model, ModelError, _check_x0, _shown,
                    make_three_state_example)


def _solve_file(path: str) -> tuple:
    """(model, ValueFunction, ArgmaxPolicy) for a model file; every model
    error names the file, and a validation failure lists every violation."""
    model = io.load_model(path)
    try:
        vf, am = solve(model)
    except InvalidModelError as err:
        raise ModelError(f"{path}: " + "; ".join(err.violations)) from None
    except ModelError as err:  # a failed evaluation of the dynamics, or the table guard
        raise ModelError(f"{path}: {err}") from None
    return model, vf, am


def _value_source(args) -> ValueFunction:
    """The value function of --values, falling back to solving --model."""
    if args.values is not None and args.model is not None:
        raise ModelError(f"{args.command} takes one of --values and --model, not both")
    if args.values:
        return io.read_value_csv(args.values)
    if args.model:
        return _solve_file(args.model)[1]
    raise ModelError("one of --values or --model is required")


def cmd_example(args) -> int:
    model = make_three_state_example(args.p, args.t0, args.horizon)
    io.save_model(model, args.out)
    print(f"wrote model to {args.out}", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    model, vf, am = _solve_file(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_value_csv(vf, out / "value.csv")
    io.write_argmax_csv(model, am, out / "argmax_policy.csv")
    t0 = model.time.t0
    for x in range(model.states.n_points):
        coords = " ".join(io._fmt(c) for c in model.states.points[x])
        print(f"V({t0}, x{x}=[{coords}]) = {io._fmt(vf.value(t0, x))}")
    return 0


def cmd_value(args) -> int:
    vf = _value_source(args)
    k = vf.stage_index(args.time)
    if args.x0 is not None:
        print(io._fmt(vf.table[k, _check_x0(vf.n_states, args.x0)]))
        return 0
    for x in range(vf.n_states):
        print(f"{x} {io._fmt(vf.table[k, x])}")
    return 0


def cmd_kernel(args) -> int:
    vf = _value_source(args)
    sl = kern.kernel_slice(vf, args.time, args.beta)
    for x in sl.members:
        print(" ".join(io._fmt(c) for c in vf.points[x]))
    if args.out:
        io.write_kernel_csv([sl], vf.points, args.out)
    return 0


def cmd_policy(args) -> int:
    model, _, am = _solve_file(args.model)
    tie = args.tie_break
    fb = select_feedback(am, tie)
    io.write_policy_csv(model, fb, args.out)
    print(f"wrote policy to {args.out}", file=sys.stderr)
    return 0


def _check_seed(seed: int) -> None:
    """Refuse a seed that the library's 64-bit fold would map onto another seed's streams."""
    top = (1 << 64) - 1
    if not 0 <= seed <= top:
        raise ModelError(f"--seed must lie in 0..{top}, got {_shown(seed)}")


def cmd_simulate(args) -> int:
    from . import mc

    _check_seed(args.seed)
    model, vf, am = _solve_file(args.model)
    fb = select_feedback(am)
    states, controls, draws, success = mc.simulate_batch(
        model, fb, args.x0, args.samples, args.seed
    )
    if args.out:
        io.write_trajectories_csv(model, states, controls, success, args.out)
    if args.plot_data:
        _write_plot_data(model, states, args.plot_data)
    frac = float(np.count_nonzero(success)) / args.samples
    lo, hi = mc.wilson_interval(int(np.count_nonzero(success)), args.samples)
    print(
        f"success_fraction={io._fmt(frac)} n={args.samples} "
        f"ci95=[{io._fmt(lo)}, {io._fmt(hi)}] seed={args.seed}"
    )
    return 0


def _write_plot_data(model: Model, states: np.ndarray, path: str) -> None:
    """Wide per-stage table of first-coordinate paths, ready for plotting.

    Sink stages are left empty so plotting tools show the path leaving the
    domain.
    """
    texts, first = io._codes(model.states.points[:, 0])
    first = np.append(first, len(texts))  # the sink's text is b"", appended
    io._write_csv(path, ["t", *(f"x_sample{s}" for s in range(len(states)))],
                  [[io._codes(model.time.t0 + np.arange(states.shape[1])),
                    (np.append(texts, b""), first[states].T)]])


def cmd_estimate(args) -> int:
    from . import mc

    _check_seed(args.seed)
    model, vf, am = _solve_file(args.model)
    fb = select_feedback(am)
    est = mc.estimate_probability(model, fb, args.x0, args.samples, args.seed)
    print(io.format_estimate(est))
    return 0


def cmd_oracle(args) -> int:
    from . import closed_form

    if args.x0 is None and args.beta is None:
        raise ModelError("oracle needs --x0 (a coordinate in {-1,0,1}) or --beta")
    if args.x0 is not None and args.beta is not None:
        raise ModelError("oracle takes one of --x0 and --beta, not both")
    if args.x0 is not None:
        print(io._fmt(closed_form.matrix_value(args.p, args.horizon, args.time, args.x0)))
        return 0
    shape = closed_form.kernel_closed_form(args.p, args.horizon, args.time, args.beta)
    members = " ".join(str(c) for c in shape.members)
    print(f"{shape.value} {members}".rstrip())
    return 0


class _Number(argparse.Action):
    """Stores an option's text as ``convert(text)``, ``int`` or ``float``.  A
    text that ``convert`` refuses raises :class:`ModelError`.  argparse lets an
    action's error through to :func:`main`, which prints it as one line, the
    text as :func:`_shown` shows it; a ``type``'s error it would print whole,
    after a usage line."""

    flags: set[str] = set()  # the option strings of every number option made

    def __init__(self, *args, convert=int, **kwargs):
        super().__init__(*args, **kwargs)
        self.convert = convert
        _Number.flags.update(self.option_strings)

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = self.convert(text)
        except ValueError:  # not a number, or past the interpreter's digit limit
            expected = "an integer" if self.convert is int else "a number"
            raise ModelError(f"{option_string}: expected {expected}, got {_shown(text)}") from None
        setattr(namespace, self.dest, value)


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each number option and a negative number after it, as in
    ``--beta -1e-3``, joined as ``--beta=-1e-3``: argparse takes only a plain
    negative decimal as a value and would read ``-1e-3`` or ``-inf`` as an option."""
    out = []
    for token in argv:
        if out and out[-1] in _Number.flags and re.match(r"-(\d|\.\d|inf|nan)", token, re.I):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochviab",
        description="Viability probabilities, kernels and feedback policies "
        "for finite stochastic control models.",
    )
    # no abbreviated flags: each has one spelling, which `_joined` matches in full
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("example", help="write the built-in three-state model file")
    p.add_argument("--p", action=_Number, convert=float, required=True,
                   help="disturbance tail probability, in (0, 1/2)")
    p.add_argument("--t0", action=_Number, default=0)
    p.add_argument("--horizon", action=_Number, default=40, help="final stage T")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("solve", help="backward induction: value and argmax CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("value", help="query a solved value table")
    p.add_argument("--values", help="value CSV from `solve`")
    p.add_argument("--model", help="model JSON (solved on the fly)")
    p.add_argument("--time", action=_Number, required=True)
    p.add_argument("--x0", action=_Number, help="state index; omit for the whole stage")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("kernel", help="level section {x : V(t,x) >= beta}")
    p.add_argument("--values", help="value CSV from `solve`")
    p.add_argument("--model", help="model JSON (solved on the fly)")
    p.add_argument("--time", action=_Number, required=True)
    p.add_argument("--beta", action=_Number, convert=float, required=True)
    p.add_argument("--out", help="optional kernel CSV")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("policy", help="export one maximizing feedback selection")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="policy CSV path")
    p.add_argument("--tie-break", dest="tie_break", default="smallest",
                   choices=["smallest", "largest"])
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("simulate", help="closed-loop sample paths under the argmax selection")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", action=_Number, required=True, help="initial state index")
    p.add_argument("--samples", action=_Number, default=9)
    p.add_argument("--seed", action=_Number, default=0)
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--plot-data", dest="plot_data", help="wide per-stage CSV for plotting")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="Monte Carlo success probability with Wilson interval")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", action=_Number, required=True, help="initial state index")
    p.add_argument("--samples", action=_Number, default=10000)
    p.add_argument("--seed", action=_Number, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="closed-form value/kernel of the three-state model")
    p.add_argument("--p", action=_Number, convert=float, required=True)
    p.add_argument("--horizon", action=_Number, required=True, help="final stage T")
    p.add_argument("--time", action=_Number, required=True)
    p.add_argument("--x0", action=_Number, help="state coordinate in {-1, 0, 1}")
    p.add_argument("--beta", action=_Number, convert=float)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
