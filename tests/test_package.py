"""The package namespace: every public name loads its home module on first
use, and a fresh interpreter loads only the modules a run needs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochviab

SRC = Path(stochviab.__file__).resolve().parent.parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(stochviab.__path__))
MC_AND_ORACLE = ["statistics", "stochviab._rng", "stochviab.closed_form", "stochviab.mc"]


def loaded_after(code: str, cwd: Path) -> list:
    """The sorted ``stochviab`` submodules (and ``statistics``) that a fresh
    interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    report = "import sys; print(' '.join(sorted(m for m in sys.modules "
    report += "if m.startswith('stochviab.') or m == 'statistics')))"
    done = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1].split()


@pytest.fixture(scope="module")
def example_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "m.json"
    stochviab.save_model(stochviab.make_three_state_example(0.01, 0, 40), path)
    return path


def test_import_loads_no_submodule(tmp_path):
    assert loaded_after("import stochviab", tmp_path) == []


def test_solve_loads_neither_monte_carlo_nor_the_oracle(example_file, tmp_path):
    code = ("from stochviab import cli\n"
            f"assert cli.main(['solve', '--model', {str(example_file)!r}, '--out', 'solved']) == 0")
    loaded = loaded_after(code, tmp_path)
    assert (tmp_path / "solved" / "value.csv").exists()
    assert "stochviab.dp" in loaded
    assert not set(MC_AND_ORACLE) & set(loaded)


def test_a_table_model_never_loads_the_expression_parser(tmp_path):
    ex = stochviab.make_three_state_example(0.01, 0, 40)
    table = stochviab.TableDynamics(np.array(ex.tables.next_state))
    stochviab.save_model(stochviab.Model(ex.time, ex.states, ex.controls, ex.noise, table,
                                         ex.constraints), tmp_path / "t.json")
    code = ("from stochviab import cli\n"
            "assert cli.main(['solve', '--model', '{}', '--out', '{}']) == 0")
    loaded = loaded_after(code.format("t.json", "solved"), tmp_path)
    assert (tmp_path / "solved" / "value.csv").exists()
    assert "stochviab.model" in loaded and "stochviab.expr" not in loaded
    # an expression model parses its sources, so it does load the parser
    stochviab.save_model(ex, tmp_path / "e.json")
    assert "stochviab.expr" in loaded_after(code.format("e.json", "solved-e"), tmp_path)


def test_oracle_loads_no_monte_carlo(tmp_path):
    code = ("from stochviab import cli\n"
            "assert cli.main(['oracle', '--p', '0.01', '--horizon', '40', '--time', '0', "
            "'--x0', '0']) == 0")
    loaded = loaded_after(code, tmp_path)
    assert "stochviab.closed_form" in loaded and "stochviab.mc" not in loaded


@pytest.mark.parametrize("command", [
    ["estimate", "--x0", "1", "--samples", "100", "--seed", "7"],
    ["simulate", "--x0", "1", "--samples", "9", "--seed", "11", "--out", "t.csv"],
])
def test_monte_carlo_loads_no_statistics(example_file, tmp_path, command):
    code = ("from stochviab import cli\n"
            f"assert cli.main({command[:1] + ['--model', str(example_file)] + command[1:]!r}) == 0")
    loaded = loaded_after(code, tmp_path)
    assert "stochviab.mc" in loaded and "statistics" not in loaded


@pytest.mark.parametrize("name", stochviab.__all__)
def test_public_name_is_its_home_modules_object(name):
    home, attr = stochviab._SOURCES[name]
    assert getattr(stochviab, name) is getattr(importlib.import_module(f"stochviab.{home}"), attr)


def test_aliases_of_the_expression_module():
    from stochviab import expr

    assert stochviab.evaluate_expr is expr.evaluate and stochviab.parse_expr is expr.parse


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stochviab import *", namespace)
    assert len(stochviab.__all__) == 52
    assert set(stochviab.__all__) <= set(namespace)
    assert set(stochviab.__all__) <= set(dir(stochviab))
    assert "__version__" in dir(stochviab)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_resolves_as_an_attribute(name):
    assert getattr(stochviab, name) is importlib.import_module(f"stochviab.{name}")


def test_the_submodule_list_is_complete():
    assert set(SUBMODULES) == stochviab._SUBMODULES


@pytest.mark.parametrize("name", ["no_such_name", "evaluate", "MASK64"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'stochviab' has no attribute '{name}'$"):
        getattr(stochviab, name)
    assert not hasattr(stochviab, name)
