"""A command imports only the modules it runs.

Every case runs in a fresh interpreter: this test process has long since
imported the whole package.  The benchmark runs commands without bytecode
caches, so each module a command imports is also a module it compiles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: model, training and serving code that no Markov attack runs
NOT_FOR_MARKOV = (
    "repro.core.model",
    "repro.flows",
    "repro.nn",
    "repro.autograd",
    "repro.baselines.gan",
    "repro.baselines.cwae",
    "repro.baselines.pcfg",
    "repro.baselines.rules",
    "repro.eval.harness",
    "repro.serve",
    "repro.kernels.numpy_backend",
    "repro.kernels.reference",
)

#: what the perfbench launcher and ``python -m repro`` import before a
#: command starts
LAUNCH = "import repro.strategies.engine, repro.runtime.parallel, repro.cli"

STRATEGY_CLASSES = {
    "StaticStrategy",
    "DynamicStrategy",
    "ConditionalStrategy",
    "SampledModelStrategy",
    "BankReplayStrategy",
    "MangleStrategy",
    "PolicyFilterStrategy",
}


def run_fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter; it may set ``result`` to any
    JSON value.  Returns ``{"modules": [...], "result": ...}``, the
    ``repro`` modules loaded once it finished."""
    script = (
        "import contextlib, io, json, sys\n"
        "result = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "modules = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "print(json.dumps({'modules': modules, 'result': result}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded(modules, *packages):
    """The loaded modules that are one of ``packages`` or inside one."""
    return sorted(
        m for m in modules for p in packages if m == p or m.startswith(p + ".")
    )


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("imports") / "corpus.txt"
    path.write_text("\n".join(corpus[:2000]) + "\n")
    return path


def test_launch_loads_no_model_code(tmp_path):
    modules = run_fresh(LAUNCH, tmp_path)["modules"]
    assert loaded(
        modules,
        *NOT_FOR_MARKOV,
        "repro.baselines",
        "repro.data.synthetic",
        "repro.core.strength",
    ) == []


def test_markov_attack_loads_no_model_code(tmp_path, corpus_file):
    attack = (
        f"{LAUNCH}\n"
        f"repro.cli.main(['attack', '--corpus', {str(corpus_file)!r}, "
        "'--strategy', 'markov:3', '--budgets', '500,2000', '--workers', '2', "
        "'--schedule', 'elastic'])"
    )
    modules = run_fresh(attack, tmp_path)["modules"]
    assert "repro.baselines.markov" in modules
    assert loaded(modules, *NOT_FOR_MARKOV) == []


def test_passflow_attack_loads_no_baseline(tmp_path, corpus_file, trained_model):
    """The kernel backend loads in the parent, before the pool forks, and
    merging the shards' keyed deltas does not import ``numpy.ma``."""
    model_path = trained_model.save(tmp_path / "model.npz")
    attack = (
        "import os\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append("
        "'repro.kernels.numpy_backend' in sys.modules))\n"
        f"{LAUNCH}\n"
        f"repro.cli.main(['attack', '--model', {str(model_path)!r}, "
        f"'--corpus', {str(corpus_file)!r}, "
        "'--strategy', 'passflow:dynamic+gs?alpha=1&sigma=0.12', "
        "'--budgets', '200,600', '--workers', '2'])\n"
        "result = [forks, 'numpy.ma' in sys.modules]"
    )
    fresh = run_fresh(attack, tmp_path)
    assert "repro.core.model" in fresh["modules"]
    assert loaded(fresh["modules"], "repro.baselines", "repro.eval.harness", "repro.serve") == []
    assert fresh["result"] == [[True, True], False]


def test_strategies_register_every_family_from_light_modules(tmp_path):
    code = (
        "import repro.strategies\n"
        "from repro.strategies.base import GuessingStrategy\n"
        "pending, classes = [GuessingStrategy], set()\n"
        "while pending:\n"
        "    for cls in pending.pop().__subclasses__():\n"
        "        classes.add(cls.__name__)\n"
        "        pending.append(cls)\n"
        "result = [sorted(classes), list(repro.strategies.available_strategies())]\n"
    )
    fresh = run_fresh(code, tmp_path)
    classes, families = fresh["result"]
    assert STRATEGY_CLASSES <= set(classes)
    assert sorted(families) == sorted(
        ["passflow", "markov", "pcfg", "rules", "passgan", "cwae"]
        + ["bank", "policy", "mangle"]
    )
    assert loaded(fresh["modules"], *NOT_FOR_MARKOV, "repro.baselines") == []


def test_import_repro_loads_the_kernels_and_nothing_heavy(tmp_path):
    fresh = run_fresh("import repro\nresult = repro.kernels.blas.describe()", tmp_path)
    assert fresh["result"]["threads"] in (1, None)
    assert loaded(fresh["modules"], "repro.kernels") != []
    heavy = loaded(fresh["modules"], "repro.core", "repro.strategies", "repro.data")
    assert heavy == []


@pytest.mark.parametrize(
    "first",
    [
        "repro.bank.replay",
        "repro.scenarios.policy",
        "repro.scenarios.mangle",
        "repro.cli",
    ],
)
def test_any_module_can_be_imported_first(tmp_path, first):
    code = (
        f"import {first}\n"
        "from repro.bank.replay import BankReplayStrategy\n"
        "from repro.scenarios import MangleStrategy, PolicyFilterStrategy\n"
        "from repro.strategies import BankReplayStrategy as exported\n"
        "result = [exported is BankReplayStrategy,"
        " len(repro.strategies.available_strategies())]\n"
    )
    assert run_fresh(code, tmp_path)["result"] == [True, 9]


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.core",
        "repro.data",
        "repro.eval",
        "repro.baselines",
        "repro.utils",
        "repro.flows",
        "repro.nn",
        "repro.bank",
        "repro.serve",
        "repro.runtime",
        "repro.strategies",
    ],
)
def test_every_exported_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
