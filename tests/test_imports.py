"""Package exports: the lazy-export contract, and which paths load numpy.

The import checks run in fresh interpreters, because this process has
imported numpy, ``dataclasses`` and ``json`` already."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtsallis

SOURCE_ROOT = Path(qtsallis.__file__).resolve().parents[1]


def fresh_python(code: str) -> list[str]:
    """Run ``code`` in a new interpreter that finds this qtsallis; return
    its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SOURCE_ROOT)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded(call: str, *modules: str) -> set[str]:
    """Those of ``modules`` that are imported after ``call`` runs in a
    fresh interpreter."""
    found = fresh_python(f"import sys\n{call}\n"
                         f"print(*[m for m in {modules!r} if m in sys.modules])")[-1]
    return set(found.split())


def cli_loaded(argv: list[str], *modules: str) -> set[str]:
    return loaded(f"from qtsallis.cli import main\nassert main({argv!r}) == 0", *modules)


#: What the closed-form path leaves unloaded: numpy, and the stdlib modules
#: that its records and its plain-text output do without.
HEAVY = ("numpy", "dataclasses", "json")


# -- lazy-export contract -------------------------------------------------

def test_all_keeps_its_names():
    assert qtsallis.__all__ == [
        "CapacityError", "ChainDecomposition", "Comparison", "DensityMatrix", "JointDist",
        "MonotonicityError", "NumericalError", "ProbDist", "QTsallisError", "Spectrum",
        "ThresholdPoint", "ValidationError", "VerificationReport", "WernerParams",
        "asymptotic_threshold", "compose_pseudoadditive", "conditional_entropy_block",
        "conditional_entropy_def", "conditional_entropy_ratio", "default_family_grid",
        "default_order_grid", "entropy_sign", "escort", "joint_spectrum", "marginal_spectrum",
        "partial_trace", "q_expectation", "quantum_conditional", "quantum_tsallis",
        "spectrum_of", "tensor_product", "threshold_curve", "threshold_for_q",
        "tripartite_chain", "tsallis_entropy", "verify_family", "verify_separable_witness",
        "werner_density"]


@pytest.mark.parametrize("name", qtsallis.__all__)
def test_export_is_its_submodule_object(name):
    obj = getattr(qtsallis, name)
    assert obj.__module__.startswith("qtsallis.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_lazy_table_names_their_modules():
    for name, module in qtsallis._LAZY.items():
        assert getattr(importlib.import_module(f"qtsallis.{module}"), name) \
            is getattr(qtsallis, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qtsallis import *", namespace)
    assert set(qtsallis.__all__) <= set(namespace)


def test_dir_lists_every_name():
    assert set(qtsallis.__all__) <= set(dir(qtsallis))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        qtsallis.no_such_name  # noqa: B018
    assert not hasattr(qtsallis, "no_such_name")


def test_classical_keeps_index_names():
    from qtsallis import _index
    assert _index.LIMIT_WINDOW == 1e-9


# -- numpy-free paths -----------------------------------------------------

@pytest.mark.parametrize("call", [
    "import qtsallis",
    "import qtsallis\nassert qtsallis.threshold_for_q(2, 3, 2).x_star is not None",
    "import qtsallis\nassert qtsallis.asymptotic_threshold(2, 3) == 0.2",
    "import qtsallis\n"
    "qtsallis.conditional_entropy_block(qtsallis.WernerParams(2, 3, 0.4), 1, 2.0)",
    "import qtsallis\nqtsallis.joint_spectrum(qtsallis.WernerParams(2, 3, 0.4))",
    "import qtsallis\nqtsallis.marginal_spectrum(qtsallis.WernerParams(2, 3, 0.4), 2)",
    "import qtsallis\nqtsallis.Spectrum(((0.5, 2),))",
], ids=["import", "threshold_for_q", "asymptotic_threshold", "conditional_entropy_block",
        "joint_spectrum", "marginal_spectrum", "Spectrum"])
def test_closed_form_library_loads_no_numpy(call):
    assert loaded(call, *HEAVY) == set()


@pytest.mark.parametrize("argv", [
    ["threshold", "--N", "2", "--n", "3", "--q", "2"],
    ["threshold", "--N", "2", "--n", "3", "--asymptotic"],
    ["entropy", "--werner", "2,3,0.4", "--q", "2", "--condition-on", "1"],
])
def test_closed_form_commands_load_no_numpy(argv):
    assert cli_loaded(argv, *HEAVY) == set()


SWEEP = ["sweep", "--N", "2", "--n", "3", "--q-min", "1", "--q-max", "4", "--q-points", "3"]


@pytest.mark.parametrize("argv", [
    ["entropy", "--dist", "0.25,0.75", "--q", "2"],
    ["entropy", "--dist", "0.2,0.3,0.5", "--q", "1"],
    [*SWEEP, "--format", "csv"],
    [*SWEEP, "--format", "json"],
    [*SWEEP, "--format", "csv", "--log-scale"],
    [*SWEEP, "--format", "json", "--log-scale"],
], ids=["entropy-dist", "entropy-dist-limit", "sweep-csv", "sweep-json", "sweep-csv-log",
        "sweep-json-log"])
def test_dist_and_sweep_commands_load_no_numpy(argv):
    """Only ``sweep --format json`` may load ``json``, which it writes."""
    assert cli_loaded(argv, *HEAVY) <= ({"json"} if "json" in argv else set())


@pytest.mark.parametrize("module", ["qtsallis.quantum", "qtsallis.oracle"])
def test_dense_layers_load_no_classical_layer(module):
    assert fresh_python(f"import sys, {module}\n"
                        "print('qtsallis.classical' in sys.modules)")[-1] == "False"


def test_verify_works_and_loads_numpy():
    """``verify`` is the one command that builds dense states."""
    assert cli_loaded(["verify", "--max-dim", "4"], "numpy") == {"numpy"}


@pytest.mark.parametrize("use", ["qtsallis.ProbDist([0.5, 0.5])",
                                 "assert qtsallis.quantum.DENSE_DIM_CAP == 4096"])
def test_lazy_name_or_module_loads_numpy_on_first_use(use):
    assert loaded(f"import qtsallis\n{use}", "numpy") == {"numpy"}
