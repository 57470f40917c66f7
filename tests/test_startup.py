"""Start-up contract: each stage loads only the modules it uses, numpy on first use,
and the CLI runs BLAS single-threaded.

Each check that depends on what a fresh interpreter has imported runs in a
subprocess, because this test process has numpy loaded already.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sentpop
import sentpop.cli
from sentpop.cli import build_parser, main
from sentpop.energy import EnergyFunction, EnergyModel
from sentpop.predictor import PREDICTOR_KINDS
from sentpop.synth import SYNTH_WINDOW

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(sentpop.cli.__file__).resolve().parents[1])


def _python(code: str, *args, **env) -> str:
    """Run ``code`` in a fresh interpreter without the BLAS thread variables; return stdout."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**base, "PYTHONPATH": SRC, **env}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _threads_visible() -> bool:
    """OpenBLAS starts its pool when numpy loads, and Linux lists a process's threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no mode
        return False
    return "openblas" in blas and os.path.isdir("/proc/self/task")


STAGES = """
import json, os, sys
from sentpop.cli import main
out, window, *stages = sys.argv[1:]
argvs = {
    "ingest": ["--corpus", f"{out}/corpus.tsv", "--lexicon", f"{out}/lexicon.tsv",
               "--window", window],
    "graph": ["--seed-user", "u00000"],
    "topics": ["--stopwords", f"{out}/stopwords.tsv"],
    "sentiment": [],
    "energy": [],
    "correlate": ["--gaps", "1"],
}
loaded, modules = {}, {}
for stage in stages:
    if main([stage, "--out", out, *argvs[stage]]) != 0:
        sys.exit(f"{stage} failed")
    loaded[stage] = "numpy._core" in sys.modules
    modules[stage] = sorted(m for m in sys.modules if m.startswith("sentpop."))
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"loaded": loaded, "modules": modules, "threads": threads}))
"""


def test_only_stages_that_do_array_math_load_numpy(tmp_path):
    out = tmp_path / "run"
    assert main(["synth", "--out", str(out), "--seed", "11", "--n-users", "14",
                 "--edge-density", "0.35", "--n-topics", "6"]) == 0
    window = (f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
              f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}")
    result = json.loads(_python(STAGES, out, window, "ingest", "graph", "topics", "sentiment",
                                "energy").splitlines()[-1])
    # correlate runs in a fresh interpreter: energy loaded numpy in the first one
    correlate = json.loads(_python(STAGES, out, window, "correlate").splitlines()[-1])
    assert {**result["loaded"], **correlate["loaded"]} == {
        "ingest": False, "graph": False, "topics": False, "sentiment": False, "energy": True,
        "correlate": False,
    }
    if _threads_visible():
        # main set OPENBLAS_NUM_THREADS=1 before energy loaded numpy: no pool
        assert result["threads"] == 1
    unused_by_ingest = {f"sentpop.{m}" for m in (
        "graph", "topics", "sentiment", "energy", "stats", "predictor", "synth")}
    assert not unused_by_ingest & set(result["modules"]["ingest"])


EVALUATE = """
import sys
from sentpop.cli import main
if main(["evaluate", "--out", sys.argv[1], "--predictor", sys.argv[2]]) != 0:
    sys.exit("evaluate failed")
print("numpy._core" in sys.modules)
"""


def test_linear_evaluate_loads_no_numpy_and_edge_evaluate_does(tmp_path):
    """The linear model reads its topics' energies from energies.tsv and predicts and
    scores them in Python floats; the edge model stacks per-edge energies."""
    out = tmp_path / "run"
    assert main(["synth", "--out", str(out), "--seed", "11", "--n-users", "14",
                 "--edge-density", "0.35", "--n-topics", "6", "--planted", "linear"]) == 0
    window = (f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
              f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}")
    for argv in (
        ["ingest", "--corpus", f"{out}/corpus.tsv", "--lexicon", f"{out}/lexicon.tsv",
         "--window", window],
        ["graph", "--seed-user", "u00000"],
        ["topics", "--stopwords", f"{out}/stopwords.tsv"],
        ["sentiment"], ["energy"],
        ["train", "--gaps", "1", "--predictor", "linear"],
        ["train", "--gaps", "1", "--predictor", "edge", "--eta", "0.001"],
    ):
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 0, argv
    loaded = {kind: _python(EVALUATE, out, kind).split()[-1] for kind in PREDICTOR_KINDS}
    assert loaded == {"linear": "False", "edge": "True"}


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, sentpop\n"
        "print(sorted(m for m in sys.modules if m.startswith('sentpop.')))"
    )
    assert _python(code).split() == ["[]"]


def test_each_public_name_is_its_module_attribute():
    wrong = [name for name in sentpop.__all__
             if getattr(sys.modules[getattr(sentpop, name).__module__], name)
             is not getattr(sentpop, name)]
    assert not wrong


def _option(command: str, dest: str) -> argparse.Action:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def test_parser_literals_are_the_enum_values():
    """The parser names its choices literally, so that parsing imports nothing."""
    functions = [f.value for f in EnergyFunction]
    assert _option("energy", "model").choices == [m.value for m in EnergyModel]
    assert _option("energy", "function").choices == functions
    assert _option("train", "function").choices == functions
    assert _option("train", "function").default == EnergyFunction.COSINE.value
    for command in ("train", "evaluate"):
        assert _option(command, "predictor").choices == list(PREDICTOR_KINDS)
        assert _option(command, "predictor").default in PREDICTOR_KINDS


@pytest.mark.parametrize("code", [
    # loaded by the first attribute use
    "import sys, sentpop\n"
    "assert 'numpy._core' not in sys.modules\n"
    "assert sentpop._lazy.np.arange(4).sum() == 6\n"
    "import numpy\n"
    "assert sentpop._lazy.np is numpy",
    # loaded by an import statement elsewhere
    "import sys, sentpop\n"
    "import numpy\n"
    "assert numpy.arange(4).sum() == 6 and sentpop._lazy.np is numpy",
    # imported before sentpop: used as it is
    "import numpy, sentpop\n"
    "assert sentpop._lazy.np is numpy and type(numpy) is type(sentpop)",
], ids=["first-use", "import-after", "import-before"])
def test_lazy_numpy_is_numpy(code):
    _python(code)


@pytest.fixture
def no_blas_thread_vars(monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "")  # so that the original value is restored afterwards
        monkeypatch.delenv(var)


def _run_failing_stage(tmp_path) -> int:
    # exits 1 at once: there is no ingest record to build on
    return main(["graph", "--out", str(tmp_path / "fresh"), "--seed-user", "u0"])


def test_main_runs_blas_single_threaded_by_default(no_blas_thread_vars, tmp_path):
    assert _run_failing_stage(tmp_path) == 1
    assert {v: os.environ.get(v) for v in BLAS_THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None,
    }


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_blas_thread_variable_the_user_set_wins(no_blas_thread_vars, monkeypatch, tmp_path,
                                                  var):
    monkeypatch.setenv(var, "2")
    assert _run_failing_stage(tmp_path) == 1
    assert {v: os.environ.get(v) for v in BLAS_THREAD_VARS} == {
        v: "2" if v == var else None for v in BLAS_THREAD_VARS
    }


TRAIN = """
import hashlib, os
import numpy as np
from sentpop.predictor import TopicSample, TrainConfig, train
n, d = 50, 3000
rng = np.random.default_rng(0)
edges = tuple((f"a{i}", f"b{i}") for i in range(d))
energies = rng.uniform(0.0, 1.0, (n, d))
targets = energies @ rng.uniform(0.5, 2.0, d) + rng.normal(0.0, 1.0, n)
samples = [TopicSample(f"t{i}", edges, energies[i], float(energies[i].sum()), float(targets[i]))
           for i in range(n)]
result = train("edge", samples, TrainConfig(learning_rate=1e-4, epochs=20))
digest = hashlib.sha256(result.model.weight_values.tobytes())
digest.update(np.float64(result.model.rho).tobytes())
digest.update(np.array(result.loss_curve, dtype=np.float64).tobytes())
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(digest.hexdigest(), threads)
"""


def test_blas_thread_count_does_not_change_a_trained_edge_model():
    """d = 3,000 edges and n = 50 topics: the epoch loss is a gemv above
    OpenBLAS's threading threshold. The thread count may change the speed
    only, never the model or its loss curve."""
    one, one_threads = _python(TRAIN, OPENBLAS_NUM_THREADS="1").split()
    two, two_threads = _python(TRAIN, OPENBLAS_NUM_THREADS="2").split()
    assert one == two
    if _threads_visible() and len(os.sched_getaffinity(0)) >= 2:
        # the second process really ran a pool: the test is not vacuous
        assert (int(one_threads), int(two_threads)) == (1, 2)
