"""The command as a user runs it: each stage its own ``python -m sentpop.cli``
process, which ``cli.entry`` ends once ``main`` returns.

The children run without ``PYTHONUNBUFFERED``. With it set, every print reaches
the pipe at once, so a process that ended without flushing stdout would look
the same as one that flushed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentpop.cli
from sentpop.cli import main
from sentpop.synth import SYNTH_WINDOW

SRC = str(Path(sentpop.cli.__file__).resolve().parents[1])
WINDOW_FLAG = (
    f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
    f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *args], env={**env, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )


def _stage_argvs(out: Path, source: Path) -> dict[str, list[str]]:
    argvs = {
        "ingest": ["--corpus", source / "corpus.tsv", "--lexicon", source / "lexicon.tsv",
                   "--window", WINDOW_FLAG],
        "graph": ["--seed-user", "u00000", "--max-depth", "3"],
        "topics": ["--stopwords", source / "stopwords.tsv"],
        "sentiment": [],
        "energy": [],
    }
    return {stage: [stage, "--out", str(out), *map(str, argv)] for stage, argv in argvs.items()}


def _tree(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def source(tmp_path_factory) -> Path:
    """A small synth corpus, its lexicon and its stopwords, outside every run below."""
    out = tmp_path_factory.mktemp("source")
    assert main(["synth", "--out", str(out), "--seed", "11", "--n-users", "14",
                 "--edge-density", "0.35", "--n-topics", "6", "--planted", "linear",
                 "--beta", "150"]) == 0
    return out


def test_stage_processes_write_what_main_writes_in_process(source, tmp_path, capsys):
    proc, inproc = tmp_path / "proc", tmp_path / "inproc"
    printed = {}
    for stage, argv in _stage_argvs(proc, source).items():
        done = _python("-m", "sentpop.cli", *argv)
        assert (done.returncode, done.stderr) == (0, ""), stage
        printed[stage] = done.stdout
    # evaluate before train: one error line, nothing printed and nothing written
    done = _python("-m", "sentpop.cli", "evaluate", "--out", str(proc), "--predictor", "linear")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.endswith("\n")

    capsys.readouterr()
    for stage, argv in _stage_argvs(inproc, source).items():
        assert main(argv) == 0, stage
        expected = capsys.readouterr().out.replace(str(inproc), str(proc))
        # each stage prints one whole line, flushed before its process ended
        assert printed[stage] == expected and expected.count("\n") == 1, stage
        assert expected.startswith(f"{stage}: ") and expected.endswith("\n"), stage
    tree = _tree(proc)
    assert "manifest.json" in tree and tree == _tree(inproc)


@pytest.mark.parametrize("fake_main, code, stdout, stderr_has", [
    # the code main returns, with what it printed
    ("lambda: print('done') or 7", 7, "done\n", None),
    # a stdout that cannot be flushed leaves the ending to the interpreter
    ("lambda: sys.stdout.close() or 3", 3, "", None),
    # an exception from main takes the usual path: its traceback and status 1
    ("lambda: 1 / 0", 1, "", "ZeroDivisionError"),
], ids=["returned-code", "stdout-closed", "exception"])
def test_entry_ends_with_the_code_of_main(fake_main, code, stdout, stderr_has):
    done = _python("-c", f"import sys, sentpop.cli as cli; cli.main = {fake_main}; cli.entry()")
    assert (done.returncode, done.stdout) == (code, stdout), done.stderr
    if stderr_has is None:
        assert done.stderr == ""
    else:
        assert "Traceback" in done.stderr and stderr_has in done.stderr
