"""CLI pipeline tests on a small synthetic corpus."""

import ast
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sentpop.cli
import sentpop.corpus
import sentpop.manifest
from sentpop.cli import _sgd_summary, main
from sentpop.manifest import atomic_write, atomic_write_text
from sentpop.predictor import LinearModel, TrainConfig, TrainResult, load_model
from sentpop.synth import SYNTH_WINDOW

WINDOW_FLAG = (
    f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
    f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}"
)


def run(*argv):
    return main([str(a) for a in argv])


def pipeline_argv(out):
    """The analysis stages of the ``pipeline_dir`` run, by stage, in order."""
    return {
        "ingest": ("ingest", "--out", out, "--corpus", out / "corpus.tsv",
                   "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG),
        "graph": ("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3"),
        "topics": ("topics", "--out", out, "--stopwords", out / "stopwords.tsv"),
        "sentiment": ("sentiment", "--out", out),
        "energy": ("energy", "--out", out),
        "correlate": ("correlate", "--out", out, "--gaps", "1,3"),
        "train": ("train", "--out", out, "--gaps", "1", "--predictor", "linear",
                  "--epochs", "120", "--seed", "7"),
        "evaluate": ("evaluate", "--out", out, "--predictor", "linear"),
        "train:edge": ("train", "--out", out, "--gaps", "1", "--predictor", "edge",
                       "--eta", "0.001", "--epochs", "50", "--seed", "7"),
        "evaluate:edge": ("evaluate", "--out", out, "--predictor", "edge"),
    }


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A fully executed pipeline over a small planted-linear corpus."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--out", out, "--seed", "5", "--n-users", "40",
               "--edge-density", "0.12", "--n-topics", "12",
               "--planted", "linear", "--alpha", "2.0", "--beta", "150",
               "--noise-sigma", "0.02") == 0
    for argv in pipeline_argv(out).values():
        assert run(*argv) == 0, argv[0]
    return Path(out)


def test_all_artifacts_exist(pipeline_dir):
    for name in [
        "corpus_normalized.tsv", "graph.tsv", "community.tsv", "catalog.tsv",
        "vectors.tsv", "energies.tsv", "correlation.tsv", "splits_linear.tsv",
        "model_linear_gap1.tsv", "train_log_linear_gap1.tsv",
        "evaluation_linear.tsv", "splits_edge.tsv", "model_edge_gap1.tsv",
        "evaluation_edge.tsv", "manifest.json",
    ]:
        assert (pipeline_dir / name).exists(), name


def test_catalog_covers_all_planted_topics(pipeline_dir):
    rows = (pipeline_dir / "catalog.tsv").read_text().splitlines()
    assert len(rows) == 12
    for row in rows:
        tag, pop, start, phrases = row.split("\t")
        assert len(phrases.split(",")) == 10
        assert int(pop) >= 100


def test_correlation_report_shape(pipeline_dir):
    rows = (pipeline_dir / "correlation.tsv").read_text().splitlines()
    # two gaps, four model+function combinations each
    assert len(rows) == 8
    methods = {row.split("\t")[1] for row in rows}
    assert methods == {
        "entropy+avglen", "entropy+cosine", "mrf+avglen", "mrf+cosine",
    }
    for row in rows:
        gap, method, r, p, strength = row.split("\t")
        assert gap in {"1", "3"}
        assert -1.0 <= float(r) <= 1.0
        assert 0.0 <= float(p) <= 1.0
        assert strength in {"Zero", "Weak", "Moderate", "Strong", "Perfect"}


def test_planted_linear_correlation_is_strong(pipeline_dir):
    rows = (pipeline_dir / "correlation.tsv").read_text().splitlines()
    for row in rows:
        gap, method, r, p, strength = row.split("\t")
        if gap == "1" and method == "mrf+cosine":
            assert float(r) > 0.9
            return
    raise AssertionError("mrf+cosine row missing")


def test_energy_rows_cover_catalog_and_combos(pipeline_dir):
    energy_rows = (pipeline_dir / "energies.tsv").read_text().splitlines()
    assert len(energy_rows) == 12 * 4


def test_model_file_loads(pipeline_dir):
    model = load_model(pipeline_dir / "model_linear_gap1.tsv")
    assert model.alpha != 0.0


def test_evaluation_report_shape(pipeline_dir):
    rows = (pipeline_dir / "evaluation_linear.tsv").read_text().splitlines()
    assert len(rows) == 1
    gap, kind, rse = rows[0].split("\t")
    assert gap == "1" and kind == "linear"
    assert float(rse) >= 0.0


def test_manifest_records_stages_and_digests(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    stages = manifest["stages"]
    for stage in ["synth", "ingest", "graph", "topics", "sentiment", "energy",
                  "correlate", "train:linear", "evaluate:linear", "train:edge", "evaluate:edge"]:
        assert stage in stages
        assert "config_digest" in stages[stage]
    # artifacts in the run directory are keyed relative to it
    for norm in ("corpus_normalized.tsv", "lexicon_normalized.tsv"):
        assert stages["ingest"]["outputs"][norm]["rows"] > 0, norm
    # each config is the stage's flags as parsed, with the values it resolved
    w = SYNTH_WINDOW
    out = str(pipeline_dir)
    assert {name: entry["config"] for name, entry in stages.items()} == {
        "synth": {
            "seed": 5, "n_users": 40, "edge_density": 0.12, "n_topics": 12, "m": 10,
            "emoticon_rate": 0.5, "planted": "linear", "alpha": 2.0, "beta": 150.0,
            "rho": 150.0, "weight_range": "0.5,2.0", "noise_sigma": 0.02,
            "tweets_per_user": 8, "max_depth": 3,
        },
        "ingest": {
            "corpus": f"{out}/corpus.tsv", "lexicon": f"{out}/lexicon.tsv",
            "window": [w.train_start, w.train_end, w.test_start, w.test_end],
        },
        "graph": {"seed_user": "u00000", "max_depth": 3},
        "topics": {
            "m": 10, "min_popularity": 100, "stopwords": f"{out}/stopwords.tsv",
            "first_month_end": w.test_start + (w.test_end - w.test_start) // 2,
        },
        "sentiment": {},
        "energy": {},
        "correlate": {"gaps": [1, 3]},
        "train:linear": {
            "predictor": "linear", "function": "cosine", "gaps": [1], "eta": 0.01,
            "epochs": 120, "seed": 7, "stop_tol": 1e-5,
        },
        "evaluate:linear": {"predictor": "linear", "gaps": [1]},
        "train:edge": {
            "predictor": "edge", "function": "cosine", "gaps": [1], "eta": 0.001,
            "epochs": 50, "seed": 7, "stop_tol": 1e-5,
        },
        "evaluate:edge": {"predictor": "edge", "gaps": [1]},
    }


# the train flag of each TrainConfig field whose flag has another name
_TRAIN_FLAGS = {"learning_rate": "eta", "rng_seed": "seed"}


def test_train_manifest_records_every_train_config_field(pipeline_dir):
    stages = json.loads((pipeline_dir / "manifest.json").read_text())["stages"]
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    for name in ("train:linear", "train:edge"):
        config = stages[name]["config"]
        assert [f for f in fields if _TRAIN_FLAGS.get(f, f) not in config] == [], name


def test_rerun_is_byte_identical(pipeline_dir):
    before = {
        p.name: p.read_bytes()
        for p in pipeline_dir.iterdir()
        if p.suffix == ".tsv" or p.name == "manifest.json"
    }
    for argv in pipeline_argv(pipeline_dir).values():
        assert run(*argv) == 0, argv[0]
    after = {
        p.name: p.read_bytes()
        for p in pipeline_dir.iterdir()
        if p.suffix == ".tsv" or p.name == "manifest.json"
    }
    assert "manifest.json" in after
    assert before == after


# every file each stage verifies; appending a byte to one must stop the
# stage. Only sentiment counts emoticons, so only it reads the lexicon's snapshot.
VERIFIED = {
    "ingest": ("corpus.tsv", "lexicon.tsv"),
    "graph": ("corpus_normalized.tsv",),
    "topics": ("corpus_normalized.tsv", "stopwords.tsv"),
    "sentiment": ("corpus_normalized.tsv", "lexicon_normalized.tsv", "community.tsv",
                  "catalog.tsv"),
    "energy": ("community.tsv", "catalog.tsv", "vectors.tsv"),
    "correlate": ("catalog.tsv", "energies.tsv"),
    # the linear model's one feature is the topic's energy: no community, no vectors
    "train": ("catalog.tsv", "energies.tsv"),
    "evaluate": ("catalog.tsv", "energies.tsv", "splits_linear.tsv", "model_linear_gap1.tsv"),
    "train:edge": ("community.tsv", "catalog.tsv", "vectors.tsv"),
    "evaluate:edge": ("community.tsv", "catalog.tsv", "vectors.tsv", "splits_edge.tsv",
                      "model_edge_gap1.tsv"),
}


@pytest.mark.parametrize("stage, name", [
    (stage, name) for stage, names in VERIFIED.items() for name in names
])
def test_tampered_input_stops_its_stage(pipeline_dir, capsys, stage, name):
    path = pipeline_dir / name
    original = path.read_bytes()
    argv = pipeline_argv(pipeline_dir)[stage]
    try:
        path.write_bytes(original + b"\n")
        before = {p.name: p.read_bytes() for p in pipeline_dir.iterdir()}
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "stale" in err and name in err, err
        # the stage stopped before replacing any artifact, and left no temp file
        assert {p.name: p.read_bytes() for p in pipeline_dir.iterdir()} == before
    finally:
        path.write_bytes(original)
    assert run(*argv) == 0


def test_the_stages_after_ingest_parse_no_line(pipeline_dir, monkeypatch):
    """graph, topics and sentiment read the corpus that ingest checked, and its digest
    verified, without the parser, and write the same artifacts."""

    def unused(*args, **kwargs):
        raise AssertionError("parse_tweet_line was called")

    monkeypatch.setattr(sentpop.corpus, "parse_tweet_line", unused)
    monkeypatch.setattr(sentpop.cli, "parse_tweet_line", unused)
    before = {p.name: p.read_bytes() for p in pipeline_dir.iterdir()}
    for stage in ("graph", "topics", "sentiment"):
        assert run(*pipeline_argv(pipeline_dir)[stage]) == 0, stage
    assert {p.name: p.read_bytes() for p in pipeline_dir.iterdir()} == before


@pytest.mark.parametrize("stage, argv", [
    ("sentiment", ("sentiment",)),
    ("evaluate:linear", ("evaluate", "--predictor", "linear")),
    ("evaluate:edge", ("evaluate", "--predictor", "edge")),
])
def test_stage_digests_each_file_once(pipeline_dir, monkeypatch, stage, argv):
    """The digest a stage records for an input is the one it verified."""
    digested: dict[str, int] = {}
    real = sentpop.manifest.file_digest

    def counting(path):
        key = str(Path(path).resolve())
        digested[key] = digested.get(key, 0) + 1
        return real(path)

    monkeypatch.setattr(sentpop.manifest, "file_digest", counting)
    monkeypatch.setattr(sentpop.cli, "file_digest", counting)
    assert run(argv[0], "--out", pipeline_dir, *argv[1:]) == 0
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    inputs = manifest["stages"][stage]["inputs"]
    assert inputs
    for path in inputs:
        assert digested[str((pipeline_dir / path).resolve())] == 1, path
    assert set(digested.values()) == {1}


@pytest.mark.parametrize("planted", [
    (), ("--planted", "linear"), ("--planted", "edge-weights"),
], ids=["none", "linear", "edge-weights"])
def test_synth_records_the_line_count_of_each_output(tmp_path, planted):
    assert run("synth", "--out", tmp_path, "--seed", "3", "--n-users", "12",
               "--edge-density", "0.3", "--n-topics", "5", *planted) == 0
    outputs = json.loads((tmp_path / "manifest.json").read_text())["stages"]["synth"]["outputs"]
    assert set(outputs) == {"corpus.tsv", "lexicon.tsv", "stopwords.tsv", "expected.tsv"}
    for name, meta in outputs.items():
        assert meta["rows"] == len((tmp_path / name).read_bytes().splitlines()), name


def test_stages_record_the_lexicon_and_split_they_verify(pipeline_dir):
    """Each stage records exactly the files it verifies: the lexicon's snapshot
    for sentiment alone, and each predictor's split file for its evaluate."""
    stages = json.loads((pipeline_dir / "manifest.json").read_text())["stages"]
    recorded_as = {"train": "train:linear", "evaluate": "evaluate:linear"}
    assert {
        stage: set(stages[recorded_as.get(stage, stage)]["inputs"]) for stage in VERIFIED
    } == {stage: set(names) for stage, names in VERIFIED.items()}


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "artifact.tsv"
    target.write_text("old\n")

    def failing(tmp):
        tmp.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(failing, target)
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]
    # a lone surrogate fails to encode after the temp file was opened
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new \ud800")
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]
    assert target.read_text() == "old\n"


def test_sgd_summary_says_how_training_stopped():
    def summary(curve, plateaued, omega_max=0.3, eta=0.001):
        result = TrainResult(LinearModel(0.0, 0.0), omega_max, curve, plateaued)
        return _sgd_summary(result, eta)

    assert summary([3.0, 2.0, 2.0], True) == (
        "3 epochs (plateau at epoch 2), final loss 2, omega_max 0.3"
    )
    assert summary([3.0, 2.0], False) == "2 epochs (epoch cap), final loss 2, omega_max 0.3"
    assert summary([3.0, 8.9e44], False, omega_max=3.9, eta=0.0005) == (
        "2 epochs (epoch cap), final loss 8.9e+44, above the first epoch's 3, omega_max 3.9"
        " (>= 2: steps expand residuals; --eta should be below 2/max(|z|^2+1) = 0.000256)"
    )
    assert summary([3.0, 2.0], False, omega_max=2.0, eta=0.01).endswith(
        "omega_max 2 (>= 2: steps expand residuals; --eta should be below"
        " 2/max(|z|^2+1) = 0.01)"
    )
    assert "steps expand" not in summary([3.0, 2.0], False, omega_max=1.99)


def test_train_reports_how_sgd_stopped(pipeline_dir, capsys):
    assert run("train", "--out", pipeline_dir, "--gaps", "1", "--predictor", "linear",
               "--epochs", "120", "--seed", "7") == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("train: gap 1: ")
    assert "120 epochs (epoch cap)" in line
    assert "above the first epoch's" not in line


def test_train_stops_on_a_plateau_below_the_epoch_cap(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    capsys.readouterr()
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "linear",
               "--epochs", "500", "--seed", "7") == 0
    line = capsys.readouterr().out.strip()
    match = re.search(r"(\d+) epochs \(plateau at epoch (\d+)\)", line)
    assert match, line
    epochs, k = int(match[1]), int(match[2])
    assert epochs == k + 1 < 500
    log = (out / "train_log_linear_gap1.tsv").read_text().splitlines()
    assert len(log) == epochs


_EMPTY_GAPS = "--gaps lists no gap: ','"
_REPEATED_GAP = "--gaps lists gap 1 more than once"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("correlate", "--gaps", ","), _EMPTY_GAPS, id="correlate-empty-gaps"),
    pytest.param(("train", "--gaps", ","), _EMPTY_GAPS, id="train-empty-gaps"),
    pytest.param(("correlate", "--gaps", "1,1"), _REPEATED_GAP, id="correlate-repeated-gap"),
    pytest.param(("correlate", "--gaps", "1,x"), "--gaps lists 'x', which is not an integer",
                 id="correlate-gaps-not-integer"),
    pytest.param(("train", "--gaps", "1,1"), _REPEATED_GAP, id="train-repeated-gap"),
    # warnings are errors under pytest, so an overflow warning would escape main
    pytest.param(("train", "--gaps", "1", "--eta", "1e300"),
                 "loss became non-finite at epoch 0", id="train-eta-1e300"),
])
def test_rejected_stage_exits_1_and_writes_nothing(pipeline_dir, tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(argv[0], "--out", out, *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # the manifest, models and logs of the earlier run are untouched
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_BAD_NOISE = "noise_sigma must be finite and non-negative"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv, message", [
    pytest.param(("synth", "--edge-density", "{}"), "edge_density must be in (0, 1]",
                 id="synth-edge-density"),
    pytest.param(("synth", "--emoticon-rate", "{}"), "emoticon_rate must be in [0, 1]",
                 id="synth-emoticon-rate"),
    pytest.param(("synth", "--planted", "linear", "--alpha", "{}"), "alpha must be finite",
                 id="synth-alpha"),
    pytest.param(("synth", "--planted", "linear", "--beta", "{}"), "beta must be finite",
                 id="synth-beta"),
    pytest.param(("synth", "--planted", "linear", "--noise-sigma", "{}"), _BAD_NOISE,
                 id="synth-linear-noise-sigma"),
    pytest.param(("synth", "--planted", "edge-weights", "--noise-sigma", "{}"), _BAD_NOISE,
                 id="synth-edge-noise-sigma"),
    pytest.param(("synth", "--planted", "edge-weights", "--rho", "{}"), "rho must be finite",
                 id="synth-rho"),
    pytest.param(("synth", "--planted", "edge-weights", "--weight-range", "{},1"),
                 "weight_lo must be finite", id="synth-weight-lo"),
    pytest.param(("synth", "--planted", "edge-weights", "--weight-range", "0.5,{}"),
                 "weight_hi must be finite", id="synth-weight-hi"),
    pytest.param(("train", "--gaps", "1", "--eta", "{}"),
                 "learning_rate must be finite and non-negative", id="train-eta"),
])
def test_non_finite_float_flag_exits_1_and_writes_nothing(
    pipeline_dir, tmp_path, capsys, argv, message, value
):
    # synth starts from an empty directory; train from a finished run, which it must leave
    out = tmp_path / "run"
    if argv[0] == "train":
        shutil.copytree(pipeline_dir, out)
    else:
        out.mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(argv[0], "--out", out, *(a.format(value) for a in argv[1:])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_OVER_CAP = r"planted popularity (\S+e\+30\d|inf|nan) exceeds the cap of 200000 tweets"
_BELOW_1 = r"planted popularity drops below 1 \(min -1(\.\d+)?e\+30[01]\); raise the intercept"
_NEGATIVE_MEAN = r"planted popularity drops below 1 \(min -\d+\.\d+\); raise the intercept"
_LINEAR = ("--planted", "linear")
_EDGE = ("--planted", "edge-weights")


@pytest.mark.parametrize("flags, message", [
    pytest.param((*_LINEAR, "--alpha", "1e300"), _OVER_CAP, id="alpha-1e300"),
    pytest.param((*_LINEAR, "--alpha=1e307"), _OVER_CAP, id="alpha-1e307"),
    pytest.param((*_LINEAR, "--alpha=1e308"), _OVER_CAP, id="alpha-1e308-overflows"),
    pytest.param((*_LINEAR, "--alpha=1e308", "--noise-sigma", "0.5"), _OVER_CAP,
                 id="alpha-1e308-noise-nan"),
    pytest.param((*_LINEAR, "--alpha=-1e300"), _BELOW_1, id="alpha-minus-1e300"),
    pytest.param((*_LINEAR, "--beta=-1e300"), _BELOW_1, id="beta-minus-1e300"),
    # a negative noiseless mean once reached the noise draw as a negative scale
    pytest.param((*_LINEAR, "--alpha", "1", "--beta=-100", "--noise-sigma", "0.5"),
                 _NEGATIVE_MEAN, id="linear-negative-mean-noise"),
    pytest.param((*_EDGE, "--weight-range=-3,-2", "--rho=-50", "--noise-sigma", "0.5"),
                 _NEGATIVE_MEAN, id="edge-negative-mean-noise"),
])
def test_huge_planted_popularity_is_rejected_before_the_cast(tmp_path, capsys, flags, message):
    """Targets past int64 once cast to garbage, with a numpy warning and a wrong minimum."""
    out = tmp_path / "run"
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14", "--edge-density",
               "0.35", "--n-topics", "6", *flags) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (out / "corpus.tsv").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(("ingest", "--corpus", "corpus.tsv", "--lexicon", "lexicon.tsv",
                  "--window", "0,1,2,x"), "--window lists 'x', which is not an integer",
                 id="ingest-window-not-integer"),
    pytest.param(("ingest", "--corpus", "corpus.tsv", "--lexicon", "lexicon.tsv",
                  "--window", "0,,10368000,10368000,15552000"),
                 "--window has an empty item: '0,,10368000,10368000,15552000'",
                 id="ingest-window-empty-item"),
    pytest.param(("ingest", "--corpus", "corpus.tsv", "--lexicon", "lexicon.tsv",
                  "--window", "10,20,30"),
                 "--window needs train_start,train_end,test_start,test_end",
                 id="ingest-window-three-items"),
    pytest.param(("train", "--gaps", "1,,10"), "--gaps has an empty item: '1,,10'",
                 id="train-gaps-empty-item"),
    # int() reads each of these; a flag's integer is spelled as a corpus timestamp is
    pytest.param(("train", "--gaps", "1_0"), "--gaps lists '1_0', which is not an integer",
                 id="train-gaps-underscore"),
    pytest.param(("ingest", "--corpus", "corpus.tsv", "--lexicon", "lexicon.tsv",
                  "--window", "0,1_000,10368000,15552000"),
                 "--window lists '1_000', which is not an integer", id="ingest-window-underscore"),
    pytest.param(("correlate", "--gaps", " +2,\u0663"),
                 "--gaps lists ' +2', which is not an integer", id="correlate-gaps-plus-and-digit"),
    pytest.param(("synth", "--planted", "edge-weights", "--weight-range", "1"),
                 "--weight-range needs lo,hi: '1'", id="synth-weight-range-one-value"),
])
def test_malformed_list_flag_exits_1_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(argv[0], "--out", out, *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``sentpop`` line in the README's bash blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sentpop"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    pytest.param(("train", "--gaps", "1,100000", "--seed", "8"),
                 "gap 100000 leaves 1 of 12 topics; train needs 4, so that it holds out 2 "
                 "to evaluate", id="train-gap-with-one-topic"),
    # gaps 6, 9 and 14 keep 4, 3 and 2 of the 12 topics
    pytest.param(("train", "--gaps", "6,9", "--seed", "8"),
                 "gap 9 leaves 3 of 12 topics; train needs 4, so that it holds out 2 "
                 "to evaluate", id="train-gap-with-three-topics"),
    pytest.param(("train", "--gaps", "6,14", "--seed", "8"),
                 "gap 14 leaves 2 of 12 topics; train needs 4, so that it holds out 2 "
                 "to evaluate", id="train-gap-with-two-topics"),
    pytest.param(("correlate", "--gaps", "9,14"),
                 "gap 14 leaves 2 of 12 topics; a correlation needs 3",
                 id="correlate-gap-with-two-topics"),
    pytest.param(("train", "--gaps", "1,0", "--seed", "8"),
                 "gap must be a positive integer", id="train-gap-0"),
])
def test_a_failing_later_gap_leaves_the_earlier_gaps_files(
    pipeline_dir, tmp_path, capsys, argv, message
):
    # every gap runs before any file is written, so gap 1's model and log
    # from another seed cannot replace the earlier run's
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(argv[0], "--out", out, *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert run("evaluate", "--out", out, "--predictor", "linear") == 0


def test_each_recorded_output_has_as_many_rows_as_lines(pipeline_dir):
    stages = json.loads((pipeline_dir / "manifest.json").read_text())["stages"]
    for stage, entry in stages.items():
        for name, meta in entry["outputs"].items():
            lines = (pipeline_dir / name).read_bytes().count(b"\n")
            assert meta["rows"] == lines, (stage, name)


def test_topics_without_key_phrases_exits_1_and_writes_no_catalog(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    (out / "catalog.tsv").unlink()
    capsys.readouterr()
    assert run(*pipeline_argv(out)["topics"], "--m", "0") == 1
    assert capsys.readouterr().err == "error: m must be >= 1, got 0\n"
    assert not (out / "catalog.tsv").exists()


def test_stale_artifact_detected(pipeline_dir, capsys):
    vectors = pipeline_dir / "vectors.tsv"
    original = vectors.read_bytes()
    try:
        vectors.write_bytes(original + b"tampered\tx\t0.5\n")
        assert run("energy", "--out", pipeline_dir) == 1
        err = capsys.readouterr().err
        assert "stale" in err and "vectors.tsv" in err
    finally:
        vectors.write_bytes(original)
        assert run("energy", "--out", pipeline_dir) == 0


def test_edited_own_lexicon_and_stopwords_are_taken_after_a_rerun(tmp_path, capsys):
    """Only the stage that takes an outside file reads it: an edited lexicon
    counts from the next ingest on, through its snapshot in the run, and user
    stopwords from the next topics; no older record makes those reruns fail."""
    out, own = tmp_path / "run", tmp_path / "own"
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "6",
               "--planted", "linear", "--beta", "150") == 0
    own.mkdir()
    lexicon, stopwords = own / "lexicon.tsv", own / "stopwords.tsv"
    lexicon.write_bytes((out / "lexicon.tsv").read_bytes())
    stopwords.write_bytes((out / "stopwords.tsv").read_bytes())

    def ingest():
        return run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
                   "--lexicon", lexicon, "--window", WINDOW_FLAG)

    def downstream():
        assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 0
        assert run("topics", "--out", out, "--stopwords", stopwords) == 0
        assert run("sentiment", "--out", out) == 0

    assert ingest() == 0
    downstream()
    snapshot = (out / "lexicon_normalized.tsv").read_bytes()
    assert snapshot == lexicon.read_bytes()
    with open(lexicon, "a", encoding="utf-8") as fh:
        fh.write("[brandnew]\tpositive\n")
    # the run keeps its snapshot until ingest runs again
    downstream()
    assert (out / "lexicon_normalized.tsv").read_bytes() == snapshot
    assert ingest() == 0
    capsys.readouterr()
    assert run("energy", "--out", out) == 1
    err = capsys.readouterr().err
    assert "stale" in err and "lexicon_normalized.tsv" in err, err
    assert err.rstrip().endswith("rerun sentiment"), err
    downstream()
    # the same entries, reordered and with a blank line, leave the snapshot as it was
    snapshot = (out / "lexicon_normalized.tsv").read_bytes()
    lexicon.write_bytes(b"\n".join(reversed(lexicon.read_bytes().splitlines())) + b"\n\n")
    assert ingest() == 0
    assert (out / "lexicon_normalized.tsv").read_bytes() == snapshot
    assert run("energy", "--out", out) == 0
    with open(stopwords, "a", encoding="utf-8") as fh:
        fh.write("zzzz\n")
    assert run("topics", "--out", out, "--stopwords", stopwords) == 0


def test_stale_or_missing_artifact_names_the_stage_to_rerun(pipeline_dir, tmp_path, capsys):
    """The ending is a command to type: a stage run per predictor gets ``--predictor``."""
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    (out / "model_edge_gap1.tsv").unlink()
    capsys.readouterr()
    assert run(*pipeline_argv(out)["evaluate:edge"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("model_edge_gap1.tsv is missing; rerun train --predictor edge\n"), err
    for argv in (pipeline_argv(out)["topics"] + ("--m", "5"), ("sentiment", "--out", out),
                 ("energy", "--out", out)):
        assert run(*argv) == 0, argv[0]
    capsys.readouterr()
    assert run(*pipeline_argv(out)["evaluate"]) == 1
    err = capsys.readouterr().err
    assert "read catalog.tsv" in err and err.endswith("; rerun train --predictor linear\n"), err
    with open(out / "community.tsv", "a", encoding="utf-8") as fh:
        fh.write("u00001\tu00002\n")
    capsys.readouterr()
    assert run(*pipeline_argv(out)["sentiment"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stale upstream artifact") and err.endswith("; rerun graph\n")
    (out / "corpus_normalized.tsv").unlink()
    assert run(*pipeline_argv(out)["topics"]) == 1
    assert capsys.readouterr().err.endswith("corpus_normalized.tsv is missing; rerun ingest\n")


def test_missing_upstream_stage_fails(tmp_path, capsys):
    assert run("graph", "--out", tmp_path / "fresh", "--seed-user", "u0") == 1
    assert "stage 'ingest' has not been run yet" in capsys.readouterr().err


def test_edge_predictor_roundtrip(tmp_path):
    out = tmp_path / "edgerun"
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "14",
               "--planted", "edge-weights", "--weight-range", "0.5,2.0",
               "--rho", "120", "--noise-sigma", "0.02") == 0
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG) == 0
    assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv") == 0
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "edge",
               "--epochs", "150", "--seed", "3") == 0
    assert run("evaluate", "--out", out, "--predictor", "edge") == 0
    model = load_model(out / "model_edge_gap1.tsv")
    community_rows = (out / "community.tsv").read_text().splitlines()
    assert len(model.edges) == len(community_rows)


def test_predictors_trained_on_different_gaps_both_evaluate(tmp_path):
    """Each predictor keeps its own split file, so a later train of the other
    predictor with other gaps leaves the first one's split verifiable."""
    out = tmp_path / "twosplits"
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "14",
               "--planted", "linear", "--beta", "150") == 0
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG) == 0
    assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv") == 0
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("train", "--out", out, "--gaps", "1,2", "--predictor", "linear",
               "--epochs", "50") == 0
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "edge",
               "--epochs", "50", "--eta", "0.001") == 0
    assert run("evaluate", "--out", out, "--predictor", "edge") == 0
    assert run("evaluate", "--out", out, "--predictor", "linear") == 0
    rows = (out / "evaluation_linear.tsv").read_text().splitlines()
    assert [row.split("\t")[0] for row in rows] == ["1", "2"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# Every value a user can set, by command; "--out" and "-h" aside. A new option
# must be added here too.
_SETTABLE = {
    "synth": {"--seed", "--n-users", "--edge-density", "--n-topics", "--m",
              "--emoticon-rate", "--tweets-per-user", "--max-depth", "--planted",
              "--alpha", "--beta", "--rho", "--weight-range", "--noise-sigma"},
    "ingest": {"--corpus", "--lexicon", "--window"},
    "graph": {"--seed-user", "--max-depth"},
    "topics": {"--stopwords", "--m", "--min-popularity"},
    "sentiment": set(),
    "energy": set(),
    "correlate": {"--gaps"},
    "train": {"--gaps", "--predictor", "--function", "--eta", "--epochs", "--seed"},
    "evaluate": {"--predictor"},
}


def test_settable_values_are_the_documented_set(capsys):
    parser = sentpop.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(_SETTABLE)
    for name, command in commands.items():
        options = {o for a in command._actions for o in a.option_strings}
        assert options - {"-h", "--help", "--out"} == _SETTABLE[name], name
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    assert fields == ["learning_rate", "epochs", "rng_seed", "stop_tol"]
    for argv in (("train", "--gaps", "1", "--l2", "0.1"), ("evaluate", "--gaps", "1"),
                 ("topics", "--stopwords", "x", "--first-month-end", "1")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _sites(match) -> set[tuple[str, str]]:
    """(file, innermost def or class, dotted) of every node of the package ``match`` accepts."""
    found = set()

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add((file, ".".join(scope) or "<module>"))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, file, (*scope, child.name) if named else scope)

    for path in sorted(Path(sentpop.cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    return found


def _calls_of(name: str) -> set[tuple[str, str]]:
    """The sites of every call of the function or method ``name`` in the package."""
    return _sites(lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def test_only_main_records_a_stage():
    # main resolves, runs and records every command; no command body touches the manifest
    assert _calls_of("record") == {("cli.py", "main")}
    assert _calls_of("record_stage") == {("cli.py", "Stage.record")}


def test_each_upstream_input_has_one_reader():
    assert _calls_of("load_energy_report") == {("cli.py", "Stage.energies")}
    # ingest builds the window from its flag; every later stage from ingest's record
    assert {site for site in _calls_of("CorpusWindow") if site[0] == "cli.py"} == {
        ("cli.py", "cmd_ingest"), ("cli.py", "_recorded_window")
    }
    indexes_config = _sites(lambda node: isinstance(node, ast.Subscript)
                            and isinstance(node.slice, ast.Constant)
                            and node.slice.value == "config")
    assert indexes_config == {("manifest.py", "RunManifest.recorded")}


def test_the_stage_runner_has_one_entry_per_subcommand():
    parser = sentpop.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(sentpop.cli._COMMANDS) == set(commands)
    # main takes each command's body from its entry, not from the parsed flags
    assert {c for c, sub in commands.items() if sub.get_default("func") is not None} == set()
    for command, (_, _, body) in sentpop.cli._COMMANDS.items():
        assert body is getattr(sentpop.cli, f"cmd_{command}"), command
    # and binds the modules the entry lists: no command imports one itself
    imports = _sites(lambda node: isinstance(node, (ast.Import, ast.ImportFrom)))
    assert {site for site in imports if site[0] == "cli.py"} == {("cli.py", "<module>")}


def _run_through_topics(out, max_depth=3):
    """synth, ingest, graph and topics on a small corpus under ``out``."""
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "6",
               "--planted", "linear", "--beta", "150") == 0
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG) == 0
    assert run("graph", "--out", out, "--seed-user", "u00000",
               "--max-depth", max_depth) == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv") == 0


def _edit_catalog(out):
    catalog = out / "catalog.tsv"
    catalog.write_bytes(catalog.read_bytes().replace(b"\t", b"\t9", 1))


def _run_every_stage(out):
    """synth and every analysis stage on the small corpus of ``_run_through_topics``."""
    _run_through_topics(out)
    for stage, argv in pipeline_argv(out).items():
        if stage not in ("ingest", "graph", "topics"):
            assert run(*argv) == 0, stage


def _stage_finds_its_records(stage, spelling, capsys):
    """Run ``stage`` with ``--out`` spelled ``spelling``: it passes as is, and an
    edit to the last file it verifies stops it naming that file."""
    argv = list(pipeline_argv(Path("rel"))[stage])
    argv[2] = spelling
    assert run(*argv) == 0, (stage, spelling)
    path = Path("rel") / VERIFIED[stage][-1]
    original = path.read_bytes()
    try:
        path.write_bytes(original + b"\n")
        capsys.readouterr()
        assert run(*argv) == 1, (stage, spelling)
        err = capsys.readouterr().err
        assert "stale" in err and path.name in err, (stage, spelling, err)
    finally:
        path.write_bytes(original)


def test_stale_artifact_detected_however_out_is_spelled(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = Path("rel")
    _run_every_stage(out)
    for stage in pipeline_argv(out):
        for spelling in ("rel", "./rel", str(tmp_path / "rel"), "rel/../rel"):
            _stage_finds_its_records(stage, spelling, capsys)
    _edit_catalog(out)
    for spelling in ("rel", "./rel", str(tmp_path / "rel"), "rel/../rel"):
        capsys.readouterr()
        assert run("sentiment", "--out", spelling) == 1, spelling
        err = capsys.readouterr().err
        assert "stale" in err and "catalog.tsv" in err, spelling


def test_moved_run_directory_keeps_its_records(tmp_path, monkeypatch, capsys):
    (tmp_path / "proj").mkdir()
    monkeypatch.chdir(tmp_path / "proj")
    _run_every_stage(Path("rel"))
    (tmp_path / "proj").rename(tmp_path / "proj2")
    monkeypatch.chdir(tmp_path / "proj2")
    # last stage first, so each stage reads records written before the move,
    # not ones an upstream stage rewrote after it
    for stage in reversed(list(pipeline_argv(Path("rel")))):
        _stage_finds_its_records(stage, "rel", capsys)
    _edit_catalog(Path("rel"))
    capsys.readouterr()
    assert run("energy", "--out", "rel") == 1
    err = capsys.readouterr().err
    assert "stale" in err and "catalog.tsv" in err


def test_required_artifact_without_a_record_fails(tmp_path, capsys):
    out = tmp_path / "run"
    _run_through_topics(out)
    manifest_path = out / "manifest.json"
    data = json.loads(manifest_path.read_text())
    # a record under a key that does not name the file, as in a manifest that
    # spelled its keys differently
    outputs = data["stages"]["topics"]["outputs"]
    outputs["elsewhere/catalog.tsv"] = outputs.pop("catalog.tsv")
    manifest_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("sentiment", "--out", out) == 1
    err = capsys.readouterr().err
    assert "catalog.tsv has no record" in err


def test_rerun_upstream_stage_makes_downstream_artifacts_stale(tmp_path, capsys):
    """energies.tsv and vectors.tsv built from a catalog that topics has since
    rewritten are stale, though each still matches its own record. The linear
    predictor reads energies.tsv and the edge predictor vectors.tsv."""
    out = tmp_path / "run"
    _run_through_topics(out)
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv", "--m", "5") == 0
    capsys.readouterr()
    assert run("correlate", "--out", out, "--gaps", "1") == 1
    err = capsys.readouterr().err
    assert "stale" in err and "energies.tsv" in err and "catalog.tsv" in err, err
    assert err.rstrip().endswith("rerun energy"), err
    assert run("train", "--out", out, "--gaps", "1") == 1
    err = capsys.readouterr().err
    assert "energies.tsv" in err and err.rstrip().endswith("rerun energy"), err
    edge = ("train", "--out", out, "--gaps", "1", "--predictor", "edge", "--eta", "0.001")
    assert run(*edge) == 1
    err = capsys.readouterr().err
    assert "vectors.tsv" in err and err.rstrip().endswith("rerun sentiment"), err
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("correlate", "--out", out, "--gaps", "1") == 0
    assert run("train", "--out", out, "--gaps", "1") == 0
    assert run(*edge) == 0


def _outside_readers(stages) -> dict[str, list[str]]:
    """The stages that read each input no analysis stage wrote, by manifest key.

    synth stands in for the user: the corpus, lexicon and stopwords it wrote
    come from outside the analysis, as the user's own files would.
    """
    written = {key for name, entry in stages.items() if name != "synth"
               for key in entry["outputs"]}
    readers: dict[str, list[str]] = {}
    for name, entry in stages.items():
        for key in entry["inputs"]:
            if key not in written:
                readers.setdefault(key, []).append(name)
    return readers


def test_each_file_from_outside_the_run_is_read_by_one_stage(pipeline_dir):
    stages = json.loads((pipeline_dir / "manifest.json").read_text())["stages"]
    assert _outside_readers(stages) == {
        "corpus.tsv": ["ingest"], "lexicon.tsv": ["ingest"], "stopwords.tsv": ["topics"],
    }


def test_ingest_with_a_swapped_lexicon_makes_its_readers_stale(tmp_path, capsys):
    """The corpus normalizes the same under any lexicon; the lexicon's
    snapshot in the run is what changes, and sentiment, its one reader, is
    stale while graph and topics stay fresh. One positive and one negative
    token swap: a swap of them all would negate every vector and leave every
    energy as it was, since both energy functions ignore the sign."""
    out = tmp_path / "run"
    _run_every_stage(out)
    energies = (out / "energies.tsv").read_bytes()
    lines = (out / "lexicon.tsv").read_text().replace("[n0]\tnegative", "[n0]\tpositive")
    swapped = tmp_path / "swapped.tsv"
    swapped.write_text(lines.replace("[p0]\tpositive", "[p0]\tnegative"))
    normalized = (out / "corpus_normalized.tsv").read_bytes()
    before = json.loads((out / "manifest.json").read_text())["stages"]
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", swapped, "--window", WINDOW_FLAG) == 0
    assert (out / "corpus_normalized.tsv").read_bytes() == normalized
    edge = ("train", "--out", out, "--gaps", "1", "--predictor", "edge", "--eta", "0.001")
    for argv in (("energy", "--out", out), edge):
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert "stale" in err and "lexicon_normalized.tsv" in err, err
        assert err.rstrip().endswith("rerun sentiment"), err
    # graph and topics are not rerun: the community and catalog they wrote are fresh
    assert run(*pipeline_argv(out)["sentiment"]) == 0
    assert run("energy", "--out", out) == 0
    assert (out / "energies.tsv").read_bytes() != energies
    assert run(*edge) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert _outside_readers(stages)[str(swapped.resolve())] == ["ingest"]
    for name in ("graph", "topics"):
        assert stages[name] == before[name], name


def _keep_energy_rows(out, keep):
    """Keep the energies.tsv rows that ``keep`` accepts, under a record of the result."""
    energies = out / "energies.tsv"
    lines = [line for line in energies.read_text().splitlines(keepends=True) if keep(line)]
    energies.write_text("".join(lines))
    manifest_path = out / "manifest.json"
    data = json.loads(manifest_path.read_text())
    data["stages"]["energy"]["outputs"]["energies.tsv"] = {
        "digest": sentpop.manifest.file_digest(energies), "rows": len(lines)
    }
    manifest_path.write_text(json.dumps(data))


def _error_of(out, argv, capsys) -> str:
    """What ``argv`` printed to stderr; it must exit 1 and leave ``out`` byte-unchanged."""
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(*argv) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    return capsys.readouterr().err


def test_linear_train_without_the_mrf_row_of_its_function_exits_1_and_writes_nothing(
    tmp_path, capsys
):
    out = tmp_path / "run"
    _run_through_topics(out)
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    # as an energy run restricted to avglen left it, under the record it wrote
    _keep_energy_rows(out, lambda line: "\tmrf\tcosine\t" not in line)
    first = (out / "catalog.tsv").read_text().split("\t", 1)[0]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "linear") == 1
    assert capsys.readouterr().err == (
        f"error: energies.tsv has no mrf/cosine row for topic {first!r}; rerun energy\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "linear",
               "--function", "avglen") == 0


@pytest.mark.parametrize("last_only", [
    pytest.param(False, id="every-mrf-avglen-row"),
    pytest.param(True, id="one-mrf-avglen-row"),
])
def test_correlate_on_an_incomplete_energy_report_exits_1_and_writes_nothing(
    pipeline_dir, tmp_path, capsys, last_only
):
    # the first once wrote the other pairs' rows and exited 0, the second raised KeyError
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    tags = [line.split("\t", 1)[0] for line in (out / "catalog.tsv").read_text().splitlines()]
    missing = tags[-1:] if last_only else tags
    _keep_energy_rows(out, lambda line: line.split("\t")[:3] not in [
        [tag, "mrf", "avglen"] for tag in missing
    ])
    assert _error_of(out, ("correlate", "--out", out, "--gaps", "1"), capsys) == (
        f"error: energies.tsv has no mrf/avglen row for topic {missing[0]!r}; rerun energy\n"
    )


def test_stages_recorded_from_stale_manifests_keep_both_entries(tmp_path):
    """Each record re-reads the manifest, so a concurrent stage's entry survives."""
    path = tmp_path / "manifest.json"
    first = sentpop.manifest.RunManifest.load(path, version="v")
    second = sentpop.manifest.RunManifest.load(path, version="v")
    first.record_stage("train:linear", {"predictor": "linear"}, {}, {})
    second.record_stage("train:edge", {"predictor": "edge"}, {}, {})
    stages = json.loads(path.read_text())["stages"]
    assert sorted(stages) == ["train:edge", "train:linear"]
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_stages_recording_in_parallel_keep_every_entry(tmp_path):
    code = (
        "import sys; from sentpop.manifest import RunManifest\n"
        "for i in range(25):\n"
        "    m = RunManifest.load(sys.argv[1])\n"
        "    m.record_stage(f'{sys.argv[2]}:{i}', {}, {}, {})\n"
    )
    src = str(Path(sentpop.cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen([sys.executable, "-c", code, tmp_path / "manifest.json", f"w{w}"],
                         env={**os.environ, "PYTHONPATH": src})
        for w in range(4)
    ]
    assert [p.wait(timeout=60) for p in procs] == [0] * 4
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert len(stages) == 100


def test_moved_project_with_its_own_lexicon_needs_no_ingest_rerun(tmp_path, monkeypatch):
    """Later stages read the lexicon's snapshot in the run, which moves with it."""
    (tmp_path / "proj").mkdir()
    monkeypatch.chdir(tmp_path / "proj")
    out = Path("rel")
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "6") == 0
    Path("own").mkdir()
    Path("own/lexicon.tsv").write_bytes((out / "lexicon.tsv").read_bytes())

    def ingest():
        return run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
                   "--lexicon", "own/lexicon.tsv", "--window", WINDOW_FLAG)

    assert ingest() == 0
    (tmp_path / "proj").rename(tmp_path / "proj2")
    monkeypatch.chdir(tmp_path / "proj2")
    assert run("graph", "--out", out, "--seed-user", "u00000") == 0
    # ingest, rerun from the moved project, takes the lexicon again
    assert ingest() == 0
    assert run("graph", "--out", out, "--seed-user", "u00000") == 0


def test_later_stages_find_the_lexicon_from_any_directory(tmp_path, monkeypatch):
    """Later stages read the lexicon's snapshot in the run; ingest records
    ``--lexicon`` as given, like ``--corpus``."""
    proj = tmp_path / "proj"
    proj.mkdir()
    monkeypatch.chdir(proj)
    assert run("synth", "--out", "syn", "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "6") == 0
    assert run("ingest", "--out", "run", "--corpus", "syn/corpus.tsv",
               "--lexicon", "syn/lexicon.tsv", "--window", WINDOW_FLAG) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert run("graph", "--out", proj / "run", "--seed-user", "u00000") == 0
    assert run("topics", "--out", proj / "run", "--stopwords", proj / "syn/stopwords.tsv") == 0
    assert run("sentiment", "--out", proj / "run") == 0
    stages = json.loads((proj / "run/manifest.json").read_text())["stages"]
    assert stages["ingest"]["config"]["lexicon"] == "syn/lexicon.tsv"
    assert (proj / "run/lexicon_normalized.tsv").read_bytes() == (
        proj / "syn/lexicon.tsv"
    ).read_bytes()


def test_evaluate_flags_a_model_worse_than_predicting_the_mean(tmp_path, capsys):
    out = tmp_path / "run"
    _run_through_topics(out)
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    verdict = " (worse than predicting the mean)"
    # --eta 0 takes no SGD step: the model predicts 0, far below every popularity
    for eta, flagged in (("0", True), ("0.01", False)):
        assert run("train", "--out", out, "--gaps", "1", "--eta", eta, "--epochs", "300") == 0
        capsys.readouterr()
        assert run("evaluate", "--out", out) == 0
        printed = capsys.readouterr().out
        row = (out / "evaluation_linear.tsv").read_text()
        gap, kind, rse = row.rstrip("\n").split("\t")
        assert (float(rse) > 1.0) == flagged, row
        assert printed.rstrip("\n").endswith(verdict) == flagged, printed


def test_edge_predictor_trains_on_a_community_without_edges(tmp_path):
    out = tmp_path / "run"
    _run_through_topics(out, max_depth=0)
    assert (out / "community.tsv").read_text() == ""
    assert run("sentiment", "--out", out) == 0
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "edge",
               "--epochs", "20") == 0
    assert run("evaluate", "--out", out, "--predictor", "edge") == 0


def _not_yet_run(stage, command):
    return f"stage {stage!r} has not been run yet (no manifest entry); run {command}"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("evaluate", "--predictor", "linear"),
                 _not_yet_run("train:linear", "train --predictor linear"),
                 id="evaluate-linear-before-train"),
    pytest.param(("evaluate", "--predictor", "edge"),
                 _not_yet_run("train:edge", "train --predictor edge"),
                 id="evaluate-edge-before-train"),
])
def test_failed_resolve_leaves_out_byte_unchanged(tmp_path, capsys, argv, message):
    """main resolves a command's recorded values before the command runs."""
    out = tmp_path / "run"
    _run_through_topics(out)
    for stage in ("sentiment", "energy"):
        assert run(stage, "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(argv[0], "--out", out, *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _without_a_digest(text: str) -> str:
    data = json.loads(text)
    del data["stages"]["ingest"]["outputs"]["corpus_normalized.tsv"]["digest"]
    return json.dumps(data)


def _with_a_numeric_config_digest(text: str) -> str:
    data = json.loads(text)
    data["stages"]["train:edge"]["config_digest"] = 0
    return json.dumps(data)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: "{}", id="no-stages"),
    pytest.param(lambda text: '{"stages": {"ingest": {}}}', id="empty-stage"),
    pytest.param(_without_a_digest, id="output-without-digest"),
    pytest.param(_with_a_numeric_config_digest, id="numeric-config-digest"),
    pytest.param(lambda text: "[]", id="list"),
    pytest.param(lambda text: '{"stages": []}', id="stages-list"),
    pytest.param(lambda text: "null", id="null"),
    pytest.param(lambda text: text[:-10], id="truncated"),
])
def test_malformed_manifest_exits_1_naming_it(pipeline_dir, tmp_path, capsys, edit):
    # these once raised KeyError, TypeError or AttributeError, and null read as no stages
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    manifest = out / "manifest.json"
    manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(*pipeline_argv(out)["graph"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} is not a run manifest: ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_DELETED = object()
_W = SYNTH_WINDOW

# config keys, the stage that records each and a command that reads that stage's config
_READ_KEYS = [
    ("ingest", "window", "graph"),
    ("graph", "seed_user", "sentiment"),
    ("graph", "max_depth", "energy"),
    ("train:linear", "gaps", "evaluate"),
    ("train:linear", "function", "evaluate"),
]


@pytest.mark.parametrize("stage, key, value, command", [
    *(pytest.param(stage, key, value, command, id=f"{key}-{name}-{command}")
      for stage, key, command in _READ_KEYS
      for name, value in (("deleted", _DELETED), ("null", None), ("x", "x"))),
    # edits of the right type were once used silently
    pytest.param("train:linear", "function", "avglen", "evaluate", id="function-avglen-evaluate"),
    pytest.param("ingest", "window", [_W.train_start, _W.train_end, _W.test_start,
                                      _W.test_start + (_W.test_end - _W.test_start) // 4],
                 "topics", id="window-quartered-topics"),
])
def test_hand_edited_config_exits_1_naming_its_stage(pipeline_dir, tmp_path, capsys, stage, key,
                                                     value, command):
    # these once raised KeyError or TypeError, or ran on the edited value
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    manifest = out / "manifest.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    config = data["stages"][stage]["config"]
    if value is _DELETED:
        del config[key]
    else:
        config[key] = value
    manifest.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(*pipeline_argv(out)[command]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: the config of stage {stage!r} no longer matches its recorded "
        f"config_digest; rerun {sentpop.manifest._command(stage)}\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# each recorded value a later command reads: stage, key, a reading command, a wrong-typed value
_RECORDED = [
    ("ingest", "window", "graph", ["a", "b", "c", "d"]),
    ("graph", "seed_user", "sentiment", 7),
    ("train:linear", "gaps", "evaluate", ["1"]),
    ("train:linear", "function", "evaluate", 7),
]


@pytest.mark.parametrize("stage, key, command, value", [
    *(pytest.param(stage, key, command, value, id=f"{key}-{name}")
      for stage, key, command, wrong in _RECORDED
      for name, value in (("deleted", _DELETED), ("null", None), ("x", "x"),
                          ("wrong-type", wrong))),
    # each gap is one dataset: evaluate once scored a repeated gap twice
    pytest.param("train:linear", "gaps", "evaluate", [1, 1], id="gaps-repeated"),
])
def test_invalid_recorded_value_exits_1_naming_its_key(pipeline_dir, tmp_path, capsys, stage,
                                                       key, command, value):
    # under a recomputed config digest, most of these once raised a traceback or named no key
    out = tmp_path / "run"
    shutil.copytree(pipeline_dir, out)
    manifest = out / "manifest.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    entry = data["stages"][stage]
    if value is _DELETED:
        del entry["config"][key]
    else:
        entry["config"][key] = value
    entry["config_digest"] = sentpop.manifest.config_digest(entry["config"])
    manifest.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    err = _error_of(out, pipeline_argv(out)[command], capsys)
    if (key, value) == ("seed_user", "x"):
        # a well-formed seed is checked against the community it seeded
        assert err == f"error: {out / 'community.tsv'}: seed user 'x' is on none of its edges\n"
    else:
        assert err == (
            f"error: {manifest}: stage {stage!r} recorded no valid {key!r}; "
            f"rerun {sentpop.manifest._command(stage)}\n"
        )


_LEXICON_TEXT = "[smile]\tpositive\n[cry]\tnegative\n"


def _ingest_text(tmp_path, name, corpus: bytes, lexicon_text=_LEXICON_TEXT, window=WINDOW_FLAG):
    """Run ingest on ``corpus`` and ``lexicon_text`` into ``tmp_path/name``; return its exit."""
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(corpus)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(lexicon_text, encoding="utf-8")
    return run("ingest", "--out", tmp_path / name, "--corpus", path,
               "--lexicon", lexicon, "--window", window)


def _corpus_lines(*texts) -> bytes:
    ts = SYNTH_WINDOW.train_start
    return "".join(
        f"t{i}\tu{i % 2}\t{ts + i}\t-\t{text}\n" for i, text in enumerate(texts)
    ).encode("utf-8")


def test_ingest_rejects_duplicate_tweet_ids(tmp_path, capsys):
    ts = SYNTH_WINDOW.train_start
    corpus = f"17\tana\t{ts}\t-\thello [smile]\n17\tbo\t{ts + 1}\t-\tagain\n".encode()
    assert _ingest_text(tmp_path, "dup", corpus) == 1
    err = capsys.readouterr().err
    assert "line 2: duplicate tweet id '17', first on line 1" in err
    assert not (tmp_path / "dup" / "corpus_normalized.tsv").exists()


def test_ingest_drops_and_counts_the_tweets_outside_its_window(tmp_path, capsys):
    lines = [f"t{ts}\tana\t{ts}\t-\tat {ts}\n" for ts in (5, 15, 25, 35, 99)]
    assert _ingest_text(tmp_path, "w", "".join(lines).encode(), window="10,20,30,40") == 0
    assert capsys.readouterr().out.startswith("ingest: kept 2 tweets (3 outside window) -> ")
    assert (tmp_path / "w" / "corpus_normalized.tsv").read_text() == lines[1] + lines[3]


def test_ingest_rejects_a_duplicate_of_a_tweet_outside_its_window(tmp_path, capsys):
    corpus = b"a\tana\t5\t-\tearly\nb\tana\t15\t-\tin\na\tbo\t15\t-\tagain\n"
    assert _ingest_text(tmp_path, "dup", corpus, window="10,20,30,40") == 1
    assert "line 3: duplicate tweet id 'a', first on line 1" in capsys.readouterr().err


def test_ingest_reads_a_corpus_with_a_byte_order_mark_like_its_twin(tmp_path, capsys):
    # the mark once stayed in the first id, so "a" on lines 1 and 3 did not clash
    dup = "a\tana\t15\t-\tin\nb\tana\t16\t-\tin\na\tbo\t17\t-\tagain\n"
    assert _ingest_text(tmp_path, "dup", dup.encode("utf-8-sig"), window="10,20,30,40") == 1
    assert "line 3: duplicate tweet id 'a', first on line 1" in capsys.readouterr().err
    twin = dup.replace("a\tbo", "c\tbo")
    for name, encoding in (("marked", "utf-8-sig"), ("plain", "utf-8")):
        assert _ingest_text(tmp_path, name, twin.encode(encoding), window="10,20,30,40") == 0
    marked, plain = (tmp_path / n / "corpus_normalized.tsv" for n in ("marked", "plain"))
    assert marked.read_bytes() == plain.read_bytes() == twin.encode()


def test_ingest_reports_a_lone_carriage_return_at_its_line(tmp_path, capsys):
    corpus = _corpus_lines("one", "two", "th\rree", "four")
    assert _ingest_text(tmp_path, "cr", corpus) == 1
    assert "line 3: carriage return inside the record" in capsys.readouterr().err


def test_ingest_names_the_file_and_line_of_a_lexicon_byte_that_is_not_utf8(tmp_path, capsys):
    # lines end in "\n" or "\r\n"; a lone "\r" ends none, so the bad byte is on line 2
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(b"[smile]\tpositive\r\n[meh]\tneutral\r[cry]\tneg\xe2tive\n")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(_corpus_lines("one [smile]"))
    assert run("ingest", "--out", tmp_path / "run", "--corpus", corpus,
               "--lexicon", lexicon, "--window", WINDOW_FLAG) == 1
    assert capsys.readouterr().err == (
        f"error: {lexicon}: line 2: not UTF-8: invalid continuation byte (0xe2)\n"
    )
    assert not (tmp_path / "run" / "corpus_normalized.tsv").exists()


# The three files from outside the run, each read by its stage through
# corpus.outside_records: ingest reads the corpus and the lexicon, topics the
# stopwords. Each case varies the "\n" file of _outside_lf_bytes.
_OUTSIDE_ARTIFACTS = {
    "corpus": ("corpus_normalized.tsv", "lexicon_normalized.tsv"),
    "lexicon": ("corpus_normalized.tsv", "lexicon_normalized.tsv"),
    "stopwords": ("catalog.tsv",),
}
_TWINS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "byte-order-mark": lambda data: b"\xef\xbb\xbf" + data,
    "empty-lines": lambda data: b"\n" + data.replace(b"\n", b"\n\r\n\n", 1),
}
# per fault: the file's bytes with it, the line it names, and what it says; a "\r"
# that ends the file has no newline after it, so it is inside the last line
_FAULTS = {
    "cr-inside-line-1": (lambda data: data.replace(b"\n", b"\r", 1), lambda data: 1,
                         "carriage return inside the record"),
    "cr-ending-the-file": (lambda data: data[:-1] + b"\r", lambda data: data.count(b"\n"),
                           "carriage return inside the record"),
    "not-utf8-on-line-2": (lambda data: data.replace(b"\n", b"\nx\xffy", 1), lambda data: 2,
                           "not UTF-8: invalid start byte (0xff)"),
}


def _outside_lf_bytes(pipeline_dir, kind) -> bytes:
    """The ``kind`` file that synth wrote. Its stopwords are no key phrase, so the
    first key phrase of each topic comes first: a word misread changes the catalog."""
    data = (pipeline_dir / f"{kind}.tsv").read_bytes()
    if kind == "stopwords":
        rows = (pipeline_dir / "catalog.tsv").read_text().splitlines()
        data = "".join(f"{row.split()[3].split(',')[0]}\n" for row in rows).encode() + data
    return data


def _run_outside_reader(pipeline_dir, out, kind, path):
    """Run ingest, then topics if ``kind`` is stopwords, into ``out``, with ``path`` as
    the ``kind`` file and ``pipeline_dir``'s files as the others; return the exit code."""
    files = {name: pipeline_dir / f"{name}.tsv" for name in _OUTSIDE_ARTIFACTS}
    files[kind] = path
    code = run("ingest", "--out", out, "--corpus", files["corpus"],
               "--lexicon", files["lexicon"], "--window", WINDOW_FLAG)
    if kind == "stopwords":
        assert code == 0
        code = run("topics", "--out", out, "--stopwords", files["stopwords"])
    return code


@pytest.mark.parametrize("twin", _TWINS)
@pytest.mark.parametrize("kind", _OUTSIDE_ARTIFACTS)
def test_an_outside_file_reads_like_its_lf_twin(pipeline_dir, tmp_path, kind, twin):
    lf, path = tmp_path / f"lf_{kind}.tsv", tmp_path / f"{kind}.tsv"
    lf.write_bytes(_outside_lf_bytes(pipeline_dir, kind))
    path.write_bytes(_TWINS[twin](lf.read_bytes()))
    assert _run_outside_reader(pipeline_dir, tmp_path / "lf", kind, lf) == 0
    assert _run_outside_reader(pipeline_dir, tmp_path / "twin", kind, path) == 0
    for name in _OUTSIDE_ARTIFACTS[kind]:
        assert (tmp_path / "twin" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()
    if kind == "stopwords":
        assert (tmp_path / "lf" / "catalog.tsv").read_bytes() != (
            pipeline_dir / "catalog.tsv").read_bytes()


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("kind", _OUTSIDE_ARTIFACTS)
def test_an_outside_file_fault_names_the_file_and_line(pipeline_dir, tmp_path, capsys, kind,
                                                      fault):
    make, line_of, what = _FAULTS[fault]
    lf = _outside_lf_bytes(pipeline_dir, kind)
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(make(lf))
    out = tmp_path / "run"
    capsys.readouterr()
    assert _run_outside_reader(pipeline_dir, out, kind, path) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line_of(lf)}: {what}\n"
    for name in _OUTSIDE_ARTIFACTS[kind]:
        assert not (out / name).exists()


def test_ingest_normalizes_a_crlf_corpus_like_its_lf_twin(tmp_path):
    lf = _corpus_lines("one [smile]", "#tag# two", "@u1 three [cry]")
    assert _ingest_text(tmp_path, "lf", lf) == 0
    assert _ingest_text(tmp_path, "crlf", lf.replace(b"\n", b"\r\n")) == 0
    normalized = tmp_path / "lf" / "corpus_normalized.tsv"
    assert normalized.read_bytes() == lf
    assert (tmp_path / "crlf" / "corpus_normalized.tsv").read_bytes() == lf


@pytest.mark.parametrize("last_line", [
    "bad\tu0\tnot-a-time\t-\tlast",  # malformed
    f"t1\tu1\t{SYNTH_WINDOW.train_start + 9}\t-\tlast",  # repeats the id on line 2
], ids=["malformed", "duplicate-id"])
def test_failed_ingest_rerun_keeps_the_earlier_artifacts(tmp_path, capsys, last_line):
    """ingest writes as it parses; a bad last line still leaves the earlier run
    intact, the lexicon snapshot included, though the rerun's lexicon differs."""
    good = _corpus_lines("one [smile]", "#tag# two", "@u1 three [cry]")
    assert _ingest_text(tmp_path, "run", good) == 0
    out = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"corpus_normalized.tsv", "lexicon_normalized.tsv", "manifest.json"}
    capsys.readouterr()
    swapped = "[smile]\tnegative\n[cry]\tpositive\n"
    assert _ingest_text(tmp_path, "run", good + f"{last_line}\n".encode(), swapped) == 1
    assert "line 4: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_ingest_of_an_edited_synth_corpus_keeps_the_earlier_artifacts(tmp_path, capsys):
    """The inputs are verified after the last line is written and before the rename."""
    out = tmp_path / "run"
    assert run("synth", "--out", out, "--seed", "11", "--n-users", "14",
               "--edge-density", "0.35", "--n-topics", "6") == 0
    argv = pipeline_argv(out)["ingest"]
    assert run(*argv) == 0
    corpus = out / "corpus.tsv"
    corpus.write_bytes(corpus.read_bytes().replace(b"\t-\t", b"\t-\tedited ", 1))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "stale" in err and "corpus.tsv" in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# Runs one stage and prints the peak RSS of this process image. ru_maxrss would
# also count the forking pytest process, whose larger peak a child inherits
# across exec.
_PEAK_RSS_OF_STAGE = """
import re, sys
from sentpop.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_ingest_memory_grows_less_than_its_corpus(tmp_path):
    """Streaming keeps no copy of the corpus text: from 20k to 80k lines of about 75
    bytes the peak RSS grows by less than 2.5 times the added bytes. What still grows
    is the id index of the duplicate check, about 130 bytes a line."""
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("[smile]\tpositive\n[cry]\tnegative\n", encoding="utf-8")
    src = str(Path(sentpop.cli.__file__).resolve().parents[1])
    peak, size = {}, {}
    for n in (20_000, 80_000):
        corpus = tmp_path / f"corpus{n}.tsv"
        with open(corpus, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f"s{i:07d}\tu{i % 500:05d}\t{i % 10**6}\t-\t#t{i % 50:03d}# "
                         f"@u{i % 7:05d} k{i % 97:03d}p01 k{i % 89:03d}p02 w{i % 200:03d} "
                         "[smile] [cry]\n")
        size[n] = corpus.stat().st_size
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_OF_STAGE, "ingest", "--out", tmp_path / f"run{n}",
             "--corpus", corpus, "--lexicon", lexicon, "--window", WINDOW_FLAG],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        peak[n] = 1024 * int(done.stdout.split()[-1])
    growth = peak[80_000] - peak[20_000]
    assert growth < 2.5 * (size[80_000] - size[20_000]), (growth, size)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_sentiment_memory_stays_flat_as_the_train_corpus_grows(tmp_path):
    """sentiment scores the train split as a stream and holds no parsed tweet: from
    4,987 to 16,987 train tweets (20 and 80 per user, 200 users, 40 topics) its peak
    RSS grows by less than 1 MB. Grouping the tweets by user first grew it by 5.8 MB."""
    src = str(Path(sentpop.cli.__file__).resolve().parents[1])
    peak, vectors = {}, {}
    for per_user in (20, 80):
        out = tmp_path / f"run{per_user}"
        assert run("synth", "--out", out, "--seed", "0", "--n-users", "200",
                   "--edge-density", "0.05", "--n-topics", "40",
                   "--tweets-per-user", per_user) == 0
        for stage in ("ingest", "graph", "topics"):
            assert run(*pipeline_argv(out)[stage]) == 0, stage
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_OF_STAGE, "sentiment", "--out", out],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        peak[per_user] = 1024 * int(done.stdout.split()[-1])
        vectors[per_user] = (out / "vectors.tsv").stat().st_size
    assert vectors[20] > 0 and vectors[80] > 0
    assert peak[80] - peak[20] < 1 << 20, peak


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_synth_memory_stays_flat_as_the_train_corpus_grows(tmp_path):
    """synth reads its train split back from the corpus file once, as a stream, and
    holds no line: from 20 to 80 tweets per user (200 users, 40 topics) its peak RSS grows
    by less than 1 MB. Holding the train lines as strings grew it by about 2 MB."""
    src = str(Path(sentpop.cli.__file__).resolve().parents[1])
    peak = {}
    for per_user in (20, 80):
        out = tmp_path / f"run{per_user}"
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_OF_STAGE, "synth", "--out", out, "--seed", "0",
             "--n-users", "200", "--edge-density", "0.05", "--n-topics", "40",
             "--tweets-per-user", str(per_user)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        peak[per_user] = 1024 * int(done.stdout.split()[-1])
    assert peak[80] - peak[20] < 1 << 20, peak


def test_stages_other_than_synth_do_not_import_it():
    code = (
        "import sys, sentpop.cli; "
        "assert 'sentpop.synth' not in sys.modules, 'synth imported'"
    )
    src = str(Path(sentpop.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
