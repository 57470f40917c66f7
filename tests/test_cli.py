"""CLI pipeline tests on a small synthetic corpus."""

import json
from pathlib import Path

import pytest

import sentpop.cli
import sentpop.manifest
from sentpop.cli import _sgd_summary, main
from sentpop.manifest import atomic_write, atomic_write_text
from sentpop.predictor import load_model
from sentpop.synth import SYNTH_WINDOW

WINDOW_FLAG = (
    f"{SYNTH_WINDOW.train_start},{SYNTH_WINDOW.train_end},"
    f"{SYNTH_WINDOW.test_start},{SYNTH_WINDOW.test_end}"
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A fully executed pipeline over a small planted-linear corpus."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--out", out, "--seed", "5", "--n-users", "40",
               "--edge-density", "0.12", "--n-topics", "12",
               "--planted", "linear", "--alpha", "2.0", "--beta", "150",
               "--noise-sigma", "0.02") == 0
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG) == 0
    assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv") == 0
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("correlate", "--out", out, "--gaps", "1,3") == 0
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "linear",
               "--epochs", "120", "--seed", "7") == 0
    assert run("evaluate", "--out", out, "--predictor", "linear") == 0
    return Path(out)


def test_all_artifacts_exist(pipeline_dir):
    for name in [
        "corpus_normalized.tsv", "graph.tsv", "community.tsv", "catalog.tsv",
        "vectors.tsv", "energies.tsv", "correlation.tsv", "splits_linear.tsv",
        "model_linear_gap1.tsv", "train_log_linear_gap1.tsv",
        "evaluation_linear.tsv", "manifest.json",
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
                  "correlate", "train:linear", "evaluate:linear"]:
        assert stage in stages
        assert "config_digest" in stages[stage]
    norm = str(pipeline_dir / "corpus_normalized.tsv")
    assert norm in stages["ingest"]["outputs"]
    assert stages["ingest"]["outputs"][norm]["rows"] > 0


def test_rerun_is_byte_identical(pipeline_dir):
    before = {
        p.name: p.read_bytes()
        for p in pipeline_dir.iterdir()
        if p.suffix == ".tsv"
    }
    out = pipeline_dir
    assert run("ingest", "--out", out, "--corpus", out / "corpus.tsv",
               "--lexicon", out / "lexicon.tsv", "--window", WINDOW_FLAG) == 0
    assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 0
    assert run("topics", "--out", out, "--stopwords", out / "stopwords.tsv") == 0
    assert run("sentiment", "--out", out) == 0
    assert run("energy", "--out", out) == 0
    assert run("correlate", "--out", out, "--gaps", "1,3") == 0
    assert run("train", "--out", out, "--gaps", "1", "--predictor", "linear",
               "--epochs", "120", "--seed", "7") == 0
    assert run("evaluate", "--out", out, "--predictor", "linear") == 0
    after = {
        p.name: p.read_bytes()
        for p in pipeline_dir.iterdir()
        if p.suffix == ".tsv"
    }
    assert before == after


@pytest.mark.parametrize("stage, argv", [
    ("sentiment", ("sentiment",)),
    ("evaluate:linear", ("evaluate", "--predictor", "linear")),
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
        assert digested[str(Path(path).resolve())] == 1, path
    assert set(digested.values()) == {1}


def test_stages_record_the_lexicon_and_split_they_verify(pipeline_dir):
    stages = json.loads((pipeline_dir / "manifest.json").read_text())["stages"]
    lexicon = str(pipeline_dir / "lexicon.tsv")
    for stage in ("graph", "topics", "sentiment"):
        assert lexicon in stages[stage]["inputs"], stage
    assert str(pipeline_dir / "splits_linear.tsv") in stages["evaluate:linear"]["inputs"]


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
    assert _sgd_summary([3.0, 2.0, 2.0], True) == "3 epochs (plateau at epoch 2), final loss 2"
    assert _sgd_summary([3.0, 2.0], False) == "2 epochs (epoch cap), final loss 2"
    assert _sgd_summary([3.0, 8.9e44], False) == (
        "2 epochs (epoch cap), final loss 8.9e+44, above the first epoch's 3"
    )


def test_train_reports_how_sgd_stopped(pipeline_dir, capsys):
    assert run("train", "--out", pipeline_dir, "--gaps", "1", "--predictor", "linear",
               "--epochs", "120", "--seed", "7") == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("train: gap 1: ")
    assert "120 epochs (epoch cap)" in line
    assert "above the first epoch's" not in line


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
    """A lexicon that no stage wrote is checked against ingest's record, and
    user stopwords against none: the later stages' own older records of them
    must not make a rerun of their reader fail forever."""
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
    with open(lexicon, "a", encoding="utf-8") as fh:
        fh.write("[brandnew]\tpositive\n")
    capsys.readouterr()
    assert run("graph", "--out", out, "--seed-user", "u00000", "--max-depth", "3") == 1
    err = capsys.readouterr().err
    assert "stale" in err and str(lexicon) in err
    assert ingest() == 0
    downstream()
    with open(stopwords, "a", encoding="utf-8") as fh:
        fh.write("zzzz\n")
    assert run("topics", "--out", out, "--stopwords", stopwords) == 0


def test_missing_upstream_stage_fails(tmp_path, capsys):
    assert run("graph", "--out", tmp_path / "fresh", "--seed-user", "u0") == 1
    assert "ingest" in capsys.readouterr().err


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
    assert len(model.weights) == len(community_rows)


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
