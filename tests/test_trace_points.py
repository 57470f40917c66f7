"""Guard for the benchmark's traced run: every function it wraps must still exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_stage_finds_every_patch_target(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_stage.py"), str(spans), "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    # a missing patch target raises before cli.main parses --help
    assert proc.returncode == 0, proc.stderr
    assert "usage: sentpop" in proc.stdout
    assert json.loads(spans.read_text())["stage"] == "--help"


def _traced_span_names(spans: Path, *argv) -> set[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_stage.py"), str(spans),
         *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(spans.read_text())["spans"]}


def test_traced_stages_pass_through_the_wrapped_helpers(tmp_path):
    """The per-layer metrics read 0 if a stage bypasses the names the tracer wraps."""
    from sentpop.cli import main
    from sentpop.synth import SYNTH_WINDOW as w

    out = tmp_path / "run"
    assert main(["synth", "--out", str(out), "--seed", "3", "--n-users", "8",
                 "--n-topics", "4", "--tweets-per-user", "2"]) == 0
    names = _traced_span_names(
        tmp_path / "ingest.json", "ingest", "--out", out, "--corpus", out / "corpus.tsv",
        "--lexicon", out / "lexicon.tsv",
        "--window", f"{w.train_start},{w.train_end},{w.test_start},{w.test_end}",
    )
    names |= _traced_span_names(
        tmp_path / "graph.json", "graph", "--out", out, "--seed-user", "u00000"
    )
    assert {"cli.out_meta", "io.write_lines", "io.save_edge_list",
            "manifest.verify_input"} <= names
    assert main(["topics", "--out", str(out), "--stopwords", str(out / "stopwords.tsv")]) == 0
    assert main(["sentiment", "--out", str(out)]) == 0
    # the stages that bind their numpy modules when they start
    names = _traced_span_names(tmp_path / "energy.json", "energy", "--out", out)
    names |= _traced_span_names(tmp_path / "correlate.json", "correlate", "--out", out,
                                "--gaps", "1")
    assert {"energy.community_energy", "energy.load_energy_report", "stats.pearson",
            "energy.per_edge_energies"} <= names
