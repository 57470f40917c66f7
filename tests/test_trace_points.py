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
