"""Run manifest: per-stage configs, artifact digests and row counts.

Every pipeline stage records the digests of the inputs it read and the
outputs it wrote. A stage that consumes an artifact recorded earlier verifies
the digest first, so silently edited or regenerated-with-different-flags
files fail loudly instead of producing mismatched reports. The manifest holds
no timestamps; reruns with identical inputs produce identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


class StaleArtifactError(RuntimeError):
    """An upstream artifact is missing or no longer matches its recorded digest."""


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def atomic_write(write, path: str | Path):
    """Run ``write(tmp_path)``, rename the temp file into place and return what it returned.

    Partially written artifacts never appear: a failed write removes its temp
    file and re-raises.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        result = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write(lambda tmp: tmp.write_text(text, encoding="utf-8"), path)


class RunManifest:
    def __init__(self, path: str | Path, data: dict | None = None, version: str = ""):
        self.path = Path(path)
        self.data = data if data is not None else {"version": version, "stages": {}}

    @classmethod
    def load(cls, path: str | Path, version: str = "") -> "RunManifest":
        path = Path(path)
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                return cls(path, json.load(fh))
        return cls(path, version=version)

    def save(self) -> None:
        atomic_write_text(self.path, json.dumps(self.data, sort_keys=True, indent=2) + "\n")

    def record_stage(
        self,
        stage: str,
        config: dict,
        inputs: dict[str, str],
        outputs: dict[str, dict],
    ) -> None:
        """Replace the stage entry; rerunning a stage overwrites its record."""
        self.data["stages"][stage] = {
            "config": config,
            "config_digest": config_digest(config),
            "inputs": inputs,
            "outputs": outputs,
        }
        self.save()

    def stage_config(self, stage: str) -> dict:
        entry = self.data["stages"].get(stage)
        if entry is None:
            raise StaleArtifactError(
                f"stage {stage!r} has not been run yet (no manifest entry)"
            )
        return entry["config"]

    def recorded_digest(self, key: str, reader: str | None = None) -> str | None:
        """Digest under which a stage last wrote ``key``, else under which ``reader`` read it.

        A file that no stage wrote is checked only against the stage that reads
        it from outside the run (``reader``): the stages that merely re-verify
        it record it too, and their older records must not outrank a rerun of
        its reader.
        """
        found = None
        for entry in self.data["stages"].values():
            meta = entry["outputs"].get(key)
            if meta is not None:
                found = meta["digest"]
        if found is None and reader is not None:
            found = self.data["stages"].get(reader, {}).get("inputs", {}).get(key)
        return found

    def verify_input(self, path: str | Path, reader: str | None = None) -> str:
        """Digest ``path`` and compare against the manifest record, if any."""
        path = Path(path)
        if not path.exists():
            raise StaleArtifactError(f"upstream artifact {path} is missing")
        actual = file_digest(path)
        recorded = self.recorded_digest(str(path), reader)
        if recorded is not None and recorded != actual:
            raise StaleArtifactError(
                f"stale upstream artifact {path}: recorded digest {recorded} "
                f"but file now digests to {actual}"
            )
        return actual
