"""Run manifest: per-stage configs, artifact digests and row counts.

Every pipeline stage records the digests of the inputs it read and the
outputs it wrote. A stage that consumes an artifact recorded earlier verifies
the digest first, and then that no input upstream of it has been rewritten
since it was made, so silently edited or regenerated-with-different-flags
files fail loudly instead of producing mismatched reports. The manifest holds
no timestamps; reruns with identical inputs produce identical manifests.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path


class StaleArtifactError(RuntimeError):
    """An upstream artifact is missing or no longer matches its recorded digest."""


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(1 << 18)  # one buffer for the whole file, refilled in place
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
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


def write_lines(lines: Iterable[str], path: str | Path) -> int:
    """Write each line and a newline as it comes; return the number of lines.

    Lines are not collected first, so a generator's output is never held whole.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
            rows += 1
    return rows


def read_rows(
    path: str | Path, n_fields: int | None, what: str
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, tab-separated fields)`` for each non-blank line of a TSV artifact.

    A row without ``n_fields`` fields raises :class:`ValueError` naming the
    file and the line; ``n_fields=None`` leaves the count to the caller.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if n_fields is not None and len(fields) != n_fields:
                raise ValueError(f"{path}: bad {what} row at line {line_no}")
            yield line_no, fields


def _command(stage: str) -> str:
    """The command that reruns a stage: ``train:linear`` is ``train --predictor linear``."""
    name, _, predictor = stage.partition(":")
    return f"{name} --predictor {predictor}" if predictor else name


class RunManifest:
    def __init__(self, path: str | Path, data: dict | None = None, version: str = ""):
        self.path = Path(path)
        self.root = self.path.parent.resolve()
        self.data = data if data is not None else {"version": version, "stages": {}}

    @classmethod
    def load(cls, path: str | Path, version: str = "") -> "RunManifest":
        path = Path(path)
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                return cls(path, json.load(fh))
        return cls(path, version=version)

    def key(self, path: str | Path) -> str:
        """The manifest key of ``path``.

        A file in the manifest's directory (the run's ``--out``) is keyed by
        its path relative to that directory, and any other file by its
        resolved absolute path. Every spelling of one file (relative,
        ``./``-prefixed, absolute, through ``..``) thus finds the same record,
        and a moved run directory keeps the records of the files inside it.
        """
        resolved = Path(path).resolve()
        if resolved.is_relative_to(self.root):
            return resolved.relative_to(self.root).as_posix()
        return str(resolved)

    def save(self) -> None:
        atomic_write_text(self.path, json.dumps(self.data, sort_keys=True, indent=2) + "\n")

    def record_stage(
        self,
        stage: str,
        config: dict,
        inputs: dict[str, str],
        outputs: dict[str, dict],
    ) -> None:
        """Replace the stage entry; rerunning a stage overwrites its record.

        Input and output paths are recorded under :meth:`key`. The manifest is
        read again and saved under an exclusive lock on the run directory, so
        stages that finish at the same time on one run each keep their entry.
        """
        entry = {
            "config": config,
            "config_digest": config_digest(config),
            "inputs": {self.key(p): digest for p, digest in inputs.items()},
            "outputs": {self.key(p): meta for p, meta in outputs.items()},
        }
        fd = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if self.path.exists():
                self.data = self.load(self.path).data
            self.data["stages"][stage] = entry
            self.save()
        finally:
            os.close(fd)

    def stage_config(self, stage: str) -> dict:
        entry = self.data["stages"].get(stage)
        if entry is None:
            raise StaleArtifactError(
                f"stage {stage!r} has not been run yet (no manifest entry)"
            )
        return entry["config"]

    def _writer(self, key: str) -> tuple[str | None, str | None]:
        """The stage that last recorded ``key`` as an output, and the digest it recorded."""
        found = None, None
        for name, entry in self.data["stages"].items():
            meta = entry["outputs"].get(key)
            if meta is not None:
                found = name, meta["digest"]
        return found

    def _rewritten_input(self, stage: str, memo: dict) -> tuple[str, str] | None:
        """A stage at or upstream of ``stage`` and an input rewritten since it ran.

        Every stage read its inputs under the digest their writer had recorded,
        so a writer's record that now differs means the writer ran again. Only
        records are compared; files that no stage wrote are not followed.
        """
        if stage not in memo:
            memo[stage] = None  # also ends a walk that comes back to ``stage``
            for key, digest in self.data["stages"][stage]["inputs"].items():
                writer, current = self._writer(key)
                if writer is None:
                    continue
                found = (stage, key) if current != digest else self._rewritten_input(writer, memo)
                if found is not None:
                    memo[stage] = found
                    break
        return memo[stage]

    def verify_input(self, path: str | Path, required: bool) -> str:
        """Digest ``path`` and compare against the manifest record.

        The record is the digest under which a stage last wrote ``path``. A
        ``required`` artifact must have one. Without it (a manifest from
        another directory, or from before this keying) nothing could be
        verified, so the stage fails instead of reading the file unchecked. A
        file from outside the run is read by one stage alone and needs no
        record. An artifact whose writer, or any stage upstream of it, read an
        input that a stage has rewritten since is stale as well.
        """
        path = Path(path)
        writer, recorded = self._writer(self.key(path))
        rerun = f"; rerun {_command(writer)}" if writer else ""
        if not path.exists():
            raise StaleArtifactError(f"upstream artifact {path} is missing{rerun}")
        actual = file_digest(path)
        if recorded is None and required:
            raise StaleArtifactError(
                f"upstream artifact {path} has no record in {self.path}; "
                "rerun the stage that writes it"
            )
        if recorded is not None and recorded != actual:
            raise StaleArtifactError(
                f"stale upstream artifact {path}: recorded digest {recorded} "
                f"but file now digests to {actual}{rerun}"
            )
        rewritten = writer and self._rewritten_input(writer, {})
        if rewritten:
            stage, key = rewritten
            raise StaleArtifactError(
                f"stale upstream artifact {path}: stage {stage!r} read {key}, "
                f"which has been rewritten since; rerun {_command(stage)}"
            )
        return actual
