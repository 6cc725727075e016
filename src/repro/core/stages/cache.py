"""Content-addressed artifact store for pipeline stages.

Artifacts live under one cache directory, one file per ``(stage, key)``:

    <cache_dir>/<stage-name>.<key>.jsonl.gz   (crawl datasets, streamed JSONL)
    <cache_dir>/<stage-name>.<key>.pkl        (all other artifacts)

The file name *is* the cache key, so a lookup is a single ``exists()`` and
no index can ever go stale.  Writes go through
:func:`repro.crawler.storage.save_artifact` (same-directory temp file +
``os.replace`` + directory fsync), so interrupted runs leave either a
complete entry or none.  A corrupt entry (torn by an older crash, truncated
copy, unreadable pickle) is treated as a miss and deleted, never an error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.crawler.storage import DatasetError, load_artifact, save_artifact

__all__ = ["StageCache"]

_SUFFIXES = {"dataset": ".jsonl.gz", "pickle": ".pkl"}


class StageCache:
    """Filesystem-backed content-addressed cache keyed by stage cache keys."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, stage_name: str, key: str, artifact: str = "pickle") -> Path:
        try:
            suffix = _SUFFIXES[artifact]
        except KeyError:
            raise ValueError(f"unknown artifact kind {artifact!r}") from None
        return self.root / f"{stage_name}.{key}{suffix}"

    def get(self, stage_name: str, key: str, artifact: str = "pickle") -> Tuple[bool, Optional[Any]]:
        """(hit, value); a corrupt entry is evicted and reported as a miss."""
        path = self.path_for(stage_name, key, artifact)
        if not path.exists():
            return False, None
        try:
            value = load_artifact(path)
        except DatasetError:
            path.unlink(missing_ok=True)
            return False, None
        return True, value

    def put(self, stage_name: str, key: str, value: Any, artifact: str = "pickle") -> Path:
        path = self.path_for(stage_name, key, artifact)
        save_artifact(value, path)
        return path

    def __len__(self) -> int:
        return sum(1 for p in self.root.iterdir() if p.suffix in (".pkl", ".gz"))
