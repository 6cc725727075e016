"""Crawl dataset persistence: JSONL, optionally gzipped.

One observation per line — the format the real collector family also uses.
The format *supports* streaming, and the streaming consumers actually do:
:func:`iter_observations` yields one observation at a time (this is what
``python -m repro.analysis`` folds through, so analyzing a multi-GB crawl
never loads it fully into memory), while :func:`load_dataset` deliberately
slurps for callers that need a whole :class:`CrawlDataset`.

Durability model:

* :func:`save_dataset` writes the whole file to a sibling temp file and
  promotes it with :func:`os.replace`, so a crash mid-write can never leave
  a half-written dataset at the target path;
* :class:`CheckpointWriter` appends each observation to ``<path>.partial``
  as it lands (flushed per line) and atomically promotes the partial on
  :meth:`~CheckpointWriter.finalize` — the substrate for ``--resume``;
* :func:`load_checkpoint` reads a partial file back, tolerating a truncated
  final line (the signature of a crawl killed mid-write), and ignores a
  stale partial that a crash inside ``finalize()`` left next to an
  already-promoted final file;
* :func:`load_dataset` / :func:`iter_observations` raise :class:`DatasetError`
  with the offending path and line number instead of a bare
  ``json.JSONDecodeError`` on empty, corrupt or truncated files.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

from repro import obs
from repro.core.records import SiteObservation
from repro.crawler.crawl import CrawlDataset

__all__ = [
    "DatasetError",
    "save_dataset",
    "load_dataset",
    "dataset_label",
    "iter_observations",
    "CheckpointWriter",
    "checkpoint_path",
    "checkpoint_label",
    "load_checkpoint",
    "fsync_directory",
    "save_artifact",
    "load_artifact",
]

FORMAT = "repro-crawl-v1"


class DatasetError(ValueError):
    """A dataset file is missing, empty, corrupt or of an unknown format."""


def _is_gz(path: Path) -> bool:
    return path.suffix == ".gz"


def _open(path: Path, mode: str):
    if _is_gz(path):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _header_line(label: str) -> str:
    return json.dumps({"label": label, "format": FORMAT}) + "\n"


def _obs_line(observation: SiteObservation) -> str:
    return json.dumps(observation.to_json(), separators=(",", ":")) + "\n"


def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-completed ``os.replace`` survives a crash.

    ``os.replace`` makes the rename atomic, but the *directory entry* itself
    lives in the parent directory's data — until that is flushed, a power
    loss can roll the rename back and the "atomically promoted" file is
    silently gone.  Platforms whose directories cannot be opened or synced
    (e.g. Windows) are a no-op.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_header(line: str, path: Path) -> dict:
    if not line.strip():
        raise DatasetError(f"{path}: empty dataset file (no header line)")
    try:
        meta = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: corrupt dataset header: {exc}") from exc
    if meta.get("format") not in (None, FORMAT):
        raise DatasetError(f"{path}: unknown dataset format {meta.get('format')!r}")
    return meta


def save_dataset(dataset: CrawlDataset, path: Union[str, Path]) -> None:
    """Write a crawl dataset as JSONL (header line + one line per site).

    The write is atomic: content goes to a same-directory temp file which is
    promoted with ``os.replace``, so readers never observe a torn file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = gzip.open(tmp, "wt", encoding="utf-8") if _is_gz(path) else open(
        tmp, "w", encoding="utf-8"
    )
    try:
        with fh:
            fh.write(_header_line(dataset.label))
            for observation in dataset.observations:
                fh.write(_obs_line(observation))
        os.replace(tmp, path)
        # Flushing the rename itself: without a directory fsync the replace
        # can be rolled back by a crash even though the data blocks survived.
        fsync_directory(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def iter_observations(path: Union[str, Path]) -> Iterator[SiteObservation]:
    """Stream observations from a JSONL dataset file.

    Raises :class:`DatasetError` (with path and line number) on an empty,
    truncated or otherwise corrupt file — including a truncated or invalid
    ``.gz``, whose errors surface from the decompression layer mid-iteration.
    """
    path = Path(path)
    try:
        with _open(path, "r") as fh:
            _parse_header(fh.readline(), path)
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(
                        f"{path}: corrupt or truncated dataset at line {lineno}: {exc}"
                    ) from exc
                yield SiteObservation.from_json(record)
    except (EOFError, gzip.BadGzipFile) as exc:
        raise DatasetError(
            f"{path}: corrupt or truncated gzip dataset: {exc}"
        ) from exc


def dataset_label(path: Union[str, Path]) -> str:
    """Read just the dataset label from the header line (no body parse)."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such dataset file")
    try:
        with _open(path, "r") as fh:
            header = _parse_header(fh.readline(), path)
    except (EOFError, gzip.BadGzipFile) as exc:
        raise DatasetError(
            f"{path}: corrupt or truncated gzip dataset: {exc}"
        ) from exc
    return header.get("label", path.stem)


def load_dataset(path: Union[str, Path]) -> CrawlDataset:
    """Load a full crawl dataset from disk."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such dataset file")
    try:
        with _open(path, "r") as fh:
            header = _parse_header(fh.readline(), path)
    except (EOFError, gzip.BadGzipFile) as exc:
        raise DatasetError(
            f"{path}: corrupt or truncated gzip dataset: {exc}"
        ) from exc
    dataset = CrawlDataset(label=header.get("label", path.stem))
    dataset.observations.extend(iter_observations(path))
    return dataset


# -- checkpointing -----------------------------------------------------------------


def checkpoint_path(path: Union[str, Path]) -> Path:
    """The partial (in-progress) sibling of a dataset path."""
    path = Path(path)
    return path.with_name(path.name + ".partial")


def _truncate_torn_tail(path: Path) -> None:
    """Drop a torn trailing fragment (the residue of a mid-write kill).

    Mirrors :func:`_load_tolerant`'s read-side tolerance on the write side:
    anything after the last newline, plus a final newline-terminated line
    that is not valid JSON, is cut off — so reopening the partial in append
    mode can never concatenate a new record onto a torn one.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data:
            return
        end = len(data)
        if not data.endswith(b"\n"):
            end = data.rfind(b"\n") + 1  # 0 when even the header is torn
        if end:
            prev = data.rfind(b"\n", 0, end - 1) + 1
            if prev > 0:  # never validate away the header line here
                try:
                    json.loads(data[prev:end].decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    end = prev
        if end != len(data):
            fh.truncate(end)


def _record_count(path: Path, tolerant: bool) -> int:
    """Complete observation records in a dataset file; -1 if unreadable."""
    try:
        if tolerant:
            return len(_load_tolerant(path).observations)
        return sum(1 for _ in iter_observations(path))
    except DatasetError:
        return -1


def _resume_source(final: Path, partial: Path) -> Optional[Path]:
    """Which file a resume should continue from (None when neither exists).

    An existing partial normally wins — it is an interrupted run.  But a
    partial *alongside* a finished final file is usually the residue of a
    crash inside :meth:`CheckpointWriter.finalize` between promotion and
    cleanup; unless the partial has strictly more complete records than the
    final file, the final file is the truth and the stale partial is ignored
    (and overwritten on the next resume).
    """
    has_partial, has_final = partial.exists(), final.exists()
    if has_partial and has_final:
        if _record_count(partial, tolerant=True) > _record_count(final, tolerant=False):
            return partial
        return final
    if has_partial:
        return partial
    if has_final:
        return final
    return None


class CheckpointWriter:
    """Append-mode JSONL checkpointing for an in-flight crawl.

    Observations land in ``<path>.partial`` (always plain text, flushed per
    line so a kill loses at most the line being written).  ``finalize()``
    promotes the partial to the final path atomically — gzip-compressing on
    the way if the final path ends in ``.gz``.
    """

    def __init__(self, path: Union[str, Path], label: str, resume: bool = False) -> None:
        self.final_path = Path(path)
        self.partial_path = checkpoint_path(path)
        self.label = label
        self.written = 0
        source = _resume_source(self.final_path, self.partial_path) if resume else None
        if source is not None and source != self.partial_path:
            # A finished dataset is a valid checkpoint: reopen it as partial
            # (overwriting any stale leftover partial from a finalize crash).
            with _open(self.final_path, "r") as src, open(
                self.partial_path, "w", encoding="utf-8"
            ) as dst:
                for line in src:
                    dst.write(line)
        elif source is not None:
            # Continuing an interrupted partial: cut off any torn trailing
            # fragment first, so appends start on a record boundary.
            _truncate_torn_tail(self.partial_path)
        continuing = source is not None
        self._fh = open(self.partial_path, "a" if continuing else "w", encoding="utf-8")
        if not continuing or self._fh.tell() == 0:
            self._fh.write(_header_line(label))
            self._fh.flush()

    def write(self, observation: SiteObservation) -> None:
        self._fh.write(_obs_line(observation))
        self._fh.flush()
        self.written += 1
        obs.inc("crawler.checkpoint_writes")

    def close(self) -> None:
        """Close without promoting; the partial file stays for a resume."""
        if not self._fh.closed:
            self._fh.close()

    def finalize(self) -> Path:
        """Atomically promote the partial file to the final dataset path."""
        self.close()
        if _is_gz(self.final_path):
            tmp = self.final_path.with_name(self.final_path.name + ".tmp")
            try:
                with open(self.partial_path, "r", encoding="utf-8") as src, gzip.open(
                    tmp, "wt", encoding="utf-8"
                ) as dst:
                    for line in src:
                        dst.write(line)
                os.replace(tmp, self.final_path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            self.partial_path.unlink(missing_ok=True)
        else:
            os.replace(self.partial_path, self.final_path)
        # Make the promotion itself durable: the rename lives in the parent
        # directory's data, which a crash can lose without this fsync.
        fsync_directory(self.final_path.parent)
        obs.inc("crawler.checkpoint_finalized")
        obs.event("checkpoint.finalize", path=str(self.final_path), records=self.written)
        return self.final_path

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.close()


def load_checkpoint(path: Union[str, Path]) -> Optional[CrawlDataset]:
    """Load whatever survives of a checkpointed crawl at ``path``.

    Prefers ``<path>.partial`` (an interrupted run), falling back to the
    final file (a finished run) — except when the final file has at least as
    many records, which marks the partial as a stale leftover from a crash
    inside :meth:`CheckpointWriter.finalize` (see :func:`_resume_source`).
    A truncated final line in the partial — the expected state after a
    mid-write kill — is silently dropped; that site is simply re-crawled on
    resume.  Returns None when neither file exists.
    """
    final = Path(path)
    partial = checkpoint_path(path)
    source = _resume_source(final, partial)
    if source is None:
        return None
    if source == partial:
        return _load_tolerant(partial)
    return load_dataset(final)


def checkpoint_label(path: Union[str, Path]) -> Optional[str]:
    """The label of the file a resume at ``path`` would continue (None: no file).

    Reads only the header line of the file :func:`load_checkpoint` would
    load.
    """
    source = _resume_source(Path(path), checkpoint_path(path))
    return None if source is None else dataset_label(source)


# -- stage artifacts ---------------------------------------------------------------


def save_artifact(value: Any, path: Union[str, Path]) -> None:
    """Persist one pipeline stage artifact atomically.

    Crawl datasets keep their streaming JSONL format (``.jsonl`` /
    ``.jsonl.gz`` paths — the same files ``python -m repro.analysis``
    consumes); any other artifact is pickled.  Both paths go through a
    same-directory temp file, ``os.replace`` and a directory fsync, so a
    half-written cache entry can never be observed or survive a crash.
    """
    path = Path(path)
    if isinstance(value, CrawlDataset):
        if path.suffix not in (".jsonl", ".gz"):
            raise ValueError(f"dataset artifacts need a .jsonl(.gz) path, got {path.name}")
        save_dataset(value, path)
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        fsync_directory(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_artifact(path: Union[str, Path]) -> Any:
    """Load an artifact written by :func:`save_artifact`.

    Raises :class:`DatasetError` on a missing, truncated or corrupt file, so
    a damaged cache entry surfaces as a clean miss upstream instead of a
    bare unpickling error.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: no such artifact file")
    if path.suffix in (".jsonl", ".gz"):
        return load_dataset(path)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as exc:
        raise DatasetError(f"{path}: corrupt artifact: {exc}") from exc


def _load_tolerant(path: Path) -> CrawlDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines: List[str] = fh.readlines()
    if not lines:
        raise DatasetError(f"{path}: empty dataset file (no header line)")
    header = _parse_header(lines[0], path)
    dataset = CrawlDataset(label=header.get("label", path.stem))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn final line from a mid-write kill
            raise DatasetError(
                f"{path}: corrupt dataset at line {lineno}: {exc}"
            ) from exc
        dataset.observations.append(SiteObservation.from_json(record))
    return dataset
