"""The one persistence layer: atomic writes and versioned headers.

Every file this package writes that must survive a crash goes through
here — search and campaign checkpoints (JSON), emulator bundles, network
archives, NAS benchmark archives and pipeline state (``.npz``), and the
model registry's ``ACTIVE`` pointer — and every reader of such a file
checks its header here. A leaf module: it imports nothing from
:mod:`repro`, so any layer can depend on it.

* **Atomic writes.** :func:`atomic_write` lands the bytes in a
  ``<name>.tmp`` sibling, fsyncs, then ``os.replace``s over the target:
  a kill at any instant leaves either the previous file or the new one,
  never a torn file. The temp name never ends in ``.npz`` or ``.json``,
  so a directory listing of artifacts can never mistake it for one, and
  it is unlinked when the write raises. :func:`atomic_write_json` and
  :func:`write_npz_artifact` are built on it.
* **Versioned headers.** Artifacts carry ``format`` and ``version``
  keys (a legacy file without a ``version`` key reads as the reader's
  ``legacy_version``); :func:`check_artifact_header` accepts exactly the
  formats and versions a reader can decode and rejects anything else
  with a diagnosis — a newer writer's file fails loudly, never by
  deserializing garbage.
* **``.npz`` artifacts** are plain NumPy arrays plus one JSON header
  embedded as a uint8 array under a reserved key — pickle-free,
  portable, inspectable with nothing but ``numpy`` and ``json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["npz_path", "atomic_write", "atomic_write_json",
           "write_npz_artifact", "check_artifact_header",
           "read_npz_artifact_header", "load_npz_artifact"]


def npz_path(path) -> Path:
    """The path an ``.npz`` archive actually lives at.

    ``np.savez`` silently appends ``.npz`` when the name lacks it, so a
    round-trip through the *same* user-supplied path used to fail:
    saving to ``model`` wrote ``model.npz`` while loading looked for
    ``model``. Writers and readers both normalize to the suffixed name,
    so whatever path a writer accepted, its reader accepts too.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def atomic_write(path, write) -> Path:
    """Publish the bytes ``write(fh)`` puts into a binary file handle at
    ``path`` atomically (tmp sibling + fsync + ``os.replace``). Returns
    ``path``."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def atomic_write_json(path, payload: dict) -> Path:
    """Atomically write ``payload`` as JSON. ``allow_nan=False`` rejects
    any NaN or infinity before a single byte is written."""
    data = json.dumps(payload, indent=1, allow_nan=False,
                      sort_keys=True).encode("utf-8")
    return atomic_write(path, lambda fh: fh.write(data))


def write_npz_artifact(path, header: dict, arrays: dict, *,
                       key: str) -> Path:
    """Atomically write ``arrays`` + JSON ``header`` (under ``key``) as one
    ``.npz`` artifact at ``path`` (suffix normalized). Returns the path the
    archive actually lives at."""
    if key in arrays:
        raise ValueError(f"array name {key!r} collides with the header key")
    header_bytes = np.frombuffer(json.dumps(header).encode("utf-8"),
                                 dtype=np.uint8)
    return atomic_write(npz_path(path), lambda fh: np.savez(
        fh, **{key: header_bytes}, **arrays))


def check_artifact_header(header, source, *, expected_format,
                          supported_versions: tuple[int, ...],
                          describe: str,
                          legacy_version: int | None = None) -> dict:
    """Validate the ``format``/``version`` of a decoded header; returns it.

    ``expected_format`` is one format tag or a tuple of accepted tags.
    ``legacy_version`` is the version of a file written before its
    format had a ``version`` key (a tuple of formats may then include
    ``None`` for files that predate the ``format`` key too); without it
    both keys are required. ``describe`` names the artifact family in
    messages ("an emulator bundle", ...) and ``source`` — a path, or
    ``None`` for an in-memory document — prefixes them.
    """
    where = "" if source is None else f"{source}: "
    if not isinstance(header, dict):
        raise ValueError(f"{where}not {describe} "
                         f"(a {type(header).__name__}, expected a dict)")
    formats = (expected_format if isinstance(expected_format, tuple)
               else (expected_format,))
    if header.get("format") not in formats:
        raise ValueError(f"{where}not {describe} "
                         f"(format {header.get('format')!r})")
    version = header.get("version", legacy_version)
    if version not in supported_versions:
        newer = isinstance(version, int) and \
            version > max(supported_versions)
        supported = ", ".join(str(v) for v in supported_versions)
        raise ValueError(
            f"{where}unsupported {describe.split()[-1]} schema version "
            f"{version!r} ({'newer than supported; ' if newer else ''}"
            f"this reader supports version {supported})")
    return header


def _decode_header(archive, source, *, key: str, **check) -> dict:
    if key not in archive.files:
        raise ValueError(f"{source}: not {check['describe']} "
                         f"(missing {key} header)")
    header = json.loads(bytes(archive[key].tobytes()).decode("utf-8"))
    return check_artifact_header(header, source, **check)


def read_npz_artifact_header(path, *, key: str, **check) -> dict:
    """The validated JSON header (under ``key``) of the ``.npz`` artifact
    at ``path``, without loading its arrays. ``check`` are the keyword
    arguments of :func:`check_artifact_header`."""
    with np.load(npz_path(path)) as archive:
        return _decode_header(archive, path, key=key, **check)


def load_npz_artifact(path, *, key: str, **check) -> tuple[dict, dict]:
    """Read one artifact fully into memory as ``(header, arrays)``."""
    with np.load(npz_path(path)) as archive:
        header = _decode_header(archive, path, key=key, **check)
        arrays = {name: archive[name] for name in archive.files
                  if name != key}
    return header, arrays
