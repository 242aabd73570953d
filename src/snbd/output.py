"""Result files: CSV time series, raw binary density snapshots, manifests.

CSV files are UTF-8 with a header row and 17-significant-digit floats.
Density snapshots use a raw little-endian binary layout: a 16-byte header
(magic ``SNBD``, version u32, dim u32, count u32) followed by ``count``
square matrices as float64 re/im interleaved pairs in row-major order.
Manifests are deterministic (no timestamps), so identical runs reproduce
identical bytes.  The writer refuses NaN and inf, so a ``complete``
manifest certifies finite outputs.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import NonFiniteOutputError, ShapeError

MAGIC = b"SNBD"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def format_float(x) -> str:
    return f"{float(x):.17g}"


def density_bin_bytes(matrices) -> bytes:
    """Encode a stack of square complex matrices (count, dim, dim)."""
    arr = np.ascontiguousarray(matrices, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"expected (count, dim, dim), got {arr.shape}")
    count, dim, _ = arr.shape
    interleaved = np.empty((count, dim, dim, 2), dtype="<f8")
    interleaved[..., 0] = arr.real
    interleaved[..., 1] = arr.imag
    return _HEADER.pack(MAGIC, BINARY_VERSION, dim, count) + interleaved.tobytes()


def read_density_bin(path) -> np.ndarray:
    """Decode a density snapshot file back to a (count, dim, dim) array."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ShapeError(f"{path}: truncated header")
    magic, version, dim, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ShapeError(f"{path}: bad magic {magic!r}")
    if version != BINARY_VERSION:
        raise ShapeError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + count * dim * dim * 16
    if len(blob) != expected:
        raise ShapeError(f"{path}: size {len(blob)} != expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    pairs = flat.reshape(count, dim, dim, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def csv_bytes(header, columns) -> bytes:
    """Encode equal-length columns as CSV with 17-significant-digit floats."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ShapeError(f"{len(header)} header fields, {len(columns)} columns")
    n = len(columns[0])
    for c in columns:
        if len(c) != n:
            raise ShapeError("columns have unequal lengths")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(format_float(c[i]) for c in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _listed_files(directory: Path) -> list:
    """The files the manifest in ``directory`` lists, by plain name: not
    a path, a directory, ``.``, ``..`` or ``manifest.json``.  A missing or
    unreadable manifest lists nothing."""
    try:
        files = json.loads((directory / "manifest.json").read_bytes())["files"]
        names = list(files) if isinstance(files, dict) else []
    except (OSError, ValueError, TypeError, KeyError):
        return []
    return [name for name in names
            if name not in ("", ".", "..", "manifest.json")
            and "/" not in name and "\\" not in name
            and not (directory / name).is_dir()]


def _require_finite(name, values):
    if not np.isfinite(np.asarray(values)).all():
        raise NonFiniteOutputError(f"{name}: a value to be written is NaN or "
                                   f"inf; the file was not written")


class RunWriter:
    """Collects output files for one run and finalizes a manifest.

    Every file written through the writer is recorded (name, size,
    sha256) in ``manifest.json`` along with the config hash, master seed,
    code version and completion status; a run interrupted mid-way still
    leaves a manifest with status ``incomplete``.  A NaN or inf in a file
    or a diagnostic raises ``NonFiniteOutputError`` and is not written.
    Before anything is written, the files of the manifest the run
    replaces are removed, so no file of an earlier run survives beside a
    manifest that does not list it.
    """

    def __init__(self, directory, config_hash, master_seed, code_version,
                 subcommand):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for name in _listed_files(self.directory):
            (self.directory / name).unlink(missing_ok=True)
        self.config_hash = config_hash
        self.master_seed = master_seed
        self.code_version = code_version
        self.subcommand = subcommand
        self.files = {}
        self.diagnostics = {}
        self.finalized = False

    def _store(self, name, blob: bytes):
        path = self.directory / name
        path.write_bytes(blob)
        self.files[name] = {
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        return path

    def write_csv(self, name, header, columns):
        for column in columns:
            _require_finite(name, column)
        return self._store(name, csv_bytes(header, columns))

    def write_density_bin(self, name, matrices):
        _require_finite(name, matrices)
        return self._store(name, density_bin_bytes(matrices))

    def add_diagnostics(self, **kwargs):
        for key, value in kwargs.items():
            _require_finite(f"diagnostics.{key}", value)
            self.diagnostics[key] = value

    def finalize(self, status: str):
        manifest = {
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "code_version": self.code_version,
            "subcommand": self.subcommand,
            "status": status,
            "files": {k: self.files[k] for k in sorted(self.files)},
            "diagnostics": {k: self.diagnostics[k]
                            for k in sorted(self.diagnostics)},
        }
        blob = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
        (self.directory / "manifest.json").write_bytes(blob)
        self.finalized = True
