"""Synthetic proposal-grid benchmark data.

Each foreground example is a Gaussian-noise feature grid with its class's
fixed "signature" channel-vectors added at a few distinct cells; background
examples are pure noise.  The planted cells are kept as ground truth for
key-part recall only and are never shown to a model.

Values are rounded through 32-bit floats at generation time so in-memory
grids and the on-disk format (which stores 32-bit floats) agree exactly.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation
from .tensor import Tensor

_MAGIC = b"OKPD"
_VERSION = 1
_HEADER_LEN = 32
_SENTINEL = 0xFF  # planted-point byte for background examples
_CHUNK = 64  # examples encoded per write and decoded per read

_SIG_STREAM = 101
_TRAIN_STREAM = 1
_TEST_STREAM = 2
_SHUFFLE_STREAM = 77


@dataclass
class ToyDatasetSpec:
    """Shape and difficulty of the synthetic task."""

    channels: int = 64
    height: int = 7
    width: int = 7
    num_classes: int = 4
    parts_per_class: int = 4
    signature_norm: float = 4.0
    noise_sigma: float = 0.5
    n_train: int = 1024
    n_test: int = 256
    seed: int = 1
    background_fraction: float = 0.5

    def __post_init__(self):
        if self.parts_per_class > self.height * self.width:
            raise ConfigError(
                f"parts_per_class={self.parts_per_class} exceeds grid size "
                f"{self.height * self.width}")
        if min(self.channels, self.height, self.width, self.num_classes,
               self.parts_per_class, self.n_train, self.n_test) < 1:
            raise ConfigError("all counts must be positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not math.isfinite(self.signature_norm):
            raise ConfigError(f"signature_norm must be finite, got {self.signature_norm}")
        if not (0.0 <= self.background_fraction < 1.0):
            raise ConfigError(
                f"background_fraction={self.background_fraction} outside [0, 1)")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(
                f"seed={self.seed} outside [0, 2^64); dataset files store it as a u64")
        for extent in (self.height, self.width):
            if extent > 254:
                raise ConfigError("grid extents above 254 do not fit the file format")


@dataclass
class ToyExample:
    x: Tensor
    y_hat: int                       # 1 iff the grid contains a planted object
    class_id: int                    # 0 = background, 1..num_classes foreground
    box_target: np.ndarray           # (cy, cx, h, w) of the planted bounding rect
    planted_points: list[tuple[int, int]] = field(default_factory=list)


def class_signatures(spec: ToyDatasetSpec) -> np.ndarray:
    """Fixed per-class signature vectors, shape (num_classes, D, C).

    Unit-norm random directions scaled by ``signature_norm``; deterministic
    in the dataset seed.
    """
    rng = np.random.default_rng([spec.seed, _SIG_STREAM])
    raw = rng.standard_normal((spec.num_classes, spec.parts_per_class, spec.channels))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    sig = raw * spec.signature_norm
    return sig.astype("<f4").astype(np.float64)


def _round_f32(arr: np.ndarray) -> np.ndarray:
    return arr.astype("<f4").astype(np.float64)


def _make_example(spec: ToyDatasetSpec, signatures: np.ndarray, foreground: bool,
                  rng: np.random.Generator) -> ToyExample:
    h, w, c = spec.height, spec.width, spec.channels
    grid = spec.noise_sigma * rng.standard_normal((c, h, w))
    if not foreground:
        return ToyExample(x=Tensor(_round_f32(grid)), y_hat=0, class_id=0,
                          box_target=np.zeros(4), planted_points=[])
    class_id = int(rng.integers(1, spec.num_classes + 1))
    cells = rng.choice(h * w, size=spec.parts_per_class, replace=False)
    points = [(int(cell) // w, int(cell) % w) for cell in cells]
    for j, (r, col) in enumerate(points):
        grid[:, r, col] += signatures[class_id - 1, j]
    rows = [p[0] for p in points]
    cols = [p[1] for p in points]
    box = np.array([
        (min(rows) + max(rows) + 1) / 2.0 / h,
        (min(cols) + max(cols) + 1) / 2.0 / w,
        (max(rows) - min(rows) + 1) / h,
        (max(cols) - min(cols) + 1) / w,
    ])
    return ToyExample(x=Tensor(_round_f32(grid)), y_hat=1, class_id=class_id,
                      box_target=_round_f32(box), planted_points=points)


def _make_split(spec: ToyDatasetSpec, n: int, stream: int) -> list[ToyExample]:
    signatures = class_signatures(spec)
    n_background = round(spec.background_fraction * n)
    flags = np.array([True] * (n - n_background) + [False] * n_background)
    shuffle_rng = np.random.default_rng([spec.seed, stream, _SHUFFLE_STREAM])
    shuffle_rng.shuffle(flags)
    examples = []
    for idx, foreground in enumerate(flags):
        rng = np.random.default_rng([spec.seed, stream, idx])
        examples.append(_make_example(spec, signatures, bool(foreground), rng))
    return examples


def generate_dataset(spec: ToyDatasetSpec) -> tuple[list[ToyExample], list[ToyExample]]:
    """Deterministic (train, test) splits; every example's randomness derives
    from (seed, split, example-index)."""
    return (_make_split(spec, spec.n_train, _TRAIN_STREAM),
            _make_split(spec, spec.n_test, _TEST_STREAM))


# -- binary file format -------------------------------------------------------

def _record_layout(c: int, h: int, w: int, d: int) -> np.dtype:
    """One example's packed record: y_hat u8, class_id u8, 4 f32 box targets,
    D planted points as (row, col) u8 pairs, then C*H*W f32 grid values."""
    return np.dtype([("y_hat", "u1"), ("class_id", "u1"), ("box", "<f4", (4,)),
                     ("points", "u1", (d, 2)), ("grid", "<f4", (c, h, w))])


def write_dataset(path, spec: ToyDatasetSpec, examples: list[ToyExample]) -> None:
    """Header: magic, version u16, C/H/W/num_classes/D u16, count u32,
    seed u64 (little-endian), zero-padded to 32 bytes.  Then one
    ``_record_layout`` record per example; a background example's points are
    0xFF 0xFF sentinel pairs."""
    header = _MAGIC + struct.pack(
        "<HHHHHHIQ", _VERSION, spec.channels, spec.height, spec.width,
        spec.num_classes, spec.parts_per_class, len(examples), spec.seed)
    header += b"\x00" * (_HEADER_LEN - len(header))
    d = spec.parts_per_class
    layout = _record_layout(spec.channels, spec.height, spec.width, d)
    with open(path, "wb") as fh:
        fh.write(header)
        for first in range(0, len(examples), _CHUNK):
            chunk = examples[first:first + _CHUNK]
            records = np.empty(len(chunk), dtype=layout)
            records["y_hat"] = [ex.y_hat for ex in chunk]
            records["class_id"] = [ex.class_id for ex in chunk]
            records["box"] = [ex.box_target for ex in chunk]
            records["points"] = _SENTINEL
            for i, ex in enumerate(chunk):
                if ex.planted_points:  # background examples keep the sentinel pairs
                    points = ex.planted_points[:d]
                    records["points"][i, :len(points)] = points
            records["grid"] = [ex.x.data for ex in chunk]
            fh.write(records.tobytes())


def read_dataset(path) -> tuple[dict, list[ToyExample]]:
    """Read a dataset file back; returns (header fields, examples)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_LEN)
        if len(header) < _HEADER_LEN or header[:4] != _MAGIC:
            raise ContractViolation(f"{path}: not a toy dataset file")
        version, c, h, w, num_classes, d, count, seed = struct.unpack(
            "<HHHHHHIQ", header[4:28])
        if version != _VERSION:
            raise ContractViolation(f"{path}: unsupported format version {version}")
        info = {"channels": c, "height": h, "width": w, "num_classes": num_classes,
                "parts_per_class": d, "count": count, "seed": seed}
        layout = _record_layout(c, h, w, d)
        expected = _HEADER_LEN + count * layout.itemsize
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ContractViolation(
                f"{path}: {size} bytes, but a header of {count} examples needs {expected}")
        examples = []
        for first in range(0, count, _CHUNK):
            # a chunk at a time, so the raw bytes of the whole file are never held
            records = np.frombuffer(fh.read(min(_CHUNK, count - first) * layout.itemsize),
                                    dtype=layout)
            _check_records(path, records, first, num_classes, h, w)
            examples += [
                ToyExample(x=Tensor(grid), y_hat=int(y_hat), class_id=int(class_id),
                           box_target=box,
                           planted_points=[(r, col) for r, col in points if r != _SENTINEL])
                for y_hat, class_id, points, grid, box in zip(
                    records["y_hat"], records["class_id"], records["points"].tolist(),
                    records["grid"].astype(np.float64), records["box"].astype(np.float64))]
    return info, examples


def _check_records(path, records: np.ndarray, first: int, num_classes: int, h: int,
                   w: int) -> None:
    """Reject the first kind of value that breaks the format's contract,
    naming the first example (counted from ``first``) that has it."""
    rows, cols = records["points"][..., 0], records["points"][..., 1]
    problems = [
        ("y_hat is not 0 or 1", records["y_hat"] > 1),
        (f"class_id exceeds the header's {num_classes} classes",
         records["class_id"] > num_classes),
        ("y_hat is not 1 exactly when class_id is not 0",
         (records["y_hat"] == 1) != (records["class_id"] != 0)),
        (f"planted point outside the {h}x{w} grid",
         ((rows != _SENTINEL) & ((rows >= h) | (cols >= w))).any(axis=1)),
        ("non-finite box target", ~np.isfinite(records["box"]).all(axis=1)),
        ("non-finite grid value", ~np.isfinite(records["grid"]).all(axis=(1, 2, 3))),
    ]
    for problem, bad in problems:
        if bad.any():
            raise ContractViolation(
                f"{path}: example {first + int(np.argmax(bad))}: {problem}")
