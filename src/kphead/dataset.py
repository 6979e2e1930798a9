"""Synthetic proposal-grid benchmark data.

Each foreground example is a Gaussian-noise feature grid with its class's
fixed "signature" channel-vectors added at a few distinct cells; background
examples are pure noise.  The planted cells are kept as ground truth for
key-part recall only and are never shown to a model.

Values are rounded through 32-bit floats at generation time so in-memory
grids and the on-disk format (which stores 32-bit floats) agree exactly.
"""

from __future__ import annotations

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
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.background_fraction < 1.0):
            raise ConfigError(
                f"background_fraction={self.background_fraction} outside [0, 1)")
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


def nearest_signature_accuracy(examples: list[ToyExample], spec: ToyDatasetSpec) -> float:
    """Decoder oracle: classify each foreground example by nearest signature
    at its planted cells (majority vote); returns accuracy over foregrounds."""
    signatures = class_signatures(spec)
    flat_sigs = signatures.reshape(-1, spec.channels)
    classes = np.repeat(np.arange(1, spec.num_classes + 1), spec.parts_per_class)
    correct = 0
    total = 0
    for ex in examples:
        if ex.y_hat == 0:
            continue
        votes = []
        for r, col in ex.planted_points:
            fiber = ex.x.data[:, r, col]
            nearest = np.argmin(np.linalg.norm(flat_sigs - fiber, axis=1))
            votes.append(classes[nearest])
        counts = np.bincount(votes, minlength=spec.num_classes + 1)
        if int(np.argmax(counts)) == ex.class_id:
            correct += 1
        total += 1
    return correct / total if total else 0.0


# -- binary file format -------------------------------------------------------

def write_dataset(path, spec: ToyDatasetSpec, examples: list[ToyExample]) -> None:
    """Header: magic, version u16, C/H/W/num_classes/D u16, count u32,
    seed u64 (little-endian), zero-padded to 32 bytes.  Per example: y_hat u8,
    class_id u8, 4 f32 box targets, D planted points as (row, col) u8 pairs
    (0xFF 0xFF sentinel pairs for background), then C*H*W f32 grid values."""
    header = _MAGIC + struct.pack(
        "<HHHHHHIQ", _VERSION, spec.channels, spec.height, spec.width,
        spec.num_classes, spec.parts_per_class, len(examples), spec.seed)
    header += b"\x00" * (_HEADER_LEN - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        for ex in examples:
            fh.write(struct.pack("<BB", ex.y_hat, ex.class_id))
            fh.write(np.asarray(ex.box_target, dtype="<f4").tobytes())
            for j in range(spec.parts_per_class):
                if j < len(ex.planted_points):
                    r, col = ex.planted_points[j]
                    fh.write(struct.pack("<BB", r, col))
                else:
                    fh.write(struct.pack("<BB", _SENTINEL, _SENTINEL))
            fh.write(ex.x.data.astype("<f4").tobytes())


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
        grid_bytes = c * h * w * 4
        expected = _HEADER_LEN + count * (2 + 16 + 2 * d + grid_bytes)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ContractViolation(
                f"{path}: {size} bytes, but a header of {count} examples needs {expected}")
        examples = []
        for _ in range(count):
            y_hat, class_id = struct.unpack("<BB", fh.read(2))
            box = np.frombuffer(fh.read(16), dtype="<f4").astype(np.float64)
            points = []
            for _ in range(d):
                r, col = struct.unpack("<BB", fh.read(2))
                if r != _SENTINEL:
                    points.append((r, col))
            grid = np.frombuffer(fh.read(grid_bytes), dtype="<f4").astype(
                np.float64).reshape(c, h, w)
            examples.append(ToyExample(x=Tensor(grid), y_hat=y_hat, class_id=class_id,
                                       box_target=box, planted_points=points))
    return info, examples
