"""Heatmap export: per-part confidence maps and the global activation map as
binary portable graymaps, plus a text sidecar of extracted part coordinates."""

from __future__ import annotations

import os

import numpy as np

from .dataset import ToyExample
from .errors import ConfigError, ContractViolation
from .tensor import NoGrad

CONFIDENCE_THRESHOLD = 0.1  # parts above this are flagged in the sidecar


def write_pgm(path, values01: np.ndarray) -> None:
    """8-bit binary portable graymap (max value 255) from values in [0, 1]."""
    h, w = values01.shape
    data = np.clip(np.rint(values01 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back an 8-bit binary graymap into values in [0, 1]."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        dims = fh.readline().split()
        maxval = fh.readline().strip()
        data = fh.read()
    if magic != b"P5":
        raise ContractViolation(f"{path}: not a binary graymap")
    if len(dims) != 2 or not all(d.isdigit() and int(d) > 0 for d in dims):
        raise ContractViolation(
            f"{path}: graymap dimensions {b' '.join(dims).decode(errors='replace')!r} "
            f"are not two positive integers")
    w, h = int(dims[0]), int(dims[1])
    if not (maxval.isdigit() and 1 <= int(maxval) <= 255):
        raise ContractViolation(
            f"{path}: graymap maxval {maxval.decode(errors='replace')!r} outside 1..255")
    if len(data) != h * w:
        raise ContractViolation(
            f"{path}: {len(data)} pixel bytes, but a {w}x{h} graymap needs {h * w}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).astype(np.float64) / int(maxval)


def normalize01(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; a constant map becomes all 0.5."""
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full_like(values, 0.5, dtype=np.float64)
    return (values - lo) / (hi - lo)


def export_heatmaps(model, example: ToyExample, out_dir,
                    threshold: float = CONFIDENCE_THRESHOLD) -> list[str]:
    """Write K part-confidence graymaps, one global-activation graymap
    (rectified, channel-summed, min-max normalized) and a sidecar listing
    extracted key-part coordinates/confidences.  The forward pass records
    no graph.  Returns the written paths.
    Raises ConfigError for a model without confidence maps (the baseline).
    """
    if model.kind != "condensed":
        raise ConfigError("heatmaps need a condensed model")
    os.makedirs(out_dir, exist_ok=True)
    with NoGrad():
        fwd = model.forward(example.x)
    maps, parts = fwd.maps.data[0], fwd.parts[0]
    paths = []
    for k in range(maps.shape[0]):
        path = os.path.join(out_dir, f"part_{k:02d}.pgm")
        write_pgm(path, maps[k])
        paths.append(path)
    activation = normalize01(np.maximum(fwd.global_map.data[0], 0.0).sum(axis=0))
    global_path = os.path.join(out_dir, "global.pgm")
    write_pgm(global_path, activation)
    paths.append(global_path)

    sidecar = os.path.join(out_dir, "key_parts.txt")
    with open(sidecar, "w") as fh:
        fh.write(f"# extracted key parts (flagging confidences > {threshold})\n")
        fh.write("# part row col confidence above_threshold\n")
        for k, ((row, col), conf) in enumerate(zip(parts.points, parts.confidences)):
            flag = "yes" if conf > threshold else "no"
            fh.write(f"{k} {row} {col} {conf:.6f} {flag}\n")
    paths.append(sidecar)
    return paths
