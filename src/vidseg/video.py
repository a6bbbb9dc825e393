"""Core video data model: frames, superpixel maps, optical flow, masks.

All types are plain containers over numpy arrays and are treated as
immutable after construction; loaders validate dimensions up front so the
rest of the pipeline can assume consistency. SuperpixelMap numbers each
frame's superpixels 0..n-1 itself, so every map, loaded or built in memory,
holds contiguous ids.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .pnm import PnmError, read_pnm, write_pgm

FLOW_MAGIC = 202021.25  # little-endian float header, b"PIEH"

FRAME_SUFFIXES = (".ppm", ".pgm")


class DataError(ValueError):
    """Invalid or inconsistent input data."""


def check_id(kind, value):
    """Return value, or raise DataError if it would break a CSV row or an output path.

    Ids are written into CSV rows and joined into file names under out_dir,
    so each must be one safe path component without commas or line breaks.
    """
    text = str(value)
    if any(ch in text for ch in ",\r\n"):
        raise DataError(f"{kind} {value!r} contains a comma or line break")
    if text in ("", ".", "..") or any(ch in text for ch in "/\\"):
        raise DataError(f"{kind} {value!r} is not a single path component")
    return value


def write_rows(path, header, lines):
    """Write a CSV file, creating its directory: the header line, then the text of lines."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def list_dir(path, suffixes):
    """Sorted names in directory path ending in suffixes (a str or a tuple), any case."""
    return sorted(n for n in os.listdir(path) if n.lower().endswith(suffixes))


@dataclass
class VideoVolume:
    """An ordered stack of RGB frames, shape (T, H, W, 3) uint8."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise DataError("frames must have shape (T, H, W, 3)")
        if self.frames.shape[0] < 1:
            raise DataError("no frames")

    @property
    def frame_count(self):
        return self.frames.shape[0]

    @property
    def height(self):
        return self.frames.shape[1]

    @property
    def width(self):
        return self.frames.shape[2]


@dataclass
class SuperpixelMap:
    """Per-frame label images with contiguous 0-based superpixel ids.

    labels: (T, H, W) non-negative ints, kept as an int32 copy in which each
    frame's values are renumbered 0..n-1 in value order; counts[t] = number
    of superpixels in frame t.
    """

    labels: np.ndarray
    counts: list = field(init=False)

    def __post_init__(self):
        self.labels = np.array(self.labels, dtype=np.int32)
        if self.labels.ndim != 3 or self.labels.shape[0] < 1:
            raise DataError("labels must have shape (T, H, W) with at least one frame")
        self.counts = []
        for t, frame in enumerate(self.labels):
            if frame.min() < 0:
                raise DataError(f"frame {t} has a negative superpixel label")
            # the values present, numbered in sorted order: the np.unique remap without a sort
            lookup = np.cumsum(np.bincount(frame.ravel()) > 0, dtype=np.int32) - 1
            frame[...] = lookup[frame]
            self.counts.append(int(lookup[-1]) + 1)

    @property
    def frame_count(self):
        return self.labels.shape[0]

    @property
    def total_count(self):
        return int(sum(self.counts))

    def frame_offsets(self):
        """Global node-id offset per frame: node = offsets[t] + superpixel id."""
        return np.concatenate([[0], np.cumsum(self.counts)]).astype(np.int64)


@dataclass
class SuperpixelStats:
    """Per-superpixel aggregates indexed by global node id (frame offset + label).

    mean_color: (N, 3) float, 0-255 scale; centroid: (N, 2) float as (x, y)
    in pixel coordinates.
    """

    mean_color: np.ndarray
    centroid: np.ndarray


def load_video(path) -> VideoVolume:
    """Load a directory of PPM/PGM frames in lexicographic filename order.

    Every per-frame directory is read in that order, so a frames.txt manifest,
    which would reorder the frames alone, is a data error.
    """
    if not os.path.isdir(path):
        raise DataError(f"missing video directory: {path}")
    if os.path.exists(os.path.join(path, "frames.txt")):
        raise DataError(f"frames.txt in {path}: frames are read in file-name order only")
    names = list_dir(path, FRAME_SUFFIXES)
    if not names:
        raise DataError(f"no frames in {path}")
    frames = []
    for name in names:
        try:
            img = read_pnm(os.path.join(path, name))
        except (OSError, PnmError) as exc:
            raise DataError(f"unreadable frame {name}: {exc}") from exc
        if img.ndim == 2:
            img = np.repeat(img.astype(np.uint8)[:, :, None], 3, axis=2)
        frames.append(img)
    shape = frames[0].shape
    for name, img in zip(names, frames):
        if img.shape != shape:
            raise DataError(
                f"dimension mismatch: {name} is {img.shape[:2]}, expected {shape[:2]}"
            )
    return VideoVolume(np.stack(frames))


def load_superpixels(path, expected_frames) -> SuperpixelMap:
    """Load per-frame 16-bit PGM label images; SuperpixelMap renumbers them 0..n-1."""
    if not os.path.isdir(path):
        raise DataError(f"missing superpixel directory: {path}")
    names = list_dir(path, ".pgm")
    if len(names) != expected_frames:
        raise DataError(
            f"superpixel frame count mismatch: {len(names)} files, expected {expected_frames}"
        )
    label_frames = []
    for name in names:
        raw = read_pnm(os.path.join(path, name))
        if raw.ndim != 2:
            raise DataError(f"superpixel map {name} is not a PGM label image")
        label_frames.append(raw)
    return SuperpixelMap(label_frames)


def load_flow(path) -> np.ndarray:
    """Read a Middlebury .flo file into an (H, W, 2) float32 array of (dx, dy)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise DataError(f"truncated flow file: {path}")
    (magic,) = struct.unpack("<f", data[:4])
    if magic != FLOW_MAGIC:
        raise DataError(f"bad flow magic in {path}: {magic!r}")
    width, height = struct.unpack("<ii", data[4:12])
    if width <= 0 or height <= 0:
        raise DataError(f"bad flow dimensions in {path}")
    size = 12 + width * height * 8
    if len(data) < size:
        raise DataError(f"truncated flow raster in {path}")
    if len(data) > size:
        raise DataError(f"{len(data) - size} bytes after the {width}x{height} flow raster in {path}")
    flow = np.frombuffer(data, dtype="<f4", offset=12).reshape(height, width, 2).copy()
    if not np.all(np.isfinite(flow)):
        raise DataError(f"non-finite flow in {path}")
    return flow


def write_flow(path, flow):
    """Write an (H, W, 2) flow field in Middlebury .flo format."""
    flow = np.asarray(flow, dtype=np.float32)
    height, width = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", FLOW_MAGIC))
        fh.write(struct.pack("<ii", width, height))
        fh.write(flow.astype("<f4").tobytes())


def load_mask(path, shape=None) -> np.ndarray:
    """Read an 8-bit PGM as a boolean mask (nonzero = set); shape: the (H, W) it must have."""
    img = read_pnm(path)
    if img.ndim != 2:
        raise DataError(f"mask {path} is not a PGM")
    if shape is not None and img.shape != shape:
        raise DataError(f"dimension mismatch: mask {path} is {img.shape}, expected {shape}")
    return img != 0


def write_mask(path, mask):
    """Write a mask as an 8-bit PGM, 255 where set and 0 elsewhere; inverse of load_mask."""
    write_pgm(path, np.where(mask, np.uint8(255), np.uint8(0)))


def compute_superpixel_stats(video: VideoVolume, sp: SuperpixelMap) -> SuperpixelStats:
    """Mean RGB colors and centroids of every superpixel, by global node id.

    Works one frame at a time: each frame's bincounts fill its rows of the
    (N, 5) sums, so no temporary spans the clip's pixels. The sums are of
    integers, hence exact in any order. The caller checks that video and sp
    share their (T, H, W) shape.
    """
    offsets = sp.frame_offsets()
    sums = np.empty((int(offsets[-1]), 5))  # r, g, b, x, y
    counts = np.empty(len(sums), dtype=np.int64)
    ys, xs = np.indices(sp.labels.shape[1:], dtype=np.float64).reshape(2, -1)
    for t in range(sp.frame_count):
        labels, n, rows = sp.labels[t].ravel(), sp.counts[t], slice(offsets[t], offsets[t + 1])
        counts[rows] = np.bincount(labels, minlength=n)
        for k, w in enumerate((*video.frames[t].reshape(-1, 3).T, xs, ys)):
            sums[rows, k] = np.bincount(labels, weights=w, minlength=n)
    sums /= counts[:, None]
    return SuperpixelStats(mean_color=sums[:, :3], centroid=sums[:, 3:])


def warp_pixels(flow):
    """(H, W) flat index of the pixel each pixel lands on when pushed along flow.

    A pixel moves to (floor(x + dx + 0.5), floor(y + dy + 0.5)); one that
    leaves the frame gets -1.
    """
    height, width = flow.shape[:2]
    dest_x = np.floor(np.arange(width) + flow[..., 0] + 0.5).astype(np.int64)
    dest_y = np.floor(np.arange(height)[:, None] + flow[..., 1] + 0.5).astype(np.int64)
    inside = (dest_x >= 0) & (dest_x < width) & (dest_y >= 0) & (dest_y < height)
    return np.where(inside, dest_y * width + dest_x, -1)
