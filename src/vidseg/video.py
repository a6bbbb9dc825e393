"""Core video data model: frames, superpixel maps, optical flow, masks.

All types are plain containers over numpy arrays and are treated as
immutable after construction; loaders validate dimensions up front so the
rest of the pipeline can assume consistency. SuperpixelMap numbers each
frame's superpixels 0..n-1 itself, so every map, loaded or built in memory,
holds contiguous ids. Every per-frame directory is listed by list_frames, and
every input error is a pnm.DataError that names its file or directory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .pnm import DataError, read_pnm, write_file, write_pgm

FLOW_MAGIC = 202021.25  # little-endian float header, b"PIEH"

FRAME_SUFFIXES = (".ppm", ".pgm")
MAX_SUPERPIXELS = 65_536  # ids per frame: as many as a 16-bit PGM holds


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


def list_frames(path, suffixes, count=None):
    """Paths of the files in directory path ending in suffixes (a str or a tuple, any
    case), in name order; count, if given, is the number there must be."""
    if not os.path.isdir(path):
        raise DataError(f"missing directory: {path}")
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(suffixes))
    if count is not None and len(names) != count:
        raise DataError(f"file count mismatch in {path}: {len(names)} files, expected {count}")
    return [os.path.join(path, n) for n in names]


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

    labels: (T, H, W) uint16, each frame's values renumbered 0..n-1 in value
    order; counts[t] = number of superpixels in frame t. The input, integer
    labels of any dtype as an array or a list of frames, is read one frame at
    a time and left as it was. A frame holds at most MAX_SUPERPIXELS ids, as
    many as a 16-bit PGM can; one with more is a DataError naming it.
    """

    labels: np.ndarray
    counts: list = field(init=False)

    def __post_init__(self):
        frames = [np.asarray(frame) for frame in self.labels]  # views; a list is never stacked
        if not frames or any(f.ndim != 2 or f.shape != frames[0].shape for f in frames):
            raise DataError("labels must have shape (T, H, W) with at least one frame")
        self.labels = np.empty((len(frames), *frames[0].shape), dtype=np.uint16)
        self.counts = []
        for t, frame in enumerate(frames):
            if frame.dtype.kind not in "biu":
                raise DataError(f"frame {t} has non-integer superpixel labels ({frame.dtype})")
            if frame.min() < 0:
                raise DataError(f"frame {t} has a negative superpixel label")
            # the values present, numbered in sorted order: the np.unique remap without a sort
            lookup = np.cumsum(np.bincount(frame.ravel()) > 0) - 1
            count = int(lookup[-1]) + 1
            if count > MAX_SUPERPIXELS:
                raise DataError(f"{count} superpixels in a frame; a 16-bit PGM holds "
                                f"{MAX_SUPERPIXELS} (frame {t})")
            self.labels[t] = lookup.astype(np.uint16)[frame]
            self.counts.append(count)

    @property
    def frame_count(self):
        return self.labels.shape[0]

    @property
    def total_count(self):
        return int(sum(self.counts))

    def frame_offsets(self):
        """Global node-id offset per frame: node = offsets[t] + superpixel id."""
        return np.concatenate([[0], np.cumsum(self.counts)]).astype(np.int64)


def load_video(path) -> VideoVolume:
    """Load a directory of 8-bit PPM/PGM frames in lexicographic filename order.

    Every per-frame directory is read in that order, so a frames.txt manifest,
    which would reorder the frames alone, is a data error.
    """
    paths = list_frames(path, FRAME_SUFFIXES)
    if os.path.exists(os.path.join(path, "frames.txt")):
        raise DataError(f"frames.txt in {path}: frames are read in file-name order only")
    if not paths:
        raise DataError(f"no frames in {path}")
    frames = []
    for frame_path in paths:
        img = read_pnm(frame_path)
        if img.dtype != np.uint8:
            raise DataError(f"frame {frame_path} is not 8-bit")
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        if frames and img.shape != frames[0].shape:
            raise DataError(f"dimension mismatch: {frame_path} is {img.shape[:2]}, "
                            f"expected {frames[0].shape[:2]}")
        frames.append(img)
    return VideoVolume(np.stack(frames))


def load_superpixels(path, expected_frames) -> SuperpixelMap:
    """Load per-frame 16-bit PGM label images; SuperpixelMap renumbers them 0..n-1."""
    label_frames = []
    for frame_path in list_frames(path, ".pgm", expected_frames):
        raw = read_pnm(frame_path)
        if raw.ndim != 2:
            raise DataError(f"superpixel map {frame_path} is not a PGM label image")
        if label_frames and raw.shape != label_frames[0].shape:
            raise DataError(f"dimension mismatch: {frame_path} is {raw.shape}, "
                            f"expected {label_frames[0].shape}")
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
    write_file(path, [struct.pack("<fii", FLOW_MAGIC, width, height), flow.astype("<f4").tobytes()])


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


def compute_superpixel_stats(video: VideoVolume, sp: SuperpixelMap):
    """(mean_color, centroid) of every superpixel, by global node id.

    mean_color is (N, 3) float on the 0-255 scale, centroid (N, 2) float as
    (x, y) in pixel coordinates. Works one frame at a time: each frame's
    bincounts fill its rows of the two result arrays, so no temporary spans
    the clip's pixels. The sums are of integers, hence exact in any order.
    The caller checks that video and sp share their (T, H, W) shape.
    """
    offsets = sp.frame_offsets()
    mean_color, centroid = np.empty((int(offsets[-1]), 3)), np.empty((int(offsets[-1]), 2))
    counts = np.empty(len(mean_color), dtype=np.int64)
    ys, xs = np.indices(sp.labels.shape[1:], dtype=np.float64).reshape(2, -1)
    for t in range(sp.frame_count):
        labels, n, rows = sp.labels[t].ravel(), sp.counts[t], slice(offsets[t], offsets[t + 1])
        counts[rows] = np.bincount(labels, minlength=n)
        for sums, weights in ((mean_color, video.frames[t].reshape(-1, 3).T), (centroid, (xs, ys))):
            for k, w in enumerate(weights):
                sums[rows, k] = np.bincount(labels, weights=w, minlength=n)
    mean_color /= counts[:, None]
    centroid /= counts[:, None]
    return mean_color, centroid


def warp_pixels(flow):
    """(H, W) flat index of the pixel each pixel lands on when pushed along flow.

    A pixel moves to (floor(x + dx + 0.5), floor(y + dy + 0.5)); one that
    leaves the frame gets -1.
    """
    height, width = flow.shape[:2]
    dest_x = np.floor(np.arange(width) + flow[..., 0] + 0.5)
    dest_y = np.floor(np.arange(height)[:, None] + flow[..., 1] + 0.5)
    inside = (dest_x >= 0) & (dest_x < width) & (dest_y >= 0) & (dest_y < height)
    # cast after masking: a far-off destination is never cast out of int64 range
    return np.where(inside, dest_y * width + dest_x, -1).astype(np.int64)
