"""Minimal binary PGM/PPM readers and writers, write_file, and the input-error type.

Supports 8-bit P5/P6 and 16-bit P5 (big-endian sample order, used for
superpixel label maps). No other PNM variants. write_file writes every file
vidseg writes. Every bad input, here and in the modules above, is a DataError,
and each one read_pnm raises names its file.
"""

from __future__ import annotations

import os
import re

import numpy as np


class DataError(ValueError):
    """Invalid or inconsistent input data."""


# magic, then width, height and maxval, each after whitespace or "#" comments, then
# one whitespace byte before the raster; at most 9 digits keeps int() in range
_SEP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"(P[56])" + (_SEP + rb"(\d{1,9})") * 3 + rb"\s")


def read_pnm(path):
    """Read a binary PGM (P5) or PPM (P6) file.

    Returns an (H, W) array for PGM (uint8, or uint16 when maxval > 255)
    and an (H, W, 3) uint8 array for PPM.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER.match(data)
    if header is None:
        raise DataError(f"malformed PNM header in {path}")
    magic, *numbers = header.groups()
    width, height, maxval = map(int, numbers)
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise DataError(f"bad PNM dimensions or maxval in {path}")
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    raster = np.frombuffer(data, dtype=dtype, count=-1, offset=header.end())
    if raster.size < count:
        raise DataError(f"truncated raster in {path}")
    raster = raster[:count]
    if magic == b"P6":
        if maxval > 255:
            raise DataError(f"16-bit PPM not supported: {path}")
        return raster.reshape(height, width, 3).copy()
    if maxval > 255:
        return raster.astype(np.uint16).reshape(height, width)
    return raster.reshape(height, width).copy()


def write_pgm(path, image):
    """Write an (H, W) array as binary PGM; wider than 8-bit data is stored big-endian 16-bit.

    A value outside 0..maxval (255, or 65535 for wider data) is a DataError, not wrapped.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise DataError("PGM image must be 2-D")
    maxval = 65535 if image.dtype.itemsize > 1 else 255
    if not 0 <= image.min() <= image.max() <= maxval:
        raise DataError(f"PGM values must lie in 0..{maxval}: {path}")
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n"
    write_file(path, [header, image.astype(">u2" if maxval > 255 else "u1").tobytes()])


def write_ppm(path, image):
    """Write an (H, W, 3) uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataError("PPM image must be (H, W, 3)")
    write_file(path, [f"P6\n{image.shape[1]} {image.shape[0]}\n255\n", image.astype("u1").tobytes()])


def write_file(path, chunks):
    """Make path's directory, write chunks (bytes, or str as UTF-8) to path + ".tmp" and
    rename it onto path, so an exception leaves path as it was (the temporary may remain)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    os.replace(tmp, path)
