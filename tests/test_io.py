import re
import struct

import numpy as np
import pytest

from vidseg.pnm import DataError, read_pnm, write_pgm, write_ppm
from vidseg.video import load_flow, load_mask, write_flow, write_mask


def test_pgm8_round_trip(tmp_path):
    img = np.arange(24, dtype=np.uint8).reshape(4, 6)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pnm(path), img)


def test_pgm16_round_trip_and_byte_order(tmp_path):
    img = np.array([[258, 0], [65535, 7]], dtype=np.uint16)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n65535\n")
    # big-endian sample order: 258 = 0x0102
    assert data[13:15] == b"\x01\x02"
    assert np.array_equal(read_pnm(path), img)


def test_ppm_round_trip(tmp_path):
    img = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    path = tmp_path / "a.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_pnm(path), img)


@pytest.mark.parametrize(
    "write, read, image",
    [
        (write_pgm, read_pnm, np.arange(12, dtype=np.uint8).reshape(3, 4)),
        (write_ppm, read_pnm, np.arange(36, dtype=np.uint8).reshape(3, 4, 3)),
        (write_mask, load_mask, np.arange(12).reshape(3, 4) % 3 == 0),
        (write_flow, load_flow, np.arange(24, dtype=np.float32).reshape(3, 4, 2)),
    ],
    ids=["pgm", "ppm", "mask", "flow"],
)
def test_writers_create_missing_directories(tmp_path, write, read, image):
    flat, nested = tmp_path / "image.pnm", tmp_path / "a" / "b" / "image.pnm"
    write(flat, image)
    write(nested, image)
    assert nested.read_bytes() == flat.read_bytes()
    assert np.array_equal(read(nested), image)
    assert sorted(p.name for p in nested.parent.iterdir()) == ["image.pnm"]


@pytest.mark.parametrize(
    "write, image, message",
    [
        (write_pgm, np.zeros((2, 2, 3), np.uint8), "PGM image must be 2-D"),
        (write_ppm, np.zeros((2, 2), np.uint8), r"PPM image must be \(H, W, 3\)"),
    ],
    ids=["pgm-of-3-d", "ppm-of-2-d"],
)
def test_writers_reject_an_image_of_the_other_kind(tmp_path, write, image, message):
    with pytest.raises(DataError, match=message):
        write(tmp_path / "image.pnm", image)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("image", [np.array([[65536]], np.int32), np.array([[-1]], np.int16),
                                   np.array([[-1]], np.int8)])
def test_pgm_value_outside_maxval_raises(tmp_path, image):
    path = tmp_path / "a.pgm"
    with pytest.raises(DataError, match="PGM values must lie in 0.."):
        write_pgm(path, image)
    assert not path.exists()


def test_pnm_comment_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    assert np.array_equal(read_pnm(path), [[7, 9]])


def test_pnm_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        read_pnm(path)


def test_pnm_bad_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(DataError):
        read_pnm(path)


@pytest.mark.parametrize(
    "header",
    [
        b"P3\n1 1\n255\n",  # ASCII PNM
        b"P5\n1 1\n",  # maxval missing
        b"P5\n1 1\n# unterminated comment",
        b"P5\n+2 1\n255\n",
        b"P5\n1_0 1\n255\n",
        b"P5\n2 1\n2550000000\n",  # more than 9 digits
    ],
)
def test_pnm_malformed_header_names_the_path(tmp_path, header):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + b"\x00" * 4)
    with pytest.raises(DataError, match=f"malformed PNM header in {re.escape(str(path))}$"):
        read_pnm(path)


@pytest.mark.parametrize("sep", [b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\n#c 9\n", b"#c\n"])
def test_pnm_header_separators(tmp_path, sep):
    path = tmp_path / "s.pgm"
    path.write_bytes(b"P5" + sep + b"2" + sep + b"01" + sep + b"255\n\x07\x09")
    assert np.array_equal(read_pnm(path), [[7, 9]])


@pytest.mark.parametrize("header", [b"P5\n0 1\n255\n", b"P5\n1 1\n0\n", b"P5\n1 1\n70000\n"])
def test_pnm_bad_dimensions_or_maxval(tmp_path, header):
    path = tmp_path / "d.pgm"
    path.write_bytes(header + b"\x00" * 4)
    with pytest.raises(DataError, match=f"bad PNM dimensions or maxval in {re.escape(str(path))}$"):
        read_pnm(path)


def test_pnm_16_bit_ppm_names_the_path(tmp_path):
    path = tmp_path / "w.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(DataError, match=f"16-bit PPM not supported: {re.escape(str(path))}$"):
        read_pnm(path)


def test_flow_round_trip(tmp_path):
    flow = np.zeros((4, 4, 2), dtype=np.float32)
    flow[..., 0] = 1.0
    path = tmp_path / "f.flo"
    write_flow(path, flow)
    out = load_flow(path)
    assert out.shape == (4, 4, 2)
    assert np.array_equal(out, flow)


def test_flow_bad_magic(tmp_path):
    path = tmp_path / "f.flo"
    path.write_bytes(struct.pack("<f", 1.0) + struct.pack("<ii", 1, 1) + b"\x00" * 8)
    with pytest.raises(DataError, match="bad flow magic"):
        load_flow(path)


def test_flow_non_finite(tmp_path):
    path = tmp_path / "f.flo"
    payload = struct.pack("<f", 202021.25) + struct.pack("<ii", 1, 1)
    payload += struct.pack("<ff", float("nan"), 0.0)
    path.write_bytes(payload)
    with pytest.raises(DataError, match="non-finite flow"):
        load_flow(path)


def test_flow_truncated(tmp_path):
    path = tmp_path / "f.flo"
    payload = struct.pack("<f", 202021.25) + struct.pack("<ii", 4, 4)
    path.write_bytes(payload + b"\x00" * 8)
    with pytest.raises(DataError, match="truncated"):
        load_flow(path)


def test_flow_trailing_bytes(tmp_path):
    path = tmp_path / "f.flo"
    write_flow(path, np.zeros((4, 4, 2)))
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 40)
    with pytest.raises(DataError, match=re.escape(f"40 bytes after the 4x4 flow raster in {path}")):
        load_flow(path)
