import hashlib
import os

import numpy as np
import pytest

from conftest import tree_digest
from vidseg.cli import main
from vidseg.synth import (
    SYNTH_NOISE_BOUNDS,
    SynthConfig,
    generate,
    write_dataset,
)
from vidseg.video import load_flow, warp_pixels


def _small_cfg(**kw):
    base = dict(
        width=48,
        height=48,
        frame_count=5,
        shape_width=16,
        shape_height=16,
        start_x=4,
        start_y=6,
        velocity=(2, 1),
        cell_size=8,
        seed=7,
    )
    base.update(kw)
    return SynthConfig(**base)


def test_gt_centroid_displacement():
    cfg = SynthConfig(frame_count=6, seed=0)
    ds = generate(cfg)
    def centroid(mask):
        ys, xs = np.nonzero(mask)
        return xs.mean(), ys.mean()
    c0 = centroid(ds.gt_masks[0])
    c5 = centroid(ds.gt_masks[5])
    assert (c5[0] - c0[0], c5[1] - c0[1]) == (10.0, 5.0)


def test_zero_velocity_static():
    ds = generate(_small_cfg(velocity=(0, 0)))
    assert all(not f.any() for f in ds.flows)
    for t in range(1, len(ds.frames)):
        assert np.array_equal(ds.gt_masks[t], ds.gt_masks[0])


def test_flow_warps_gt_exactly():
    ds = generate(_small_cfg())
    for t in range(1, len(ds.frames)):
        dest = warp_pixels(ds.flows[t - 1])[ds.gt_masks[t - 1]]
        assert np.array_equal(np.sort(dest), np.flatnonzero(ds.gt_masks[t]))


def test_superpixels_respect_boundary():
    ds = generate(_small_cfg())
    for t in range(len(ds.frames)):
        labels = ds.superpixels.labels[t]
        gt = ds.gt_masks[t]
        for s in range(ds.superpixels.counts[t]):
            member = labels == s
            inside = gt[member]
            assert inside.all() or not inside.any()


def test_disc_shape():
    ds = generate(_small_cfg(shape="disc"))
    mask = ds.gt_masks[0]
    assert 0 < mask.sum() < mask.size
    ys, xs = np.nonzero(mask)
    assert xs.min() >= 4 and ys.min() >= 6


def test_shape_exits_frame_rejected():
    with pytest.raises(ValueError, match="exits frame"):
        generate(_small_cfg(velocity=(20, 0)))


def test_unknown_shape_rejected():
    with pytest.raises(ValueError, match="unknown shape 'star'"):
        generate(SynthConfig(shape="star"))


def test_frame_count_past_what_frame_names_sort_rejected():
    SynthConfig(frame_count=10_000, velocity=(0, 0)).validate()
    with pytest.raises(ValueError, match="frame_count must be <= 10000"):
        SynthConfig(frame_count=10_001, velocity=(0, 0)).validate()


def test_synth_cli_rejects_more_superpixels_than_a_pgm_holds_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["synth", "--out", str(out), "--width", "300", "--height", "300", "--cell-size", "1",
            "--frames", "2", "--velocity", "0", "0"]
    assert main(argv) == 2
    assert "90000 superpixels in a frame" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_proposal_jittered_out_of_frame_is_not_emitted(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--shape-size", "2", "2", "--start", "0", "0",
                 "--velocity", "0", "0", "--frames", "3", "--confidence-base", "0.6"]) == 0
    manifest = (data / "proposals" / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 2  # frame 0's box left the frame; frames 1 and 2 keep theirs
    assert main(["pipeline", "--config", str(data / "config.json")]) == 0


def test_class_id_that_breaks_csv_rows_rejected():
    with pytest.raises(ValueError, match="comma or line break"):
        generate(_small_cfg(class_id="a,b"))


@pytest.mark.parametrize("bad", ["../../escaped", "", ".", "..", "a/b", "a\\b"])
def test_class_id_that_is_not_a_path_component_rejected(tmp_path, capsys, bad):
    with pytest.raises(ValueError, match="not a single path component"):
        generate(_small_cfg(class_id=bad))
    out = tmp_path / "data"
    assert main(["synth", "--class-id", bad, "--out", str(out), "--frames", "2"]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generation_deterministic():
    d1 = generate(_small_cfg())
    d2 = generate(_small_cfg())
    assert np.array_equal(d1.frames, d2.frames)
    assert np.array_equal(d1.superpixels.labels, d2.superpixels.labels)
    assert all(
        p1.class_confidences == p2.class_confidences
        for p1, p2 in zip(d1.proposals, d2.proposals)
    )


def test_written_tree_deterministic(tmp_path):
    write_dataset(generate(_small_cfg()), tmp_path / "a")
    write_dataset(generate(_small_cfg()), tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_zero_flow_noise_writes_the_tree_of_exact_flow(tmp_path):
    # the digest of _small_cfg()'s tree before flow_noise_sigma existed
    pinned = "4497393034ee955cc1d2310a299139755ee7ccad5360d73db93a1448dcdd7ee6"
    write_dataset(generate(_small_cfg(flow_noise_sigma=0.0)), tmp_path / "zero")
    assert tree_digest(tmp_path / "zero") == pinned


def test_flow_noise_changes_only_the_flow(tmp_path):
    clean = generate(_small_cfg())
    write_dataset(clean, tmp_path / "clean")
    write_dataset(generate(_small_cfg(flow_noise_sigma=2.0)), tmp_path / "noisy")
    a, b = _file_digests(tmp_path / "clean"), _file_digests(tmp_path / "noisy")
    assert a.keys() == b.keys()
    changed = {name for name in a if a[name] != b[name]}
    assert changed == {name for name in a if name.startswith("flow" + os.sep)}
    assert len(changed) == len(clean.flows) == 4
    deviation = np.stack([
        load_flow(os.path.join(tmp_path, "noisy", "flow", f"flow_{t:04d}.flo")) - flow
        for t, flow in enumerate(clean.flows)
    ])
    # 18,432 draws (4 pairs x 48 x 48 pixels x 2 components): the standard
    # errors of the sample mean and std are about 0.015 and 0.01
    assert abs(deviation.mean()) < 0.05
    assert abs(deviation.std() - 2.0) < 0.05


def test_largest_flow_noise_writes_finite_flow(tmp_path):
    sigma = np.nextafter(SYNTH_NOISE_BOUNDS["flow_noise_sigma"], 0.0)
    write_dataset(generate(_small_cfg(flow_noise_sigma=sigma)), tmp_path)
    flows = [load_flow(os.path.join(tmp_path, "flow", f"flow_{t:04d}.flo")) for t in range(4)]
    assert np.abs(np.stack(flows)).max() > sigma  # load_flow itself rejects a non-finite value


def _file_digests(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _synth_config_json(class_id):
    """The config.json `vidseg synth` writes next to a dataset, byte for byte."""
    return (
        '{\n  "classes": [\n    "%s"\n  ],\n  "flow_dir": "flow",\n  "gt_dir": "gt",\n'
        '  "motion_dir": "motion",\n  "out_dir": "out",\n'
        '  "proposal_manifest": "proposals/manifest.jsonl",\n'
        '  "superpixel_dir": "superpixels",\n  "video_dir": "frames"\n}\n' % class_id
    )


def _synth_cli_tree(out, argv):
    """Run `vidseg synth` into out; returns its file digests without config.json and that file."""
    assert main(["synth", "--out", str(out), *argv]) == 0
    with open(os.path.join(out, "config.json")) as fh:
        config = fh.read()
    tree = _file_digests(out)
    del tree["config.json"]
    return tree, config


def _written_tree(out, cfg):
    write_dataset(generate(cfg), str(out))
    return _file_digests(out)


def test_synth_cli_without_flags_writes_the_default_config(tmp_path, capsys):
    tree, config = _synth_cli_tree(tmp_path / "cli", [])
    assert tree == _written_tree(tmp_path / "lib", SynthConfig())
    assert config == _synth_config_json("object")


# A small clip: 3 frames of 40x40 with a 12x12 shape.
_SMALL_ARGV = ["--frames", "3", "--width", "40", "--height", "40", "--shape-size", "12", "12"]
_SMALL_FIELDS = dict(frame_count=3, width=40, height=40, shape_width=12, shape_height=12)


@pytest.mark.parametrize(
    "flag, values, fields",
    [
        ("--seed", ["3"], {"seed": 3}),
        ("--frames", ["2"], {"frame_count": 2}),
        ("--width", ["44"], {"width": 44}),
        ("--height", ["36"], {"height": 36}),
        ("--shape", ["disc"], {"shape": "disc"}),
        ("--shape-size", ["10", "14"], {"shape_width": 10, "shape_height": 14}),
        ("--start", ["6", "8"], {"start_x": 6, "start_y": 8}),
        ("--velocity", ["1", "2"], {"velocity": (1, 2)}),
        ("--cell-size", ["4"], {"cell_size": 4}),
        ("--proposals-per-frame", ["2"], {"proposals_per_frame": 2}),
        ("--jitter", ["3"], {"jitter_px": 3}),
        ("--confidence-base", ["0.3"], {"confidence_base": 0.3}),
        # argparse alone reads neither as a value after a space
        ("--confidence-base", ["-1e-3"], {"confidence_base": -1e-3}),
        ("--confidence-base", ["-inf"], {"confidence_base": -np.inf}),
        ("--confidence-noise", ["0.1"], {"confidence_noise_sigma": 0.1}),
        ("--color-noise", ["5.5"], {"color_noise_sigma": 5.5}),
        ("--flow-noise", ["2"], {"flow_noise_sigma": 2.0}),
        ("--class-id", ["car"], {"class_id": "car"}),
    ],
)
def test_synth_cli_flag_sets_its_config_field(tmp_path, capsys, flag, values, fields):
    tree, config = _synth_cli_tree(tmp_path / "cli", [*_SMALL_ARGV, flag, *values])
    assert tree == _written_tree(tmp_path / "lib", SynthConfig(**{**_SMALL_FIELDS, **fields}))
    # the flag matters: the small clip without it is a different tree
    assert tree != _written_tree(tmp_path / "base", SynthConfig(**_SMALL_FIELDS))
    assert config == _synth_config_json(fields.get("class_id", "object"))


@pytest.mark.parametrize(
    "flag, values, field",
    [
        ("--frames", ["0"], "frame_count"),
        ("--width", ["0"], "width"),
        ("--height", ["-3"], "height"),
        ("--cell-size", ["0"], "cell_size"),
        ("--shape-size", ["0", "12"], "shape_width"),
        ("--shape-size", ["12", "0"], "shape_height"),
        ("--proposals-per-frame", ["0"], "proposals_per_frame"),
        ("--jitter", ["-1"], "jitter_px"),
        ("--color-noise", ["-1"], "color_noise_sigma"),
        ("--confidence-noise", ["-0.5"], "confidence_noise_sigma"),
        ("--confidence-noise", ["-1e-3"], "confidence_noise_sigma"),
        ("--color-noise", ["-inf"], "color_noise_sigma"),
        ("--color-noise", ["nan"], "color_noise_sigma"),
        ("--confidence-base", ["nan"], "confidence_base"),
        ("--flow-noise", ["-1"], "flow_noise_sigma"),
        ("--flow-noise", ["-inf"], "flow_noise_sigma"),
        ("--flow-noise", ["inf"], "flow_noise_sigma"),
        ("--flow-noise", ["1e39"], "flow_noise_sigma"),  # past float32 max
        ("--flow-noise", ["1e38"], "flow_noise_sigma"),  # its draws would pass float32 max
        ("--color-noise", ["inf"], "color_noise_sigma"),
        ("--confidence-noise", ["inf"], "confidence_noise_sigma"),
    ],
)
def test_synth_cli_rejects_an_unusable_field_before_writing(tmp_path, capsys, flag, values, field):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *_SMALL_ARGV, flag, *values]) == 2
    assert f"{field} must be >= " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_cli_over_a_longer_clip_rejected_before_writing(tmp_path, capsys):
    # the older clip's frames 2-3 would be read as the new clip's, so nothing is written
    out = str(tmp_path / "data")
    assert main(["synth", "--out", out, *_SMALL_ARGV, "--frames", "4"]) == 0
    before = tree_digest(out)
    assert main(["synth", "--out", out, *_SMALL_ARGV]) == 2
    stale = os.path.join(out, "frames", "frame_0003.ppm")
    assert f"error: {stale} is not a file of this clip" in capsys.readouterr().err
    assert tree_digest(out) == before


@pytest.mark.parametrize("directory, name", [("frames", "extra.PGM"), ("superpixels", "x.pgm"),
                                             ("motion", "x.pgm"), ("gt", "x.pgm"),
                                             ("flow", "x.flo"), ("proposals", "mask_99999.pgm")])
def test_synth_cli_rejects_a_file_its_loader_would_read(tmp_path, capsys, directory, name):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *_SMALL_ARGV]) == 0
    (out / directory / "notes.txt").write_text("no loader reads this\n")
    assert main(["synth", "--out", str(out), *_SMALL_ARGV]) == 0  # the same clip again
    before = tree_digest(out)
    (out / directory / name).write_bytes(b"")
    capsys.readouterr()
    assert main(["synth", "--out", str(out), *_SMALL_ARGV]) == 2
    assert f"{out / directory / name} is not a file of this clip" in capsys.readouterr().err
    os.remove(out / directory / name)
    assert tree_digest(out) == before
