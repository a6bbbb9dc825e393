import hashlib
import os

import numpy as np
import pytest

from conftest import graph_from_edges, tree_digest
from vidseg.cli import main
from vidseg.mrf import MRFProblem, mrf_energy, solve_binary
from vidseg.synth import (
    SynthConfig,
    dense_solve_oracle,
    enumerate_labelings_oracle,
    generate,
    write_dataset,
)
from vidseg.video import warp_pixels


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
    for t in range(1, ds.config.frame_count):
        assert np.array_equal(ds.gt_masks[t], ds.gt_masks[0])


def test_flow_warps_gt_exactly():
    ds = generate(_small_cfg())
    for t in range(1, ds.config.frame_count):
        dest = warp_pixels(ds.flows[t - 1])[ds.gt_masks[t - 1]]
        assert np.array_equal(np.sort(dest), np.flatnonzero(ds.gt_masks[t]))


def test_superpixels_respect_boundary():
    ds = generate(_small_cfg())
    for t in range(ds.config.frame_count):
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
    assert np.array_equal(d1.video.frames, d2.video.frames)
    assert np.array_equal(d1.superpixels.labels, d2.superpixels.labels)
    assert all(
        p1.class_confidences == p2.class_confidences
        for p1, p2 in zip(d1.proposals, d2.proposals)
    )


def test_written_tree_deterministic(tmp_path):
    write_dataset(generate(_small_cfg()), tmp_path / "a")
    write_dataset(generate(_small_cfg()), tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


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
        ("--confidence-noise", ["0.1"], {"confidence_noise_sigma": 0.1}),
        ("--color-noise", ["5.5"], {"color_noise_sigma": 5.5}),
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
        ("--color-noise", ["nan"], "color_noise_sigma"),
        ("--confidence-base", ["nan"], "confidence_base"),
    ],
)
def test_synth_cli_rejects_an_unusable_field_before_writing(tmp_path, capsys, flag, values, field):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *_SMALL_ARGV, flag, *values]) == 2
    assert f"{field} must be >= " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dense_oracle_two_node():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    x = dense_solve_oracle(g, np.array([1.0, 0.0]), mu=0.5)
    assert np.allclose(x, [0.6, 0.4], atol=1e-14)


def test_dense_oracle_no_edges_gives_eta_c():
    g = graph_from_edges(3, spatial=[])
    c = np.array([0.9, 0.3, 0.0])
    x = dense_solve_oracle(g, c, mu=0.5)
    assert np.allclose(x, c / 3.0, atol=1e-15)


def test_dense_oracle_size_limit():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    g.frame_offsets = np.array([0, 1001])
    with pytest.raises(ValueError, match="1000"):
        dense_solve_oracle(g, np.zeros(1001), mu=0.5)


def test_enumeration_unary_only():
    problem = MRFProblem(
        cost_object=np.array([0.0, 3.0, 1.0]),
        cost_background=np.array([2.0, 1.0, 5.0]),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    labeling, best = enumerate_labelings_oracle(problem)
    assert labeling.labels.tolist() == [True, False, True]
    assert best == 2.0


def test_enumeration_tie_prefers_background():
    problem = MRFProblem(
        cost_object=np.ones(3),
        cost_background=np.ones(3),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    labeling, best = enumerate_labelings_oracle(problem)
    assert not labeling.labels.any()
    assert best == 3.0


def test_enumeration_refuses_large():
    problem = MRFProblem(
        cost_object=np.zeros(17),
        cost_background=np.zeros(17),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    with pytest.raises(ValueError, match="16"):
        enumerate_labelings_oracle(problem)


def test_enumeration_agrees_with_mincut(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        edges = []
        for i in range(n - 1):
            edges.append((i, i + 1))
        problem = MRFProblem(
            cost_object=rng.integers(0, 10, size=n).astype(float),
            cost_background=rng.integers(0, 10, size=n).astype(float),
            edges=np.array(edges, dtype=np.int64),
            edge_weight=rng.integers(0, 8, size=len(edges)).astype(float),
        )
        _, best = enumerate_labelings_oracle(problem)
        assert mrf_energy(problem, solve_binary(problem).labels) == best
