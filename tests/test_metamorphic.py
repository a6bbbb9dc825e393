"""Metamorphic checks at clip scale: transposing or mirroring a clip, permuting the
superpixel ids in its label files, or renaming its class leaves the segmentation as it
was, up to the same transform. No oracle is needed, so the checks run on the moving M
clip (20 frames, 21k nodes) with dense noisy flow. Each relation transforms the
generated arrays, flow noise included, rather than generating the clip again."""

import dataclasses
import os

import numpy as np
import pytest

from vidseg.pipeline import PipelineConfig, read_confidence_csv, run_pipeline
from vidseg.pnm import write_pgm
from vidseg.synth import SynthConfig, generate, write_dataset
from vidseg.video import SuperpixelMap, list_frames, load_mask, load_superpixels

M_NOISY = SynthConfig(frame_count=20, cell_size=4, flow_noise_sigma=2.0, confidence_base=0.6,
                      seed=5)
CLASS = M_NOISY.class_id


def _transformed(ds, pixels, flow):
    """ds with pixels applied to every (T, H, W, ...) array and flow to every flow field."""
    return dataclasses.replace(
        ds,
        frames=pixels(ds.frames),
        superpixels=SuperpixelMap(pixels(ds.superpixels.labels)),
        flows=[flow(f) for f in ds.flows],
        motion_masks=pixels(ds.motion_masks),
        gt_masks={t: pixels(mask[None])[0] for t, mask in ds.gt_masks.items()},
        proposals=[dataclasses.replace(p, mask=pixels(p.mask[None])[0]) for p in ds.proposals],
    )


def _transpose(a):
    return np.swapaxes(a, 1, 2)


def _mirror_x(a):
    return a[:, :, ::-1]


def _renamed(ds, name):
    proposals = [dataclasses.replace(p, class_confidences={name: p.class_confidences[CLASS]})
                 for p in ds.proposals]
    return dataclasses.replace(ds, proposals=proposals)


def _permuted_ids(ds):
    """Each frame's ids mapped to distinct random 16-bit values, in random order."""
    rng = np.random.default_rng(11)
    sp = ds.superpixels
    return [rng.choice(65536, n, replace=False).astype(np.uint16)[sp.labels[t]]
            for t, n in enumerate(sp.counts)]


def _run(ds, root, cls=CLASS, label_frames=None):
    """Write ds under root (label_frames, if given, over its label files), run the
    pipeline in process, and return its masks and per-pixel pooled and adapted
    confidences, each (T, H, W)."""
    paths = write_dataset(ds, root)
    for t, frame in enumerate(label_frames or ()):
        write_pgm(os.path.join(paths["superpixel_dir"], f"frame_{t:04d}.pgm"), frame)
    out = os.path.join(root, "out")
    run_pipeline(PipelineConfig(**paths, out_dir=out, classes=[cls]))
    labels = load_superpixels(paths["superpixel_dir"], ds.superpixels.frame_count).labels
    result = {"masks": np.stack([load_mask(p) for p in
                                 list_frames(os.path.join(out, "masks", cls), ".pgm")])}
    for name in ("pooled", "adapted"):
        field = read_confidence_csv(os.path.join(out, f"{name}.csv"))[cls]
        result[name] = np.stack([values[frame] for values, frame in zip(field.values, labels)])
    return result


@pytest.fixture(scope="module")
def clip(tmp_path_factory):
    ds = generate(M_NOISY)
    return ds, _run(ds, str(tmp_path_factory.mktemp("original")))


RELATIONS = {
    # the flow transposed too, its dx and dy swapped
    "transpose": lambda ds, root: (_transpose, _run(
        _transformed(ds, _transpose, lambda f: np.swapaxes(f, 0, 1)[..., ::-1]), root)),
    "mirror_x": lambda ds, root: (_mirror_x, _run(
        _transformed(ds, _mirror_x, lambda f: f[:, ::-1] * np.float32([-1, 1])), root)),
    "permuted_ids": lambda ds, root: (lambda a: a, _run(
        ds, root, label_frames=_permuted_ids(ds))),
    "renamed_class": lambda ds, root: (lambda a: a, _run(
        _renamed(ds, "renamed"), root, cls="renamed")),
}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_segmentation_is_unchanged_by(clip, tmp_path, relation):
    ds, original = clip
    assert original["masks"].any() and not original["masks"].all()
    undo, result = RELATIONS[relation](ds, str(tmp_path))  # each transform is its own inverse
    assert np.array_equal(undo(result["masks"]), original["masks"])
    for name in ("pooled", "adapted"):
        np.testing.assert_allclose(undo(result[name]), original[name], rtol=0, atol=1e-12)
