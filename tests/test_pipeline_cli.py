import ast
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from vidseg import cli, mrf, pipeline
from vidseg.cli import main
from vidseg.graph import build_graph
from vidseg.pipeline import (
    PipelineConfig,
    StageError,
    load_inputs,
    read_confidence_csv,
    run_pipeline,
    segment_class,
    write_confidence_csv,
)
from vidseg.pnm import DataError, write_pgm, write_ppm
from vidseg.proposals import ConfidenceField
from vidseg.synth import SynthConfig, generate, write_dataset
from vidseg.video import FLOW_MAGIC, check_id, compute_superpixel_stats, load_mask, write_flow


def _synth_config(**synth_kw):
    """The SynthConfig of the test clip (8 frames, 64 x 64), synth_kw on top."""
    base = dict(
        width=64,
        height=64,
        frame_count=8,
        shape_width=24,
        shape_height=24,
        start_x=4,
        start_y=6,
        velocity=(2, 1),
        cell_size=8,
        confidence_base=0.6,
        seed=21,
    )
    base.update(synth_kw)
    return SynthConfig(**base)


def _dataset_config(root, **synth_kw):
    write_dataset(generate(_synth_config(**synth_kw)), root)
    config = {
        "video_dir": "frames",
        "superpixel_dir": "superpixels",
        "flow_dir": "flow",
        "motion_dir": "motion",
        "gt_dir": "gt",
        "proposal_manifest": os.path.join("proposals", "manifest.jsonl"),
        "out_dir": "out",
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return config_path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return str(root), _dataset_config(str(root))


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_arrays(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _mask_digests(mask_dir):
    out = {}
    for dirpath, _, filenames in sorted(os.walk(mask_dir)):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, mask_dir)] = _digest(path)
    return out


def test_defaults_match_published_constants():
    cfg = PipelineConfig()
    assert cfg.confidence_threshold == 0.01
    assert cfg.mu == 0.5
    assert cfg.motion_coherence_weight == 2.0
    assert cfg.lambda_object == 10.0
    assert cfg.lambda_spatial == 1000.0
    assert cfg.lambda_temporal == 2000.0
    assert cfg.gmm_components == 5


def test_pipeline_cli_smoke(dataset, capsys):
    root, config_path = dataset
    assert main(["pipeline", "--config", config_path]) == 0
    out = os.path.join(root, "out")
    assert os.path.isfile(os.path.join(out, "report.csv"))
    assert os.path.isfile(os.path.join(out, "pooled.csv"))
    assert os.path.isfile(os.path.join(out, "adapted.csv"))
    assert os.path.isdir(os.path.join(out, "masks", "object"))
    assert os.path.isdir(os.path.join(out, "overlays", "object"))
    assert "pipeline done" in capsys.readouterr().out


def test_missing_flow_names_ingest_stage(tmp_path, capsys):
    root = str(tmp_path / "broken")
    config_path = _dataset_config(root)
    flow_dir = os.path.join(root, "flow")
    os.remove(os.path.join(flow_dir, sorted(os.listdir(flow_dir))[0]))
    before = _files_under(str(tmp_path), dirs=True)
    code = main(["pipeline", "--config", config_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "ingest" in err
    assert _files_under(str(tmp_path), dirs=True) == before  # not even an empty out_dir


def test_usage_error_exit_code(capsys):
    assert main(["pipeline"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1


def test_nonconvergence_exit_code(tmp_path, capsys):
    root = str(tmp_path / "short")
    config_path = _dataset_config(root)
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg.update({"max_iterations": 1, "tolerance": 1e-12})
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    code = main(["pipeline", "--config", config_path])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-convergence" in err


def test_segment_nonconvergence_names_the_stage(dataset, tmp_path, capsys, monkeypatch):
    import vidseg.mrf
    from vidseg.propagation import ConvergenceError

    def uncertified(problem):
        raise ConvergenceError("no min-cut certificate", None, 1.0, 32)

    monkeypatch.setattr(vidseg.mrf, "solve_binary", uncertified)
    _, config_path = dataset
    assert main(["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err and "segment: no min-cut certificate" in err


def test_a_falling_em_log_likelihood_exits_3(dataset, tmp_path, capsys, monkeypatch):
    import vidseg.gmm

    step, calls = vidseg.gmm._m_step, []

    def drifting(*args):  # the third M-step of the run moves every mean 50 units off
        model = step(*args)
        calls.append(None)
        if len(calls) == 3:
            model = dataclasses.replace(model, means=model.means + 50.0)
        return model

    monkeypatch.setattr(vidseg.gmm, "_m_step", drifting)
    _, config_path = dataset
    assert main(["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err and "segment: EM log-likelihood fell by" in err
    assert not os.path.exists(tmp_path / "out" / "masks")


@pytest.mark.parametrize("fault, message", [
    ("no rounds", "min-cut uncertified after 0 rounds"),
    ("energy off by 1", "min-cut certificate failed: energy"),
    ("flow columns reversed", "maximum_flow returned its flow on another sparsity pattern"),
])
def test_an_uncertified_min_cut_exits_3(tmp_path, capsys, monkeypatch, fault, message):
    from scipy.sparse import csgraph

    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7"]) == 0  # the S clip
    if fault == "no rounds":
        monkeypatch.setattr(mrf, "MAX_ROUNDS", 0)
    elif fault == "energy off by 1":
        energy = mrf.mrf_energy
        monkeypatch.setattr(mrf, "mrf_energy", lambda problem, labels: energy(problem, labels) + 1)
    else:
        solve = csgraph.maximum_flow

        def reversed_columns(graph, source, sink, **kwargs):
            result = solve(graph, source, sink, **kwargs)
            return SimpleNamespace(flow_value=result.flow_value, flow=result.flow[:, ::-1])

        monkeypatch.setattr(csgraph, "maximum_flow", reversed_columns)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["pipeline", "--config", os.path.join(data, "config.json"), "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"error (non-convergence): segment: {message}" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "masks"))


@pytest.mark.parametrize("command", ["pipeline", "adapt"])
def test_an_uncertified_diffusion_exits_3(dataset, tmp_path, capsys, monkeypatch, command):
    import vidseg.propagation

    solve = vidseg.propagation.propagate

    def off_by_a_millionth(s, c, cfg):  # within CG's tolerance by its own account
        result = solve(s, c, cfg)
        return dataclasses.replace(result, x=result.x + 1e-6)

    monkeypatch.setattr(vidseg.propagation, "propagate", off_by_a_millionth)
    root, config_path = dataset
    argv = ["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]
    if command == "adapt":
        pooled = str(tmp_path / "pooled.csv")
        assert main(["pool", "--config", config_path, "--out", pooled]) == 0
        argv = ["adapt", "--config", config_path, "--confidence", pooled,
                "--out", str(tmp_path / "adapted.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err and "adapt: diffusion uncertified: stationarity residual" in err
    assert not os.path.exists(tmp_path / "adapted.csv")
    assert not os.path.exists(tmp_path / "out" / "adapted.csv")


def test_staged_equals_single_shot(tmp_path, dataset):
    root, config_path = dataset
    out_single = os.path.join(root, "out")
    if not os.path.isdir(out_single):
        assert main(["pipeline", "--config", config_path]) == 0

    staged = str(tmp_path / "staged")
    os.makedirs(staged)
    pooled_csv = os.path.join(staged, "pooled.csv")
    adapted_csv = os.path.join(staged, "adapted.csv")
    assert main(["pool", "--config", config_path, "--out", pooled_csv]) == 0
    assert main(["adapt", "--config", config_path, "--confidence", pooled_csv,
                 "--out", adapted_csv]) == 0
    assert main(["segment", "--config", config_path, "--confidence", adapted_csv,
                 "--out", staged]) == 0

    assert _digest(pooled_csv) == _digest(os.path.join(out_single, "pooled.csv"))
    assert _digest(adapted_csv) == _digest(os.path.join(out_single, "adapted.csv"))
    assert _mask_digests(os.path.join(staged, "masks")) == _mask_digests(
        os.path.join(out_single, "masks")
    )


def test_adapt_resumption_round_trip(dataset, tmp_path):
    root, config_path = dataset
    out = os.path.join(root, "out")
    if not os.path.isdir(out):
        assert main(["pipeline", "--config", config_path]) == 0
    fields = read_confidence_csv(os.path.join(out, "adapted.csv"))
    assert set(fields) == {"object"}
    flat = fields["object"].flat
    assert np.all((flat >= 0) & (flat <= 1))
    # writing what we read reproduces the bytes (full-precision round trip)
    clone = tmp_path / "clone.csv"
    write_confidence_csv(clone, fields)
    assert _digest(clone) == _digest(os.path.join(out, "adapted.csv"))


def test_confidence_csv_golden_bytes(tmp_path):
    fields = {
        "car": ConfidenceField("car", np.array([0.1, 1 / 3, 1e-300]), [2, 1]),
        "bus": ConfidenceField("bus", np.array([5e-324, 0.0, 1.0]), [2, 1]),
    }
    path = tmp_path / "conf.csv"
    write_confidence_csv(path, fields)
    assert path.read_bytes() == (
        b"frame,superpixel_id,class,value\n"
        b"0,0,bus,4.9406564584124654e-324\n"
        b"0,1,bus,0\n"
        b"1,0,bus,1\n"
        b"0,0,car,0.10000000000000001\n"
        b"0,1,car,0.33333333333333331\n"
        b"1,0,car,1e-300\n"
    )
    back = read_confidence_csv(path)
    assert set(back) == set(fields)
    for cls, fieldv in fields.items():
        assert len(back[cls].values) == len(fieldv.values)
        for got, want in zip(back[cls].values, fieldv.values):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_confidence_csv_write_that_fails_leaves_path_as_it_was(tmp_path):
    def values():  # a stand-in field: its first frame's rows are written before the second raises
        yield np.array([0.5, 0.25])
        raise RuntimeError("second frame")

    fresh, old = tmp_path / "new" / "conf.csv", tmp_path / "old.csv"
    write_confidence_csv(old, {"object": ConfidenceField("object", np.array([1.0]), [1])})
    before = old.read_bytes()
    for path in (fresh, old):
        with pytest.raises(RuntimeError, match="second frame"):
            write_confidence_csv(path, {"object": SimpleNamespace(values=values())})
    assert not fresh.exists()
    assert old.read_bytes() == before


# The `vidseg synth` arguments of the clips whose outputs
# tests/pinned_outputs.sha256 and tests/pinned_values.json pin: the default
# clip at seed 7 (S) and a moving 20-frame clip with 4-pixel cells at seed 4
# (M). Both are fixed; a change to either manifest names each changed file
# and why.
PINNED_CLIPS = {
    "S-seed7": ["--seed", "7"],
    "M-seed4": ["--seed", "4", "--frames", "20", "--cell-size", "4"],
}
# Relative tolerance of the by-value checks. CG's inner products are numpy einsum
# sums, not BLAS calls, so the BLAS thread count moves no bit of them; EM's exp, log
# and matrix products may still round differently on another BLAS or numpy, so floats
# are not pinned by bytes.
PINNED_RTOL = 1e-12


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """Output dirs of PINNED_CLIPS run through `vidseg synth` and `vidseg pipeline --dump-graph`."""
    runs = {}
    for clip, args in PINNED_CLIPS.items():
        data = str(tmp_path_factory.mktemp(clip))
        runs[clip] = os.path.join(data, "out")
        assert main(["synth", "--out", data, *args]) == 0
        assert main(["pipeline", "--config", os.path.join(data, "config.json"),
                     "--out", runs[clip], "--dump-graph"]) == 0
    return runs


def test_outputs_match_pinned_digests(pinned_runs):
    # masks come from an exact min-cut and pooled.csv from bincount sums, so
    # their bytes depend on no BLAS or SIMD rounding; report.csv follows the masks
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_outputs.sha256")
    with open(manifest) as fh:
        expected = {name: digest for digest, name in (line.split() for line in fh)}
    actual = {}
    for clip, out in pinned_runs.items():
        for rel, digest in _mask_digests(os.path.join(out, "masks")).items():
            actual[f"{clip}/masks/{rel}"] = digest
        for name in ("pooled.csv", "report.csv"):
            actual[f"{clip}/{name}"] = _digest(os.path.join(out, name))
    assert actual == expected


def _float_summary(values):
    """Sum, seeded +-1 projection and sum of magnitudes of some floats. When every
    float moves by at most rtol relative, the first two move by at most rtol times
    the third."""
    values = np.ravel(np.asarray(values, dtype=np.float64))
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=values.size)
    return [float(values.sum()), float(signs @ values), float(np.abs(values).sum())]


def _value_summary(clip, out):
    """Per checked item of one run: its ids (CSV) or shape (JSON) exactly, its floats summed."""
    summary = {}
    for name in ("graph.csv", "adapted.csv"):  # the float is each row's last column
        with open(os.path.join(out, name)) as fh:
            ids, floats = zip(*(line.rsplit(",", 1) for line in fh))
        summary[f"{clip}/{name}"] = {
            "ids": hashlib.sha256("\n".join(ids).encode()).hexdigest(),
            "floats": _float_summary([float(v) for v in floats[1:]]),
        }
    for name in sorted(n for n in os.listdir(out) if n.startswith("gmm_")):
        with open(os.path.join(out, name)) as fh:
            models = json.load(fh)
        for model, params in models.items():
            for key, value in params.items():
                summary[f"{clip}/{name}:{model}.{key}"] = {
                    "shape": list(np.shape(value)),
                    "floats": _float_summary(value),
                }
    return summary


def test_outputs_match_pinned_values(pinned_runs):
    # graph.csv, adapted.csv and gmm_<cls>.json: ids and shapes exactly,
    # floats within PINNED_RTOL of the pinned values (see _float_summary)
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_values.json")
    with open(manifest) as fh:
        expected = json.load(fh)
    actual = {}
    for clip, out in pinned_runs.items():
        actual.update(_value_summary(clip, out))
    assert actual.keys() == expected.keys()
    for item, want in expected.items():
        got = actual[item]
        assert {**got, "floats": None} == {**want, "floats": None}, item
        gap = np.abs(np.subtract(got["floats"], want["floats"]))
        assert np.all(gap <= PINNED_RTOL * want["floats"][2]), item


def test_eval_cli_gt_vs_gt(dataset, capsys):
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    code = main(["eval", "--pred", gt_dir, "--gt", gt_dir])
    out = capsys.readouterr().out
    assert code == 0
    assert "iou_micro=1.000000" in out


def test_eval_cli_report_file(dataset, tmp_path, capsys):
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    for report in (tmp_path / "report.csv", tmp_path / "new" / "dir" / "report.csv"):
        assert main(["eval", "--pred", gt_dir, "--gt", gt_dir, "--out", str(report)]) == 0
        assert report.read_text().splitlines()[1].startswith("video,object,1,")


def test_synth_cli_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["synth", "--out", a, "--seed", "5", "--frames", "4",
                 "--width", "48", "--height", "48", "--shape-size", "16", "16"]) == 0
    assert main(["synth", "--out", b, "--seed", "5", "--frames", "4",
                 "--width", "48", "--height", "48", "--shape-size", "16", "16"]) == 0
    da = _mask_digests(a)
    db = _mask_digests(b)
    assert da and da == db
    # the emitted config is runnable as-is
    assert main(["pipeline", "--config", os.path.join(a, "config.json")]) == 0


def test_skip_adaptation_changes_only_segmentation_input(tmp_path, dataset):
    root, config_path = dataset
    out_full = str(tmp_path / "full")
    out_skip = str(tmp_path / "skip")
    assert main(["pipeline", "--config", config_path, "--out", out_full]) == 0
    assert main(["pipeline", "--config", config_path, "--skip-adaptation",
                 "--out", out_skip]) == 0
    assert _digest(os.path.join(out_full, "pooled.csv")) == _digest(
        os.path.join(out_skip, "pooled.csv")
    )
    assert os.path.isfile(os.path.join(out_full, "adapted.csv"))
    assert not os.path.exists(os.path.join(out_skip, "adapted.csv"))


def test_dump_graph_flag(tmp_path):
    root = str(tmp_path / "dg")
    config_path = _dataset_config(root)
    assert main(["pipeline", "--config", config_path, "--dump-graph"]) == 0
    graph_csv = os.path.join(root, "out", "graph.csv")
    assert os.path.isfile(graph_csv)
    with open(graph_csv) as fh:
        assert fh.readline().strip() == "kind,frame_i,sp_i,frame_j,sp_j,weight"


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"video_dir": "x", "bogus": 1}))
    with pytest.raises(Exception, match="unknown config keys"):
        PipelineConfig.from_json(str(path))


def test_config_that_is_not_a_json_object_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([{"video_dir": "frames"}]))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert f"config {path} is not a JSON object" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == ["config.json"]


def test_run_pipeline_validates_paths(tmp_path):
    cfg = PipelineConfig(
        video_dir=str(tmp_path / "nope"),
        superpixel_dir=str(tmp_path),
        flow_dir=str(tmp_path),
        motion_dir=str(tmp_path),
        proposal_manifest=str(tmp_path / "nope.jsonl"),
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(Exception, match="video_dir"):
        run_pipeline(cfg)


def test_solver_is_no_longer_an_option(tmp_path, capsys):
    # conjugate gradients is the only diffusion solve
    root = str(tmp_path / "data")
    config_path = _dataset_config(root)
    before = _files_under(str(tmp_path), dirs=True)
    for command in (["pipeline"], ["adapt", "--confidence", "pooled.csv", "--out", "a.csv"]):
        assert main([*command, "--config", config_path, "--solver", "iterative"]) == 1
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg["solver"] = "iterative"
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["pipeline", "--config", config_path]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == before


def test_frames_manifest_rejected_before_writing(tmp_path, capsys):
    # a frames.txt would reorder the frames but not the superpixels, flow or masks
    root = str(tmp_path / "ordered")
    config_path = _dataset_config(root)
    frames = os.path.join(root, "frames")
    names = sorted(os.listdir(frames), reverse=True)
    with open(os.path.join(frames, "frames.txt"), "w") as fh:
        fh.writelines(f"{name}\n" for name in names)
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", config_path]) == 2
    assert "frames.txt" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == before


def _eval_with_extra_mask(dataset, tmp_path, capsys, side, extra):
    """Run vidseg eval with a copy of frame 1's ground truth added as `extra` on one side."""
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    odd_dir = str(tmp_path / "masks")
    shutil.copytree(gt_dir, odd_dir)
    shutil.copy(os.path.join(odd_dir, "frame_0001.pgm"), os.path.join(odd_dir, extra))
    dirs = {"--gt": gt_dir, "--pred": gt_dir, side: odd_dir}
    assert main(["eval", "--pred", dirs["--pred"], "--gt", dirs["--gt"]]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("side", ["--gt", "--pred"])
def test_eval_cli_rejects_unmappable_mask_names(dataset, tmp_path, capsys, side):
    assert "notes.pgm" in _eval_with_extra_mask(dataset, tmp_path, capsys, side, "notes.pgm")


@pytest.mark.parametrize("side", ["--gt", "--pred"])
def test_eval_cli_rejects_two_masks_of_one_frame(dataset, tmp_path, capsys, side):
    err = _eval_with_extra_mask(dataset, tmp_path, capsys, side, "other_0001.pgm")
    assert "frame_0001.pgm and other_0001.pgm" in err and "frame 1" in err


@pytest.mark.parametrize("side", ["--gt", "--pred"])
@pytest.mark.parametrize("case, message", [("missing", "missing directory: "), ("empty", "no masks in ")])
def test_eval_cli_rejects_a_missing_or_empty_mask_dir(dataset, tmp_path, capsys, side, case, message):
    # an empty --gt would score nothing, and report a perfect mean
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    odd_dir = str(tmp_path / "masks")
    if case == "empty":
        os.mkdir(odd_dir)
    dirs = {"--gt": gt_dir, "--pred": gt_dir, side: odd_dir}
    assert main(["eval", "--pred", dirs["--pred"], "--gt", dirs["--gt"]]) == 2
    assert message + odd_dir in capsys.readouterr().err


def test_eval_cli_rejects_a_prediction_missing_an_annotated_frame(dataset, tmp_path, capsys):
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    pred_dir = str(tmp_path / "pred")
    shutil.copytree(gt_dir, pred_dir)
    os.remove(os.path.join(pred_dir, "frame_0001.pgm"))
    report = str(tmp_path / "report.csv")
    assert main(["eval", "--pred", pred_dir, "--gt", gt_dir, "--out", report]) == 2
    assert "prediction missing annotated frames: [1]" in capsys.readouterr().err
    assert not os.path.exists(report)


def test_segment_class_writes_nothing(dataset, tmp_path):
    root, config_path = dataset
    out = os.path.join(root, "out")
    if not os.path.isdir(out):
        assert main(["pipeline", "--config", config_path]) == 0
    cfg = PipelineConfig.from_json(config_path, {"out_dir": str(tmp_path / "unused")})
    clip, colors, graph = load_inputs(cfg, tuple(pipeline.STAGE_INPUTS))
    potts = mrf.pairwise_weights(graph, cfg.lambda_spatial, cfg.lambda_temporal)
    fieldv = read_confidence_csv(os.path.join(out, "adapted.csv"))["object"]
    seg = segment_class(cfg, clip, colors, potts, fieldv)
    assert sorted(seg) == ["gmm_bg", "gmm_obj", "labeling", "masks", "problem"]
    assert not os.path.exists(cfg.out_dir)
    for t, name in enumerate(sorted(os.listdir(os.path.join(out, "masks", "object")))):
        written = load_mask(os.path.join(out, "masks", "object", name))
        assert np.array_equal(seg["masks"][t], written)
    with open(os.path.join(out, "gmm_object.json")) as fh:
        models = json.load(fh)
    for name, key in (("object", "gmm_obj"), ("background", "gmm_bg")):
        assert sorted(models[name]) == ["covariances", "means", "weights"]
        for field_name, value in models[name].items():
            assert np.array_equal(value, getattr(seg[key], field_name))
    # the returned problem and labeling are the solve that gave the masks
    labeling = seg["labeling"]
    assert np.array_equal(mrf.rasterize(labeling, clip.superpixels), seg["masks"])
    energy = mrf.mrf_energy(seg["problem"], labeling.labels)
    assert abs(labeling.flow_value - energy) <= mrf.CERTIFICATE_RTOL * max(energy, 1)
    assert labeling.rounds >= 1


def test_run_pipeline_writes_the_confidence_csvs_with_segment_and_eval_stubbed(
    dataset, tmp_path, monkeypatch
):
    # perfbench's write_single_shot_csvs stubs these two stages exactly so, to get the
    # confidence CSVs that the staged route must reproduce
    root, config_path = dataset
    out = os.path.join(root, "out")
    if not os.path.isdir(out):
        assert main(["pipeline", "--config", config_path]) == 0
    monkeypatch.setattr(pipeline, "segment_stage", lambda *args, **kwargs: {})
    monkeypatch.setattr(pipeline, "eval_stage", lambda *args, **kwargs: None)
    cfg = PipelineConfig.from_json(config_path, {"out_dir": str(tmp_path / "csvs")})
    assert run_pipeline(cfg) is None
    assert _files_under(cfg.out_dir) == ["adapted.csv", "pooled.csv"]
    for name in ("pooled.csv", "adapted.csv"):
        assert _digest(os.path.join(cfg.out_dir, name)) == _digest(os.path.join(out, name))


def test_only_adaptation_builds_the_diffusion_operator(dataset, tmp_path, monkeypatch):
    # S is built once per adaptation, for every class at once, and by no other route
    root, config_path = dataset
    out = os.path.join(root, "out")
    if not os.path.isdir(out):
        assert main(["pipeline", "--config", config_path]) == 0
    build, calls = pipeline.diffusion_operator, []

    def counted(graph):
        calls.append(graph.n_nodes)
        return build(graph)

    monkeypatch.setattr(pipeline, "diffusion_operator", counted)
    two_classes = _two_class_config(str(tmp_path / "two"))
    routes = {
        "adapted": ["pipeline", "--config", config_path, "--out", str(tmp_path / "adapted")],
        "skip": ["pipeline", "--config", config_path, "--out", str(tmp_path / "skip"),
                 "--skip-adaptation"],
        "two classes": ["pipeline", "--config", two_classes],
        "staged": ["segment", "--config", config_path, "--confidence",
                   os.path.join(out, "adapted.csv"), "--out", str(tmp_path / "staged")],
    }
    builds = {}
    for name, argv in routes.items():
        before = len(calls)
        assert main(argv) == 0
        builds[name] = len(calls) - before
    assert builds == {"adapted": 1, "skip": 0, "two classes": 1, "staged": 0}
    masks = os.path.join(tmp_path, "two", "out", "masks")
    assert sorted(os.listdir(masks)) == ["car", "object"]
    for run in ("adapted", "staged"):
        assert _mask_digests(str(tmp_path / run / "masks")) == _mask_digests(
            os.path.join(out, "masks")
        )


def _files_under(root, dirs=False):
    """Paths under root, relative to it: the files, and with dirs the directories too."""
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, dirnames, names in os.walk(root)
        for name in names + (dirnames if dirs else [])
    )


@pytest.mark.parametrize(
    "key, bad",
    [
        ("manifest", "a,b"),
        ("classes", "a\nb"),
        ("video_id", "v,1"),
        ("video_id", "v\r"),
        ("manifest", "../../escaped"),
        ("manifest", ""),
        ("classes", ".."),
        ("classes", "."),
        ("classes", "a/b"),
        ("classes", "a\\b"),
        ("video_id", "../v"),
    ],
)
def test_ids_that_break_csv_rows_rejected_before_writing(tmp_path, capsys, key, bad):
    root = str(tmp_path / "ids")
    config_path = _dataset_config(root)
    with open(config_path) as fh:
        cfg = json.load(fh)
    if key == "manifest":
        manifest = os.path.join(root, cfg["proposal_manifest"])
        with open(manifest) as fh:
            lines = [json.loads(line) for line in fh]
        with open(manifest, "w") as fh:
            for rec in lines:
                rec["confidences"] = {bad: rec["confidences"]["object"]}
                fh.write(json.dumps(rec) + "\n")
    else:
        cfg[key] = [bad] if key == "classes" else bad
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    before = _files_under(str(tmp_path))
    out = str(tmp_path / "out")
    assert main(["pipeline", "--config", config_path, "--dump-graph", "--out", out]) == 2
    assert repr(bad) in capsys.readouterr().err
    # nothing inside out_dir, and nothing next to it (a "../" id would land there)
    assert _files_under(str(tmp_path)) == before


def test_segment_cli_rejects_path_class_in_confidence_csv(dataset, tmp_path, capsys):
    _, config_path = dataset
    csv_path = tmp_path / "adapted.csv"
    csv_path.write_text("frame,superpixel_id,class,value\n0,0,../../escaped,0.5\n")
    out = tmp_path / "nested" / "out"
    argv = ["segment", "--config", config_path, "--confidence", str(csv_path), "--out", str(out)]
    assert main(argv) == 2
    assert "'../../escaped'" in capsys.readouterr().err
    assert _files_under(str(tmp_path)) == ["adapted.csv"]


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_segment_cli_rejects_a_confidence_csv_of_no_rows(dataset, tmp_path, capsys, command):
    _, config_path = dataset
    csv_path = tmp_path / "confidence.csv"
    csv_path.write_text("frame,superpixel_id,class,value\n")
    out = tmp_path / "out"
    argv = [command, "--config", config_path, "--confidence", str(csv_path), "--out", str(out)]
    assert main(argv) == 2
    assert f"no confidence rows in {csv_path}" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == ["confidence.csv"]


def test_eval_cli_rejects_ids_that_break_csv_rows(dataset, tmp_path, capsys):
    gt_dir = os.path.join(dataset[0], "gt")
    report = str(tmp_path / "report.csv")
    for flag in ("--video-id", "--class-id"):
        argv = ["eval", "--pred", gt_dir, "--gt", gt_dir, "--out", report, flag, "a,b"]
        assert main(argv) == 2
        assert "'a,b'" in capsys.readouterr().err
    assert not os.path.exists(report)


def test_read_confidence_csv_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "pooled.csv"
    path.write_text(
        "frame,superpixel_id,class,value\n0,0,object,0.25\n0,1,object,0.5\n0,0,object,0.99\n"
    )
    with pytest.raises(DataError, match="duplicate confidence row 4"):
        read_confidence_csv(str(path))


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,0,object"], "malformed confidence row 3"),
        (["0,0,object,0.5,1"], "malformed confidence row 3"),
        (["0,0,object,high"], "malformed confidence row 3"),
        (["1.5,0,object,0.5"], "malformed confidence row 3"),
        (["0,x,object,0.5"], "malformed confidence row 3"),
        (["-1,0,object,0.5"], "negative id in confidence row 3"),
        (["0,1,object,0.5", "-1,0,object,0.5"], "negative id in confidence row 4"),
        (["0,-1,object,0.5"], "negative id in confidence row 3"),
        (["0,2,object,0.5"], "non-contiguous superpixel ids for frame 0"),
        (["1,1,object,0.5"], "non-contiguous superpixel ids for frame 1"),
        (["0,1,object,nan"], "non-finite value in confidence row 3"),
        (["0,1,object,0.5", "1,0,object,inf"], "non-finite value in confidence row 4"),
        (["0,1,object,-inf"], "non-finite value in confidence row 3"),
        # ids are ASCII decimal integers and values plain decimal floats, as
        # written; what int() and float() take beyond that is malformed
        (["1.0,0,object,0.5"], "malformed confidence row 3"),
        (["1_0,0,object,0.5"], "malformed confidence row 3"),
        (["0,\u0661,object,0.5"], "malformed confidence row 3"),
        (["0,1,object,0_5"], "malformed confidence row 3"),
        (["0,1,object,\u0660.5"], "malformed confidence row 3"),
        (["0,1,object,0x1"], "malformed confidence row 3"),
    ],
    ids=["3-columns", "5-columns", "non-numeric-value", "fractional-frame", "non-numeric-id",
         "negative-frame", "negative-frame-after-rows", "negative-superpixel", "gap-in-frame-0",
         "gap-in-frame-1", "nan", "inf-after-rows", "minus-inf", "integral-float-frame",
         "underscore-frame", "non-ascii-id", "underscore-value", "non-ascii-value", "hex-value"],
)
def test_read_confidence_csv_errors_name_the_row_or_frame(tmp_path, rows, message):
    path = tmp_path / "pooled.csv"
    lines = ["frame,superpixel_id,class,value", "0,0,object,0.25", *rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_confidence_csv(str(path))


def test_read_confidence_csv_rejects_a_float_id_on_numpy_that_truncates_it(tmp_path, monkeypatch):
    # numpy 1.23-1.26 read "1.5" into an int64 field as 1 and only warn; the
    # reader must still reject the row with the caller's warning filters at default
    loadtxt = np.loadtxt

    def truncating_loadtxt(lines, *args, **kwargs):
        text = lines.getvalue() if hasattr(lines, "getvalue") else "\n".join(lines)
        if "1.5," in text:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        return loadtxt(io.StringIO(text.replace("1.5,", "1,")), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "pooled.csv"
    path.write_text("frame,superpixel_id,class,value\n0,0,object,0.25\n0,1.5,object,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(DataError, match="malformed confidence row 3 "):
            read_confidence_csv(str(path))


@pytest.mark.parametrize("blank", ["", "   ", "\t", " \f"], ids=["empty", "spaces", "tab", "form-feed"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("0,1,object,high", "malformed confidence row 6 "),
        ("0,1,object", "malformed confidence row 6 "),
        ("0,-1,object,0.5", "negative id in confidence row 6 "),
        ("0,1,object,nan", "non-finite value in confidence row 6 "),
        ("0,0,object,0.5", "duplicate confidence row 6 "),
        ("0,2,object,0.5", "non-contiguous superpixel ids for frame 0 "),
    ],
    ids=["malformed", "3-columns", "negative", "non-finite", "duplicate", "gap"],
)
def test_read_confidence_csv_skips_blank_lines_and_names_the_file_line(tmp_path, blank, row, message):
    path = tmp_path / "pooled.csv"
    lines = ["frame,superpixel_id,class,value", "", "0,0,object,0.25", blank, "", row, "1,0,object,1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=message):
        read_confidence_csv(str(path))
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    back = read_confidence_csv(str(path))["object"]
    assert [v.tolist() for v in back.values] == [[0.25], [1.0]]


def test_read_confidence_csv_reports_the_first_bad_row_of_a_large_file(tmp_path):
    rows = [f"{t},{s},object,0.5" for t in range(50) for s in range(100)]
    rows[3210] = "32,10,object"
    rows[4000] = "40,0,object,x"
    path = tmp_path / "pooled.csv"
    path.write_text("\n".join(["frame,superpixel_id,class,value", *rows]) + "\n")
    with pytest.raises(DataError, match="malformed confidence row 3212 "):
        read_confidence_csv(str(path))


def test_confidence_csv_round_trips_odd_class_ids_and_empty_frames(tmp_path):
    fields = {
        cls: ConfidenceField(cls, np.array([0.5, 0.25, 1 / 3]), [2, 0, 1])
        for cls in ('a#b"c', "100%d", "%s%%", "obj ect", " lead", "trail ", "in\tner")
    }
    path = tmp_path / "conf.csv"
    write_confidence_csv(path, fields)
    text = path.read_text()
    assert '0,1,a#b"c,0.25\n' in text and "2,0,100%d,0.33333333333333331\n" in text
    assert "0,0, lead,0.5\n" in text and "0,1,trail ,0.25\n" in text and "2,0,in\tner," in text
    back = read_confidence_csv(path)
    assert list(back) == sorted(fields)
    for cls, fieldv in fields.items():
        assert [v.tolist() for v in back[cls].values] == [v.tolist() for v in fieldv.values]
    clone = tmp_path / "clone.csv"
    write_confidence_csv(clone, back)
    assert clone.read_bytes() == path.read_bytes()


def _read_confidence_rows_one_by_one(path):
    """Reference reader: each row checked in file order as it is read."""
    per_class = {}
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            frame_s, sp_s, cls, value_s = line.strip().split(",")
            frame, sp_id, value = int(frame_s), int(sp_s), float(value_s)
            if frame < 0 or sp_id < 0:
                raise DataError(f"negative id in confidence row {lineno} in {path}")
            if not np.isfinite(value):
                raise DataError(f"non-finite value in confidence row {lineno} in {path}")
            row = per_class.setdefault(cls, {}).setdefault(frame, {})
            if sp_id in row:
                raise DataError(f"duplicate confidence row {lineno} in {path}")
            row[sp_id] = value
    out = {}
    for cls, frames in per_class.items():
        check_id("class", cls)
        rows = sum(map(len, frames.values()))
        if max(frames) >= rows:
            raise DataError(f"class {cls!r}: frame {max(frames)} is past the class's {rows} "
                            f"rows in {path}")
        out[cls] = []
        for t in range(max(frames) + 1):
            row = frames.get(t, {})
            if sorted(row) != list(range(len(row))):
                raise DataError(f"non-contiguous superpixel ids for frame {t} in {path}")
            out[cls].append([row[s] for s in range(len(row))])
    if not out:
        raise DataError(f"no confidence rows in {path}")
    return out


def test_read_confidence_csv_matches_a_row_by_row_reader(tmp_path):
    # shuffled, interleaved classes with up to four well-formed faults each;
    # the first faulty row, and the first check it fails, is the one reported
    rng = np.random.default_rng(3)
    faults = ["negative", "non-finite", "both", "duplicate", "drop", "gap", "blank", "spaces",
              "bad-class"]
    outcomes = set()
    for trial in range(300):
        rows = [[t, s, cls, float(rng.random())] for cls in ("b", "a") for t in range(3)
                for s in range(int(rng.integers(0, 4)))]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        lines = [",".join(map(str, row[:3])) + f",{row[3]!r}" for row in rows]
        for fault in rng.choice(faults, size=int(rng.integers(0, 5))):
            k = int(rng.integers(0, len(lines) + 1))
            if fault == "negative":
                lines.insert(k, f"{-int(rng.integers(1, 3))},0,a,0.5")
            elif fault == "non-finite":
                lines.insert(k, f"0,{int(rng.integers(0, 3))},b,{rng.choice(['nan', 'inf', '-inf'])}")
            elif fault == "both":
                lines.insert(k, "0,-1,b,nan")
            elif fault == "duplicate" and lines:
                lines.insert(k, lines[int(rng.integers(0, len(lines)))])
            elif fault == "drop" and lines:
                del lines[min(k, len(lines) - 1)]
            elif fault == "gap":
                lines.insert(k, f"{int(rng.integers(0, 3))},5,{rng.choice(['a', 'b'])},0.5")
            elif fault in ("blank", "spaces"):
                lines.insert(k, "" if fault == "blank" else " \t")
            elif fault == "bad-class":
                lines.insert(k, "0,0,..,0.5")
        path = str(tmp_path / f"conf{trial}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(["frame,superpixel_id,class,value", *lines]) + "\n")
        try:
            want = _read_confidence_rows_one_by_one(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_confidence_csv(path)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split()[0])
            continue
        got = read_confidence_csv(path)
        assert list(got) == list(want)
        assert {cls: [v.tolist() for v in f.values] for cls, f in got.items()} == want
        outcomes.add("read")
    assert len(outcomes) == 6  # each outcome was reached


@pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"], ids=["header-only", "blank", "whitespace"])
def test_read_confidence_csv_of_no_rows_is_a_data_error(tmp_path, body):
    path = tmp_path / "pooled.csv"
    path.write_text("frame,superpixel_id,class,value\n" + body)
    with pytest.raises(DataError, match=f"no confidence rows in {re.escape(str(path))}$"):
        read_confidence_csv(str(path))


def test_parse_confidence_rows_codes_classes_by_first_appearance():
    lines = ["0,0,b,0.5\n", "0,0,a,0.25\n", "0,1,b,1\n", "1,0,c,0\n", "0,1,a,2\n", "0,2,b,3\n"]
    rows, codes = pipeline._parse_confidence_rows(lines)
    assert not rows.dtype.hasobject
    assert list(codes.items()) == [("b", 0), ("a", 1), ("c", 2)]
    assert rows["class"].tolist() == [0, 1, 0, 2, 1, 0]
    assert rows["value"].tolist() == [0.5, 0.25, 1.0, 0.0, 2.0, 3.0]


def _run_on_edited_pooled(dataset, tmp_path, capsys, command, edit):
    """Pool the dataset, rewrite pooled.csv's lines with edit, then run command on it.

    Returns the exit code, stderr, the output path (which a rejected run
    must not create) and the file line number of the last row.
    """
    _, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    with open(pooled) as fh:
        lines = edit(fh.read().splitlines())
    with open(pooled, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    argv = [command, "--config", config_path, "--confidence", pooled, "--out"]
    argv.append(os.path.join(out, "adapted.csv") if command == "adapt" else out)
    capsys.readouterr()
    return main(argv), capsys.readouterr().err, out, len(lines)


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_negative_frame_in_confidence_csv_exits_2(dataset, tmp_path, capsys, command):
    code, err, out, lineno = _run_on_edited_pooled(
        dataset, tmp_path, capsys, command, lambda lines: [*lines, "-1,0,object,0.5"]
    )
    assert code == 2
    assert f"negative id in confidence row {lineno} " in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_confidence_csv_of_another_header_exits_2(dataset, tmp_path, capsys, command):
    code, err, out, _ = _run_on_edited_pooled(
        dataset, tmp_path, capsys, command, lambda lines: ["frame,id,class,value", *lines[1:]]
    )
    assert code == 2
    assert f"unexpected confidence CSV header in {tmp_path / 'pooled.csv'}" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_non_finite_confidence_exits_2(dataset, tmp_path, capsys, command, value):
    # adapt would diffuse a nan until CG gives up, and segment would fail
    # deep in the MRF; both must stop at the row instead
    def edit(lines):
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + value
        return lines

    code, err, out, lineno = _run_on_edited_pooled(dataset, tmp_path, capsys, command, edit)
    assert code == 2
    assert f"non-finite value in confidence row {lineno} " in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_frame_id_past_the_class_rows_exits_2(dataset, tmp_path, capsys, command):
    # the reader would size the field by the frame id: about 8 TB for 10**12 frames
    code, err, out, _ = _run_on_edited_pooled(
        dataset, tmp_path, capsys, command, lambda lines: [*lines, f"{10**12},0,object,0.5"]
    )
    assert code == 2
    assert f"class 'object': frame {10**12} is past the class's " in err
    assert str(tmp_path / "pooled.csv") in err
    assert not os.path.exists(out)


_PACKAGE_DIR = os.path.dirname(os.path.abspath(pipeline.__file__))


def _loaded_after(code, package):
    """Run code in a fresh interpreter; the modules of package it left in sys.modules."""
    src = os.path.dirname(_PACKAGE_DIR)
    probe = code + "\nimport sys; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()  # after what the code printed
    assert "vidseg" in loaded
    return {m for m in loaded if m == package or m.startswith(package + ".")}


@pytest.mark.parametrize("module", sorted(
    "vidseg" + ("" if name == "__init__.py" else "." + name[:-3])
    for name in os.listdir(_PACKAGE_DIR) if name.endswith(".py")
))
def test_import_loads_no_scipy(module):
    # every module file: a route that imports one would pay for SciPy at start-up
    assert _loaded_after(f"import {module}", "scipy") == set()


def test_graph_build_loads_no_scipy():
    # the graph is its edge list; SciPy comes in only with the min-cut
    code = ("from vidseg.graph import build_graph\n"
            "from vidseg.synth import SynthConfig, generate\n"
            "from vidseg.video import compute_superpixel_stats\n"
            "ds = generate(SynthConfig())\n"
            "graph = build_graph(ds.superpixels, ds.flows,\n"
            "                    *compute_superpixel_stats(ds.frames, ds.superpixels))\n"
            "assert 0 < graph.n_spatial < len(graph.i)")
    assert _loaded_after(code, "scipy") == set()


def test_import_synth_loads_only_the_modules_it_writes_with():
    # the solver oracles live in tests/oracles.py, so the generator pulls in no solver
    assert _loaded_after("import vidseg.synth", "vidseg") == {
        "vidseg", "vidseg.pnm", "vidseg.proposals", "vidseg.synth", "vidseg.video",
    }


def _top_level_names(path):
    """Names a module's top level defines itself: functions, classes and assignments."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_each_name_is_imported_from_the_module_that_defines_it():
    # one import path per name: no vidseg module passes on a name it imported
    root = os.path.dirname(os.path.dirname(_PACKAGE_DIR))
    files = [os.path.join(_PACKAGE_DIR, name) for name in os.listdir(_PACKAGE_DIR)]
    for sub in ("tests", "demos", "perfbench"):
        files += [os.path.join(root, sub, name) for name in os.listdir(os.path.join(root, sub))]
    defined = {}
    stray = []
    for path in sorted(f for f in files if f.endswith(".py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        in_package = os.path.dirname(path) == _PACKAGE_DIR
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if in_package and node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.startswith("vidseg."):
                module = node.module[len("vidseg."):]
            else:
                continue
            if module not in defined:
                defined[module] = _top_level_names(os.path.join(_PACKAGE_DIR, module + ".py"))
            stray += [f"{os.path.relpath(path, root)}:{node.lineno} {alias.name} from {module}"
                      for alias in node.names if alias.name not in defined[module]]
    assert stray == []


def test_only_min_cut_routes_load_scipy(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    cfg = str(data / "config.json")
    routes = {
        "synth": ["synth", "--out", str(data)],
        "pool": ["pool", "--config", cfg, "--out", str(out / "pooled.csv")],
        "eval": ["eval", "--pred", str(data / "gt"), "--gt", str(data / "gt")],
        "adapt": ["adapt", "--config", cfg, "--confidence", str(out / "pooled.csv"),
                  "--out", str(out / "adapted.csv")],
        # the probe sees SciPy when a route loads it
        "segment": ["segment", "--config", cfg, "--confidence", str(out / "adapted.csv"),
                    "--out", str(out / "seg")],
    }
    loaded = {
        name: _loaded_after(f"from vidseg.cli import main\nassert main({argv!r}) == 0", "scipy")
        for name, argv in routes.items()
    }
    assert {name: bool(mods) for name, mods in loaded.items()} == {
        "synth": False, "pool": False, "eval": False, "adapt": False, "segment": True,
    }
    assert "scipy.sparse.csgraph" in loaded["segment"]


def test_adapt_stage_loads_no_scipy():
    # the diffusion operator is the graph's edge lists; S @ x is two bincounts
    code = ("from vidseg.graph import build_graph\n"
            "from vidseg.pipeline import PipelineConfig, adapt_stage\n"
            "from vidseg.proposals import filter_by_confidence, pool_confidence, score_proposals\n"
            "from vidseg.synth import SynthConfig, generate\n"
            "from vidseg.video import compute_superpixel_stats\n"
            "ds = generate(SynthConfig())\n"
            "graph = build_graph(ds.superpixels, ds.flows,\n"
            "                    *compute_superpixel_stats(ds.frames, ds.superpixels))\n"
            "scored = filter_by_confidence(score_proposals(ds.proposals, ds.motion_masks), 'object')\n"
            "pooled = {'object': pool_confidence(scored, 'object', ds.superpixels)}\n"
            "adapted = adapt_stage(PipelineConfig(), graph, pooled)\n"
            "assert adapted['object'].flat.shape == (graph.n_nodes,)")
    assert _loaded_after(code, "scipy") == set()


@pytest.mark.parametrize(
    "key, bad",
    [
        ("max_iterations", 1.5),
        ("mu", "0.5"),
        ("lambda_spatial", "1e3"),
        ("lambda_spatial", True),
        ("confidence_threshold", None),
        ("skip_adaptation", "no"),
        ("gmm_components", 2.5),
        ("classes", "object"),
        ("classes", [1]),
        ("gmm_seed", -1),
        ("lambda_spatial", float("inf")),
        ("motion_coherence_weight", float("inf")),
        ("mu", float("inf")),
        ("tolerance", float("inf")),
        ("mu", 1e-200),
        ("confidence_threshold", 1.5),
    ],
)
def test_config_type_and_range_errors_name_the_key_before_writing(tmp_path, capsys, key, bad):
    config_path = _dataset_config(str(tmp_path / "typed"))
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg[key] = bad
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    before = _files_under(str(tmp_path))
    assert main(["pipeline", "--config", config_path]) == 2
    assert key in capsys.readouterr().err
    assert _files_under(str(tmp_path)) == before


def test_config_takes_an_int_for_a_float_key(tmp_path, capsys):
    config_path = _dataset_config(str(tmp_path / "typed"))
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg["mu"] = 1
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["pipeline", "--config", config_path]) == 0


def _rewrite_confidence_csv(src, dst, case):
    """Copy a one-class confidence CSV, made stale in one of two ways.

    "shifted": frame 0 gains a row and frame 1 loses its last, so the total
    row count and the contiguous ids still hold. "missing": frame 1 is gone.
    """
    with open(src) as fh:
        header, *rows = fh.read().splitlines()
    frames = [int(row.split(",")[0]) for row in rows]
    frame1 = [row for row, t in zip(rows, frames) if t == 1]
    if case == "shifted":
        n0 = frames.count(0)
        value = frame1[-1].split(",", 3)[3]
        rows.insert(n0, f"0,{n0},object,{value}")
        rows.remove(frame1[-1])
    else:
        rows = [row for row, t in zip(rows, frames) if t != 1]
    with open(dst, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("command", ["adapt", "segment"])
@pytest.mark.parametrize("case, frame", [("shifted", 0), ("missing", 1)])
def test_stale_confidence_csv_names_the_frame(dataset, tmp_path, capsys, command, case, frame):
    _, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    stale = str(tmp_path / "stale.csv")
    _rewrite_confidence_csv(pooled, stale, case)
    out = str(tmp_path / "out")
    argv = [command, "--config", config_path, "--confidence", stale, "--out"]
    argv.append(os.path.join(out, "adapted.csv") if command == "adapt" else out)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"'object': frame {frame} " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_pool_reads_no_flow(dataset, tmp_path):
    root, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    copy = str(tmp_path / "noflow")
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("*.flo"))
    assert os.listdir(os.path.join(copy, "flow")) == []
    pooled_copy = str(tmp_path / "pooled_copy.csv")
    assert main(["pool", "--config", os.path.join(copy, "config.json"), "--out", pooled_copy]) == 0
    assert _digest(pooled_copy) == _digest(pooled)


def test_load_inputs_reads_back_the_generated_clip(tmp_path):
    ds = generate(_synth_config(flow_noise_sigma=0.5))
    cfg = PipelineConfig(**write_dataset(ds, str(tmp_path)))
    clip, colors, graph = load_inputs(cfg, tuple(pipeline.STAGE_INPUTS))
    assert np.array_equal(clip.frames, ds.frames)
    assert np.array_equal(clip.superpixels.labels, ds.superpixels.labels)
    assert np.array_equal(clip.motion_masks, ds.motion_masks)
    assert clip.flows is None  # the build consumed them
    assert len(clip.proposals) == len(ds.proposals)
    for got, want in zip(clip.proposals, ds.proposals):
        assert np.array_equal(got.mask, want.mask)
        assert (got.frame, got.appearance_score, got.class_confidences) == (
            want.frame, want.appearance_score, want.class_confidences)
    assert sorted(clip.gt_masks) == sorted(ds.gt_masks)
    assert all(np.array_equal(clip.gt_masks[t], mask) for t, mask in ds.gt_masks.items())
    stats = compute_superpixel_stats(ds.frames, ds.superpixels)
    assert np.array_equal(colors, stats[0])
    built = build_graph(ds.superpixels, ds.flows, *stats)
    for f in dataclasses.fields(built):
        assert np.array_equal(getattr(graph, f.name), getattr(built, f.name)), f.name


def test_pool_stage_on_the_generated_clip_writes_what_vidseg_pool_writes(dataset, tmp_path):
    _, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    in_memory = str(tmp_path / "in_memory.csv")
    cfg = PipelineConfig.from_json(config_path)
    write_confidence_csv(in_memory, pipeline.pool_stage(cfg, generate(_synth_config())))
    assert _digest(in_memory) == _digest(pooled)


def _copy_without(root, dst, *names):
    """Copy the clip at root to dst without its out/ and the named input directories;
    returns the copy's config path."""
    shutil.copytree(root, dst, ignore=shutil.ignore_patterns("out", *names))
    assert not any(os.path.exists(os.path.join(dst, name)) for name in names)
    return os.path.join(dst, "config.json")


def test_pool_reads_no_ground_truth(dataset, tmp_path, capsys):
    root, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    copy_config = _copy_without(root, str(tmp_path / "nogt"), "gt")
    pooled_copy = str(tmp_path / "pooled_copy.csv")
    assert main(["pool", "--config", copy_config, "--out", pooled_copy]) == 0
    assert _digest(pooled_copy) == _digest(pooled)
    # vidseg pipeline alone reads the ground truth
    capsys.readouterr()
    assert main(["pipeline", "--config", copy_config]) == 2
    assert "error: gt_dir does not exist: " in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "nogt", "out"))


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_adapt_and_segment_read_no_motion_masks_or_ground_truth(dataset, tmp_path, command):
    root, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    copy_config = _copy_without(root, str(tmp_path / "nomasks"), "motion", "gt")
    outs = []
    for name, config in (("full", config_path), ("copy", copy_config)):
        out = str(tmp_path / name / ("adapted.csv" if command == "adapt" else "out"))
        assert main([command, "--config", config, "--confidence", pooled, "--out", out]) == 0
        outs.append(_digest(out) if command == "adapt" else _mask_digests(out))
    assert outs[0] == outs[1]
    if command == "segment":
        assert any(name.startswith("masks") for name in outs[0])


def test_pool_rejects_superpixels_of_another_size(tmp_path, capsys):
    root = str(tmp_path / "sized")
    config_path = _dataset_config(root)
    sp_dir = os.path.join(root, "superpixels")
    for name in os.listdir(sp_dir):
        write_pgm(os.path.join(sp_dir, name), np.zeros((32, 64), dtype=np.uint16))
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 2
    err = capsys.readouterr().err
    assert "ingest: dimension mismatch" in err and sp_dir in err
    assert not os.path.exists(pooled)


def _last_file(directory):
    return os.path.join(directory, sorted(os.listdir(directory))[-1])


def _resize_last(directory):
    path = _last_file(directory)
    write_pgm(path, np.zeros((10, 10), dtype=np.uint8))
    return path


def _zero_size_header(directory):
    path = _last_file(directory)
    with open(path, "wb") as fh:
        fh.write(b"P5\n0 0\n255\n")
    return path


def _sixteen_bit_frame(directory):
    frame = _last_file(directory)
    os.remove(frame)
    path = os.path.splitext(frame)[0] + ".pgm"
    write_pgm(path, np.full((48, 48), 300, dtype=np.uint16))  # 300 would read as 44 in 8 bits
    return path


def _ppm_in_place(directory):
    path = _last_file(directory)
    write_ppm(path, np.zeros((48, 48, 3), dtype=np.uint8))
    return path


def _short_flow(directory):
    path = _last_file(directory)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fi", FLOW_MAGIC, 48))  # 8 bytes: no height
    return path


def _zero_width_flow(directory):
    path = _last_file(directory)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", FLOW_MAGIC, 0, 48))
    return path


def _remove_last(directory):
    os.remove(_last_file(directory))
    return directory


def _remove_all(directory):
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    return directory


# ingest faults: (input directory of a 4-frame clip, the edit, which returns the path the
# error must name, and the text the error must hold)
INGEST_FAULTS = {
    "motion mask size": ("motion", _resize_last, "dimension mismatch"),
    "gt mask size": ("gt", _resize_last, "dimension mismatch"),
    "superpixel map size": ("superpixels", _resize_last, "dimension mismatch"),
    "superpixel header": ("superpixels", _zero_size_header, "bad PNM dimensions or maxval"),
    "16-bit frame": ("frames", _sixteen_bit_frame, "is not 8-bit"),
    "PPM motion mask": ("motion", _ppm_in_place, "is not a PGM"),
    "PPM superpixel map": ("superpixels", _ppm_in_place, "is not a PGM label image"),
    "flow of 8 bytes": ("flow", _short_flow, "truncated flow file"),
    "flow of width 0": ("flow", _zero_width_flow, "bad flow dimensions"),
    "missing motion mask": ("motion", _remove_last, "file count mismatch"),
    "missing superpixel map": ("superpixels", _remove_last, "file count mismatch"),
    "missing flow file": ("flow", _remove_last, "file count mismatch"),
    "empty gt_dir": ("gt", _remove_all, "no masks in"),
}


@pytest.mark.parametrize("fault", INGEST_FAULTS)
def test_bad_ingest_file_rejected_before_writing(tmp_path, capsys, fault):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    capsys.readouterr()
    directory, edit, message = INGEST_FAULTS[fault]
    named = edit(os.path.join(data, directory))
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", os.path.join(data, "config.json")]) == 2
    err = capsys.readouterr().err
    assert "ingest: " in err and message in err and named in err
    with pytest.raises(StageError, match="ingest: ") as raised:
        run_pipeline(PipelineConfig.from_json(os.path.join(data, "config.json")))
    assert isinstance(raised.value.__cause__, DataError)
    assert _files_under(str(tmp_path), dirs=True) == before


def test_wrong_size_flow_rejected_before_writing(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    capsys.readouterr()
    write_flow(os.path.join(data, "flow", "flow_0002.flo"), np.zeros((10, 10, 2)))
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", os.path.join(data, "config.json")]) == 2
    assert "ingest: flow of frames 2-3 is (10, 10)" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == before


# manifest faults: (key, bad value) written into manifest line 3 of a 4-frame clip
MANIFEST_FAULTS = {
    "frame": ("frame", 4),
    "frame 1.9": ("frame", 1.9),
    "frame true": ("frame", True),
    "appearance inf": ("appearance", float("inf")),
    "appearance nan": ("appearance", float("nan")),
    "appearance -5": ("appearance", -5.0),
    "appearance true": ("appearance", True),
    "appearance string": ("appearance", "0.5"),
    "confidence true": ("confidences", {"object": True}),
    "confidence string": ("confidences", {"object": "0.9"}),
    "confidence 1.5": ("confidences", {"object": 1.5}),
    "confidences list": ("confidences", [0.9]),
    "mask number": ("mask", 5),
}


@pytest.mark.parametrize("fault", ["mask size", "empty mask", *MANIFEST_FAULTS])
def test_bad_proposal_rejected_where_manifest_is_read(tmp_path, capsys, fault):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    capsys.readouterr()
    if fault == "mask size":
        named = os.path.join(data, "proposals", "mask_00002.pgm")
        write_pgm(named, np.zeros((10, 10), dtype=np.uint8))
    elif fault == "empty mask":
        mask_path = os.path.join(data, "proposals", "mask_00002.pgm")
        write_pgm(mask_path, np.zeros((48, 48), dtype=np.uint8))
        named = f"empty mask {mask_path} on manifest line 3"
    else:
        manifest = os.path.join(data, "proposals", "manifest.jsonl")
        with open(manifest) as fh:
            lines = [json.loads(line) for line in fh]
        key, value = MANIFEST_FAULTS[fault]
        lines[2][key] = value
        with open(manifest, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in lines)
        named = "manifest line 3"
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", os.path.join(data, "config.json")]) == 2
    err = capsys.readouterr().err
    assert "ingest: " in err and named in err
    assert _files_under(str(tmp_path), dirs=True) == before


def test_readme_configuration_table_lists_every_key():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert keys == {f.name for f in dataclasses.fields(PipelineConfig)}


def test_unknown_class_rejected_before_writing(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    config_path = os.path.join(data, "config.json")
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg["classes"] = ["car"]
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", config_path]) == 2
    assert "pool: class 'car'" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == before  # not even an empty out_dir


def test_an_empty_manifest_and_no_classes_rejected_before_writing(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    open(os.path.join(data, "proposals", "manifest.jsonl"), "w").close()
    config_path = os.path.join(data, "config.json")
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg["classes"] = []
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", config_path]) == 2
    assert "pool: no classes found in proposals or config" in capsys.readouterr().err
    assert _files_under(str(tmp_path), dirs=True) == before


def _two_class_config(data):
    """Write a 4-frame clip whose proposals also offer class "car" at 0.2, and a config
    that segments both classes without ground truth; returns the config path."""
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    manifest = os.path.join(data, "proposals", "manifest.jsonl")
    with open(manifest) as fh:
        lines = [json.loads(line) for line in fh]
    for rec in lines:
        rec["confidences"]["car"] = 0.2
    with open(manifest, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in lines)
    config_path = os.path.join(data, "config.json")
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg.update(classes=[], gt_dir="")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    return config_path


def test_each_class_of_a_two_class_run_matches_its_one_class_run(tmp_path, monkeypatch):
    # every class's MRFProblem shares the run's one set of Potts terms, so no class's
    # solve may change what the next class reads
    solve, solves = mrf.solve_binary, []

    def recorded(problem):  # what each solve reads, and its energy, which the masks may hide
        terms = _digest_arrays(problem.edges, problem.edge_weight)
        labeling = solve(problem)
        solves.append((terms, labeling.flow_value))
        return labeling

    monkeypatch.setattr(mrf, "solve_binary", recorded)
    data = str(tmp_path / "data")
    config_path = _two_class_config(data)
    with open(config_path) as fh:
        cfg = json.load(fh)
    for run, classes in (("both", []), ("car", ["car"]), ("object", ["object"])):
        cfg.update(classes=classes, out_dir=f"out_{run}")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["pipeline", "--config", config_path]) == 0
    assert sorted(os.listdir(os.path.join(data, "out_both", "masks"))) == ["car", "object"]
    assert solves[:2] == solves[2:]  # car, object together, then each alone
    assert solves[0][0] == solves[1][0]
    for cls in ("car", "object"):
        both, alone = os.path.join(data, "out_both"), os.path.join(data, f"out_{cls}")
        masks = _mask_digests(os.path.join(both, "masks", cls))
        assert len(masks) == 4
        assert masks == _mask_digests(os.path.join(alone, "masks", cls))
        assert _digest(os.path.join(both, f"gmm_{cls}.json")) == _digest(
            os.path.join(alone, f"gmm_{cls}.json")
        )


@pytest.mark.parametrize("gt_dir", ["gt", ""])
def test_several_classes_are_not_scored_against_one_gt_dir(tmp_path, capsys, gt_dir):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    manifest = os.path.join(data, "proposals", "manifest.jsonl")
    with open(manifest) as fh:
        lines = [json.loads(line) for line in fh]
    for rec in lines:
        rec["confidences"]["car"] = 0.2
    with open(manifest, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in lines)
    config_path = os.path.join(data, "config.json")
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg.update(classes=[], gt_dir=gt_dir)  # all manifest classes: car and object
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    capsys.readouterr()
    before = _files_under(str(tmp_path), dirs=True)
    code = main(["pipeline", "--config", config_path])
    if gt_dir:
        assert code == 2
        assert "['car', 'object']; set classes" in capsys.readouterr().err
        assert _files_under(str(tmp_path), dirs=True) == before
    else:
        assert code == 0
        assert sorted(os.listdir(os.path.join(data, "out", "masks"))) == ["car", "object"]
        # nothing was scored, so no score is reported, not a score of 0
        with open(os.path.join(data, "out", "report.csv")) as fh:
            assert fh.read() == "video,class,iou_micro,iou_macro,mean_pixel_error\n"
        assert "iou_micro=" not in capsys.readouterr().out

