import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from vidseg.cli import main
from vidseg.pipeline import (
    PipelineConfig,
    load_inputs,
    read_confidence_csv,
    run_pipeline,
    segment_class,
    write_confidence_csv,
)
from vidseg.pnm import write_pgm
from vidseg.proposals import ConfidenceField
from vidseg.synth import SynthConfig, generate, write_dataset
from vidseg.video import DataError, load_mask


def _dataset_config(root, **synth_kw):
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
    cfg = SynthConfig(**base)
    ds = generate(cfg)
    write_dataset(ds, root)
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
    cfg.update({"solver": "iterative", "max_iterations": 1, "tolerance": 1e-12})
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
    flat = fields["object"].flat()
    assert np.all((flat >= 0) & (flat <= 1))
    # writing what we read reproduces the bytes (full-precision round trip)
    clone = tmp_path / "clone.csv"
    write_confidence_csv(clone, fields)
    assert _digest(clone) == _digest(os.path.join(out, "adapted.csv"))


def test_confidence_csv_golden_bytes(tmp_path):
    fields = {
        "car": ConfidenceField("car", [np.array([0.1, 1 / 3]), np.array([1e-300])]),
        "bus": ConfidenceField("bus", [np.array([5e-324, 0.0]), np.array([1.0])]),
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


def test_config_rejects_unknown_solver_before_writing(tmp_path, capsys):
    root = str(tmp_path / "bogus")
    config_path = _dataset_config(root)
    with open(config_path) as fh:
        cfg = json.load(fh)
    cfg["solver"] = "bogus"
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["pipeline", "--config", config_path]) == 2
    assert "unknown solver" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(root, "out", "pooled.csv"))


@pytest.mark.parametrize("side", ["--gt", "--pred"])
def test_eval_cli_rejects_unmappable_mask_names(dataset, tmp_path, capsys, side):
    root, _ = dataset
    gt_dir = os.path.join(root, "gt")
    odd_dir = str(tmp_path / "masks")
    shutil.copytree(gt_dir, odd_dir)
    shutil.copy(os.path.join(odd_dir, sorted(os.listdir(odd_dir))[0]),
                os.path.join(odd_dir, "notes.pgm"))
    dirs = {"--gt": gt_dir, "--pred": gt_dir, side: odd_dir}
    assert main(["eval", "--pred", dirs["--pred"], "--gt", dirs["--gt"]]) == 2
    assert "notes.pgm" in capsys.readouterr().err


def test_segment_class_writes_nothing(dataset, tmp_path):
    root, config_path = dataset
    out = os.path.join(root, "out")
    if not os.path.isdir(out):
        assert main(["pipeline", "--config", config_path]) == 0
    cfg = PipelineConfig.from_json(config_path, {"out_dir": str(tmp_path / "unused")})
    inputs = load_inputs(cfg)
    fieldv = read_confidence_csv(os.path.join(out, "adapted.csv"))["object"]
    masks, gmm_obj, gmm_bg = segment_class(cfg, inputs, fieldv)
    assert not os.path.exists(cfg.out_dir)
    for t, name in enumerate(sorted(os.listdir(os.path.join(out, "masks", "object")))):
        written = load_mask(os.path.join(out, "masks", "object", name))
        assert np.array_equal(masks[t], written)
    with open(os.path.join(out, "gmm_object.json")) as fh:
        models = json.load(fh)
    for name, model in (("object", gmm_obj), ("background", gmm_bg)):
        assert sorted(models[name]) == ["covariances", "means", "weights"]
        for key, value in models[name].items():
            assert np.array_equal(value, getattr(model, key))


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
    ],
    ids=["3-columns", "5-columns", "non-numeric-value", "fractional-frame", "non-numeric-id",
         "negative-frame", "negative-frame-after-rows", "negative-superpixel", "gap-in-frame-0",
         "gap-in-frame-1"],
)
def test_read_confidence_csv_errors_name_the_row_or_frame(tmp_path, rows, message):
    path = tmp_path / "pooled.csv"
    lines = ["frame,superpixel_id,class,value", "0,0,object,0.25", *rows]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=message):
        read_confidence_csv(str(path))


@pytest.mark.parametrize("command", ["adapt", "segment"])
def test_negative_frame_in_confidence_csv_exits_2(dataset, tmp_path, capsys, command):
    _, config_path = dataset
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 0
    with open(pooled) as fh:
        lineno = len(fh.read().splitlines()) + 1
    with open(pooled, "a") as fh:
        fh.write("-1,0,object,0.5\n")
    out = str(tmp_path / "out")
    argv = [command, "--config", config_path, "--confidence", pooled, "--out"]
    argv.append(os.path.join(out, "adapted.csv") if command == "adapt" else out)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"negative id in confidence row {lineno} " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_import_loads_no_sparse_solvers():
    import vidseg

    src = os.path.dirname(os.path.dirname(os.path.abspath(vidseg.__file__)))
    code = "import sys, vidseg.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "vidseg.cli" in loaded
    # every CLI start would pay for importing these
    assert not loaded & {"scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.special"}


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


def test_pool_rejects_superpixels_of_another_size(tmp_path, capsys):
    root = str(tmp_path / "sized")
    config_path = _dataset_config(root)
    sp_dir = os.path.join(root, "superpixels")
    for name in os.listdir(sp_dir):
        write_pgm(os.path.join(sp_dir, name), np.zeros((32, 64), dtype=np.uint16), maxval=65535)
    pooled = str(tmp_path / "pooled.csv")
    assert main(["pool", "--config", config_path, "--out", pooled]) == 2
    assert "ingest" in capsys.readouterr().err
    assert not os.path.exists(pooled)


@pytest.mark.parametrize("mask_dir", ["motion", "gt"])
def test_wrong_size_mask_rejected_before_writing(tmp_path, capsys, mask_dir):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    capsys.readouterr()
    bad = os.path.join(data, mask_dir, sorted(os.listdir(os.path.join(data, mask_dir)))[-1])
    write_pgm(bad, np.zeros((10, 10), dtype=np.uint8))
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", os.path.join(data, "config.json")]) == 2
    err = capsys.readouterr().err
    assert "ingest: dimension mismatch" in err and bad in err
    assert _files_under(str(tmp_path), dirs=True) == before


@pytest.mark.parametrize("fault", ["mask size", "frame"])
def test_bad_proposal_rejected_where_manifest_is_read(tmp_path, capsys, fault):
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, "--seed", "7", "--frames", "4", "--width", "48",
                 "--height", "48", "--shape-size", "16", "16"]) == 0
    capsys.readouterr()
    if fault == "mask size":
        named = os.path.join(data, "proposals", "mask_00002.pgm")
        write_pgm(named, np.zeros((10, 10), dtype=np.uint8))
    else:
        manifest = os.path.join(data, "proposals", "manifest.jsonl")
        with open(manifest) as fh:
            lines = [json.loads(line) for line in fh]
        lines[2]["frame"] = 4
        with open(manifest, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in lines)
        named = "manifest line 3"
    before = _files_under(str(tmp_path), dirs=True)
    assert main(["pipeline", "--config", os.path.join(data, "config.json")]) == 2
    err = capsys.readouterr().err
    assert "pool: " in err and named in err
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

