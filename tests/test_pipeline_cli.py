import hashlib
import json
import os
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
)
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
    code = main(["pipeline", "--config", config_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "ingest" in err


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
    from vidseg.pipeline import write_confidence_csv

    clone = tmp_path / "clone.csv"
    write_confidence_csv(clone, fields)
    assert _digest(clone) == _digest(os.path.join(out, "adapted.csv"))


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
    report = tmp_path / "report.csv"
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
    assert models["object"] == json.loads(gmm_obj.to_json())
    assert models["background"] == json.loads(gmm_bg.to_json())


@pytest.mark.parametrize(
    "key, bad",
    [("manifest", "a,b"), ("classes", "a\nb"), ("video_id", "v,1"), ("video_id", "v\r")],
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
    out = str(tmp_path / "out")
    assert main(["pipeline", "--config", config_path, "--dump-graph", "--out", out]) == 2
    assert repr(bad) in capsys.readouterr().err
    assert [name for _, _, names in os.walk(out) for name in names] == []


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


def test_cli_import_loads_no_sparse_solvers():
    import vidseg

    src = os.path.dirname(os.path.dirname(os.path.abspath(vidseg.__file__)))
    code = "import sys, vidseg.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "vidseg.cli" in loaded
    assert not loaded & {"scipy.sparse.linalg", "scipy.sparse.csgraph"}
