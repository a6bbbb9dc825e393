"""Pipeline orchestration: ingest -> pool -> adapt -> segment -> eval.

Each stage reads and writes the file formats documented per module, so the
single-shot pipeline and the per-stage CLI subcommands produce bit-identical
artifacts. Confidence CSVs are written with full float precision to keep
file-mediated staging lossless.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import gmm as gmm_mod
from . import mrf as mrf_mod
from .evaluation import EvalReport, render_overlay, score_masks
from .graph import MOTION_COHERENCE_WEIGHT, build_graph
from .proposals import (
    CONFIDENCE_THRESHOLD,
    ConfidenceField,
    filter_by_confidence,
    load_proposal_manifest,
    pool_confidence,
    score_proposals,
)
from .propagation import ConvergenceError, PropagationConfig, adapt_confidence
from .video import (
    DataError,
    check_id,
    compute_superpixel_stats,
    list_dir,
    load_flow,
    load_mask,
    load_superpixels,
    load_video,
    write_mask,
    write_rows,
)

_FRAME_INDEX_RE = re.compile(r"(\d+)\D*$")
CONFIDENCE_HEADER = "frame,superpixel_id,class,value"
_CONFIDENCE_ROW = np.dtype(
    [("frame", np.int64), ("superpixel_id", np.int64), ("class", object), ("value", np.float64)]
)


class StageError(RuntimeError):
    """Error surfaced with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.cause = cause


# Path keys; relative values resolve against the config file.
_PATHS = ("video_dir", "superpixel_dir", "flow_dir", "motion_dir", "proposal_manifest", "gt_dir",
          "out_dir")
# Field annotation -> the JSON values it admits; a bool is never a number.
_JSON_TYPES = {"str": str, "list[str]": list, "bool": bool, "int": int, "float": (int, float)}


@dataclass
class PipelineConfig:
    video_dir: str = ""
    superpixel_dir: str = ""
    flow_dir: str = ""
    motion_dir: str = ""
    proposal_manifest: str = ""
    gt_dir: str = ""
    out_dir: str = "out"
    video_id: str = "video"
    classes: list[str] = field(default_factory=list)  # empty -> all manifest classes
    confidence_threshold: float = CONFIDENCE_THRESHOLD
    mu: float = PropagationConfig.mu
    motion_coherence_weight: float = MOTION_COHERENCE_WEIGHT
    lambda_object: float = mrf_mod.LAMBDA_OBJECT
    lambda_spatial: float = mrf_mod.LAMBDA_SPATIAL
    lambda_temporal: float = mrf_mod.LAMBDA_TEMPORAL
    gmm_components: int = gmm_mod.DEFAULT_COMPONENTS
    gmm_seed: int = 0
    tolerance: float = PropagationConfig.tolerance
    max_iterations: int = PropagationConfig.max_iterations
    skip_adaptation: bool = False
    dump_graph: bool = False

    def propagation_config(self):
        names = [f.name for f in fields(PropagationConfig)]
        return PropagationConfig(**{name: getattr(self, name) for name in names})

    def validate(self):
        """Check each key's type and range, then the input paths; errors name the key."""
        for f in fields(self):
            value = getattr(self, f.name)
            typed = isinstance(value, _JSON_TYPES[f.type])
            if not typed or isinstance(value, bool) != (f.type == "bool") or (
                f.type == "list[str]" and not all(isinstance(v, str) for v in value)
            ):
                raise DataError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name in (
            "motion_coherence_weight",
            "lambda_object",
            "lambda_spatial",
            "lambda_temporal",
            "gmm_components",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise DataError(f"{name} must be positive and finite")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise DataError("confidence_threshold must lie in [0, 1]")
        if self.gmm_seed < 0:
            raise DataError("gmm_seed must be >= 0")
        self.propagation_config()
        check_id("video_id", self.video_id)
        for cls in self.classes:
            check_id("class", cls)
        for name in _PATHS[:-1]:  # out_dir is written, not read; gt_dir is optional
            path = getattr(self, name)
            exists = os.path.isdir if name.endswith("_dir") else os.path.isfile
            if not exists(path) and (path or name != "gt_dir"):
                raise DataError(f"{name} does not exist: {path!r}")
        return self

    @staticmethod
    def from_json(path, overrides=None):
        """Load a flat-key JSON config, overrides (None: unset) on top; relative paths
        resolve against it."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DataError(f"config {path} is not a JSON object")
        raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        unknown = set(raw) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        cfg = PipelineConfig(**raw)
        base = os.path.dirname(os.path.abspath(path))
        for name in _PATHS:
            value = getattr(cfg, name)
            if isinstance(value, str) and value:
                setattr(cfg, name, os.path.join(base, value))
        return cfg


@dataclass
class LoadedInputs:
    video: object
    superpixels: object
    motion_masks: np.ndarray
    gt_masks: dict  # frame index -> mask; empty when no ground truth
    stats: object  # stats and graph are None when loaded without build
    graph: object


def load_mask_dir(path, frame_count=None, shape=None):
    """Masks of a directory of PGMs, keyed by the frame number ending each name.

    A name without a frame number, one at or past frame_count, two names of
    one frame, or a mask not of (H, W) shape (if given) is a DataError.
    """
    if not os.path.isdir(path):
        raise DataError(f"missing directory: {path}")
    names = {}
    for name in list_dir(path, ".pgm"):
        match = _FRAME_INDEX_RE.search(os.path.splitext(name)[0])
        idx = int(match.group(1)) if match else None
        if idx is None or (frame_count is not None and idx >= frame_count):
            raise DataError(f"cannot map mask file {name} in {path} to a frame")
        if idx in names:
            raise DataError(f"mask files {names[idx]} and {name} in {path} both map to frame {idx}")
        names[idx] = name
    return {idx: load_mask(os.path.join(path, name), shape) for idx, name in names.items()}


def load_inputs(cfg: PipelineConfig, build=True) -> LoadedInputs:
    """Ingest stage: load and validate the inputs; with build, also the flow, stats and graph.

    Pooling reads neither the flow nor the stats, so `vidseg pool` loads without build.
    """
    try:
        video = load_video(cfg.video_dir)
        sp = load_superpixels(cfg.superpixel_dir, video.frame_count)
        if video.frames.shape[:3] != sp.labels.shape:
            raise DataError("video and superpixel dimensions differ")
        motion_names = list_dir(cfg.motion_dir, ".pgm")
        if len(motion_names) != video.frame_count:
            raise DataError(
                f"expected {video.frame_count} motion masks, found {len(motion_names)}"
            )
        shape = (video.height, video.width)
        motion = np.stack([load_mask(os.path.join(cfg.motion_dir, n), shape) for n in motion_names])
        gt_masks = load_mask_dir(cfg.gt_dir, video.frame_count, shape) if cfg.gt_dir else {}
        stats = graph = None
        if build:
            flows = [load_flow(os.path.join(cfg.flow_dir, n))
                     for n in list_dir(cfg.flow_dir, ".flo")]
            stats = compute_superpixel_stats(video, sp)
            graph = build_graph(video, sp, flows, cfg.motion_coherence_weight, stats)
    except (OSError, ValueError) as exc:
        raise StageError("ingest", exc) from exc
    return LoadedInputs(video, sp, motion, gt_masks, stats, graph)


def pool_stage(cfg: PipelineConfig, inputs: LoadedInputs):
    """Score, filter, and pool proposals into per-class confidence fields."""
    try:
        video = inputs.video
        proposals = load_proposal_manifest(
            cfg.proposal_manifest, video.frame_count, (video.height, video.width)
        )
        scored = score_proposals(proposals, inputs.motion_masks)
        offered = {c for p in proposals for c in p.class_confidences}
        classes = cfg.classes or sorted(offered)
        if not classes:
            raise DataError("no classes found in proposals or config")
        for cls in classes:
            if cls not in offered:
                raise DataError(f"class {cls!r} is in no proposal's confidences")
        pooled = {}
        for cls in classes:
            retained = filter_by_confidence(scored, cls, cfg.confidence_threshold)
            pooled[cls] = pool_confidence(retained, cls, inputs.superpixels)
        return pooled
    except (OSError, ValueError) as exc:
        raise StageError("pool", exc) from exc


def adapt_stage(cfg: PipelineConfig, inputs: LoadedInputs, pooled):
    """Diffuse each class's pooled field over the space-time graph."""
    try:
        prop_cfg = cfg.propagation_config()
        return {
            cls: adapt_confidence(fieldv, inputs.graph, prop_cfg)
            for cls, fieldv in sorted(pooled.items())
        }
    except (ConvergenceError, ValueError) as exc:
        raise StageError("adapt", exc) from exc


def segment_class(cfg: PipelineConfig, inputs: LoadedInputs, fieldv):
    """Fit color models and min-cut one class; returns (masks, gmm_obj, gmm_bg)."""
    fieldv.check_counts(inputs.superpixels.counts)
    (obj_colors, obj_w), (bg_colors, bg_w) = gmm_mod.sample_training_sets(
        fieldv, inputs.stats
    )
    gmm_obj = gmm_mod.fit_gmm(
        obj_colors, obj_w, cfg.gmm_components, seed=cfg.gmm_seed
    )
    gmm_bg = gmm_mod.fit_gmm(
        bg_colors, bg_w, cfg.gmm_components, seed=cfg.gmm_seed + 1
    )
    problem = mrf_mod.build_problem(
        inputs.graph,
        fieldv.flat(),
        inputs.stats.mean_color,
        gmm_obj,
        gmm_bg,
        cfg.lambda_object,
        cfg.lambda_spatial,
        cfg.lambda_temporal,
    )
    labeling = mrf_mod.solve_binary(problem)
    return mrf_mod.rasterize(labeling, inputs.superpixels), gmm_obj, gmm_bg


def write_segmentation(out_dir, cls, video, masks, gmm_obj, gmm_bg):
    """Write one class's mask PGMs, overlay PPMs and mixture JSON."""
    mask_dir = os.path.join(out_dir, "masks", cls)
    os.makedirs(mask_dir, exist_ok=True)
    for t in range(video.frame_count):
        write_mask(os.path.join(mask_dir, f"frame_{t:04d}.pgm"), masks[t])
    render_overlay(video, masks, os.path.join(out_dir, "overlays", cls))
    models = {
        name: {f.name: getattr(model, f.name).tolist() for f in fields(model)}
        for name, model in (("object", gmm_obj), ("background", gmm_bg))
    }
    with open(os.path.join(out_dir, f"gmm_{cls}.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(models, sort_keys=True))


def segment_stage(cfg: PipelineConfig, inputs: LoadedInputs, confidences):
    """Segment every class and write its masks, overlays and color models."""
    try:
        masks = {}
        for cls, fieldv in sorted(confidences.items()):
            masks[cls], gmm_obj, gmm_bg = segment_class(cfg, inputs, fieldv)
            write_segmentation(cfg.out_dir, cls, inputs.video, masks[cls], gmm_obj, gmm_bg)
        return masks
    except (ConvergenceError, OSError, ValueError) as exc:
        raise StageError("segment", exc) from exc


def eval_stage(cfg: PipelineConfig, inputs: LoadedInputs, masks):
    """Score the masks against ground truth, if any, and write report.csv."""
    try:
        report = EvalReport()
        if inputs.gt_masks:
            report = score_masks(cfg.video_id, masks, inputs.gt_masks)
        report.write_csv(os.path.join(cfg.out_dir, "report.csv"))
        return report
    except (OSError, ValueError) as exc:
        raise StageError("eval", exc) from exc


def write_confidence_csv(path, confidence_fields):
    """Dump confidence fields as (frame, superpixel_id, class, value) rows.

    Each frame is one % over its rows' template, fed the ids and values interleaved.
    """
    def frames():
        for cls, fieldv in sorted(confidence_fields.items()):
            row = ",%d," + cls.replace("%", "%%") + ",%.17g\n"
            for t, values in enumerate(fieldv.values):
                cells = [None] * (2 * len(values))
                cells[::2] = range(len(values))
                cells[1::2] = values.tolist()
                yield (str(t) + row) * len(values) % tuple(cells)

    write_rows(path, CONFIDENCE_HEADER, frames())


def _parse_confidence_rows(lines):
    """The rows of lines (a text stream or a list of lines) as a _CONFIDENCE_ROW array."""
    with warnings.catch_warnings():
        # numpy 1.23-1.26 read "1.5" into an int64 field as 1, with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, _CONFIDENCE_ROW, delimiter=",", comments=None, ndmin=1)


def _numbered_rows(body):
    """(file line, text) of each non-blank line of body, the text after the header."""
    return [(n, line) for n, line in enumerate(body.split("\n"), start=2) if line.strip()]


def read_confidence_csv(path):
    """Read confidence fields back; inverse of write_confidence_csv.

    Ids are ASCII decimal integers and values decimal floats; blank lines are
    skipped. Every error names the file line of its row, malformed rows first.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read()
    if header != CONFIDENCE_HEADER:
        raise DataError(f"unexpected confidence CSV header in {path}")
    if not body.strip():
        return {}
    try:
        rows = _parse_confidence_rows(io.StringIO(body))
    except (ValueError, DeprecationWarning):
        # a malformed row, or a whitespace-only line, which np.loadtxt rejects too
        numbered = _numbered_rows(body)
        try:
            rows = _parse_confidence_rows([line for _, line in numbered])
        except (ValueError, DeprecationWarning) as exc:
            lo, hi = 0, len(numbered)  # the first malformed row lies in numbered[lo:hi]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    _parse_confidence_rows([line for _, line in numbered[lo:mid]])
                    lo = mid
                except (ValueError, DeprecationWarning):
                    hi = mid
            raise DataError(f"malformed confidence row {numbered[lo][0]} in {path}") from exc
    frame, sp_id, cls, value = (rows[name] for name in _CONFIDENCE_ROW.names)
    # class codes in order of first appearance, one dict lookup per run of equal names
    starts = np.flatnonzero(np.r_[True, cls[1:] != cls[:-1]])
    codes = {}
    run_codes = [codes.setdefault(name, len(codes)) for name in cls[starts].tolist()]
    code = np.repeat(run_codes, np.diff(np.r_[starts, len(rows)]))
    order = np.lexsort((sp_id, frame, code))  # stable: of two equal rows, the later sorts second
    c, f, s = code[order], frame[order], sp_id[order]
    same_frame = (c[1:] == c[:-1]) & (f[1:] == f[:-1])
    duplicate = np.zeros(len(rows), dtype=bool)
    duplicate[order[1:]] = same_frame & (s[1:] == s[:-1])
    checks = [
        ("negative id in", (frame < 0) | (sp_id < 0)),
        ("non-finite value in", ~np.isfinite(value)),
        ("duplicate", duplicate),
    ]
    failed = [(np.argmax(bad), i) for i, (_, bad) in enumerate(checks) if bad.any()]
    if failed:  # the first failing row; on one row, the first failing check
        k, i = min(failed)
        raise DataError(f"{checks[i][0]} confidence row {_numbered_rows(body)[k][0]} in {path}")
    # within a (class, frame), the sorted ids must run 0, 1, 2, ...
    gap = s != np.r_[0, np.where(same_frame, s[:-1] + 1, 0)]
    value = value[order]
    bounds = np.searchsorted(c, np.arange(len(codes) + 1))
    out = {}
    for i, name in enumerate(codes):
        check_id("class", name)
        lo, hi = bounds[i], bounds[i + 1]
        if f[hi - 1] >= hi - lo:  # every frame has a row: no clip fits a larger frame id
            raise DataError(f"class {name!r}: frame {f[hi - 1]} is past the class's {hi - lo} "
                            f"rows in {path}")
        if gap[lo:hi].any():
            t = f[lo:hi][gap[lo:hi]].min()
            raise DataError(f"non-contiguous superpixel ids for frame {t} in {path}")
        out[name] = ConfidenceField.from_flat(name, value[lo:hi], np.bincount(f[lo:hi]))
    return out


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Execute all stages, writing every artifact under cfg.out_dir."""
    cfg.validate()
    inputs = load_inputs(cfg)
    pooled = pool_stage(cfg, inputs)
    if cfg.gt_dir and len(pooled) > 1:  # gt_dir holds one class's masks
        raise DataError(f"gt_dir is scored against every class, but the run segments "
                        f"{sorted(pooled)}; set classes to the one class gt_dir annotates")
    if cfg.dump_graph:
        inputs.graph.dump_csv(os.path.join(cfg.out_dir, "graph.csv"))
    write_confidence_csv(os.path.join(cfg.out_dir, "pooled.csv"), pooled)
    if cfg.skip_adaptation:
        confidences = pooled
    else:
        confidences = adapt_stage(cfg, inputs, pooled)
        write_confidence_csv(os.path.join(cfg.out_dir, "adapted.csv"), confidences)
    masks = segment_stage(cfg, inputs, confidences)
    return eval_stage(cfg, inputs, masks)
