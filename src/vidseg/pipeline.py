"""Pipeline orchestration: ingest -> pool -> adapt -> segment -> eval.

STAGE_INPUTS is the one table of what each stage reads, and load_inputs, given the
stages a command runs, loads that and no more: pool reads the frames, superpixels,
motion masks and proposals; adapt the graph, built from the flow and the superpixels'
mean colours and centroids, with the frames let go before the build; segment the
frames, superpixels, colours and graph; eval the ground truth. Only run_pipeline runs
every stage. load_inputs returns the clip, its motion masks and its graph. pool_stage
(which reads the proposal manifest) and adapt_stage return class -> ConfidenceField,
one array by global node id. segment_stage, given the run's Potts terms, returns class ->
segment_class's dict and writes masks, overlays and mixtures; eval_stage returns the
EvalReport and writes report.csv. write_confidence_csv alone reads a field by frame.
run_pipeline and the CLI subcommands write the confidence CSVs at full float
precision, so the two routes write identical bytes.

The motion masks, the graph and the pooled fields are locals of run_pipeline and the
CLI commands, let go after their last reader. Segmentation holds only what it reads:
the video (for overlays), the uint16 superpixel labels, the mean colours, the
confidences it segments, and the Potts terms, built once per run.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from . import gmm as gmm_mod
from . import mrf as mrf_mod
from .evaluation import EvalReport, render_overlay, score_masks
from .graph import MOTION_COHERENCE_WEIGHT, build_graph
from .pnm import DataError, write_file
from .proposals import (
    CONFIDENCE_THRESHOLD,
    ConfidenceField,
    filter_by_confidence,
    load_proposal_manifest,
    pool_confidence,
    score_proposals,
)
from .propagation import ConvergenceError, PropagationConfig, adapt_confidence, diffusion_operator
from .video import (
    check_id,
    compute_superpixel_stats,
    list_frames,
    load_flow,
    load_mask,
    load_superpixels,
    load_video,
    write_mask,
)

_FRAME_INDEX_RE = re.compile(r"(\d+)\D*$")
CONFIDENCE_HEADER = "frame,superpixel_id,class,value"
_CONFIDENCE_ROW = np.dtype(
    [("frame", np.int64), ("superpixel_id", np.int64), ("class", object), ("value", np.float64)]
)


class StageError(RuntimeError):
    """Error surfaced with the pipeline stage it occurred in; __cause__ holds the original."""


@contextmanager
def _stage(name):
    """Re-raise a ConvergenceError, OSError or ValueError of the block as a StageError."""
    try:
        yield
    except (ConvergenceError, OSError, ValueError) as exc:
        raise StageError(f"{name}: {exc}") from exc


# Path keys; relative values resolve against the config file.
_PATHS = ("video_dir", "superpixel_dir", "flow_dir", "motion_dir", "proposal_manifest", "gt_dir",
          "out_dir")
# stage -> the inputs it reads besides the superpixels, which every stage reads. Ingest
# always reads the frames, for the clip's frame count and shape, but keeps them only for
# a stage that reads "frames"; "graph" is built from the flow and the superpixels' mean
# colours and centroids, and "colors" keeps the colours past the build.
STAGE_INPUTS = {
    "pool": ("frames", "motion", "proposals"),
    "adapt": ("graph",),
    "segment": ("frames", "colors", "graph"),
    "eval": ("gt",),
}
# input -> the path key it is read from; video_dir and superpixel_dir are always read
_INPUT_PATHS = {"motion": "motion_dir", "proposals": "proposal_manifest", "graph": "flow_dir",
                "gt": "gt_dir"}
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
        """Check each key's type and range; errors name the key. load_inputs checks the
        input paths that its stages read."""
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
    video: object  # None if no stage reads the frames
    superpixels: object
    gt_masks: dict  # frame index -> mask; empty when no ground truth or no stage reads it
    colors: np.ndarray | None  # (N, 3) superpixel mean colours; None if no stage reads them


def load_mask_dir(path, frame_count=None, shape=None):
    """Masks of a directory of PGMs, keyed by the frame number ending each name.

    A directory without masks, a name without a frame number, one at or past
    frame_count, two names of one frame, or a mask not of (H, W) shape (if
    given) is a DataError.
    """
    names = {}
    for name in map(os.path.basename, list_frames(path, ".pgm")):
        match = _FRAME_INDEX_RE.search(os.path.splitext(name)[0])
        idx = int(match.group(1)) if match else None
        if idx is None or (frame_count is not None and idx >= frame_count):
            raise DataError(f"cannot map mask file {name} in {path} to a frame")
        if idx in names:
            raise DataError(f"mask files {names[idx]} and {name} in {path} both map to frame {idx}")
        names[idx] = name
    if not names:
        raise DataError(f"no masks in {path}")
    return {idx: load_mask(os.path.join(path, name), shape) for idx, name in names.items()}


def load_inputs(cfg: PipelineConfig, stages):
    """Ingest stage: load and validate the inputs that the stages read (STAGE_INPUTS).

    Returns (LoadedInputs, motion masks, graph); what no stage reads is None, or for the
    ground truth no masks. A missing input path is a DataError naming its key, raised
    before any file is read. The frames are always read, for the clip's shape, and if
    no stage reads them they are let go once the superpixel stats are computed, so the
    graph build never holds them. The flow files are counted up front, then each is
    read as build_graph reaches its frame pair and freed before the next, so one flow
    field is resident at a time.
    """
    reads = {name for stage in stages for name in STAGE_INPUTS[stage]}
    read_paths = {"video_dir", "superpixel_dir"}
    read_paths.update(_INPUT_PATHS[name] for name in reads if name in _INPUT_PATHS)
    for name in _PATHS[:-1]:  # out_dir is written, not read; gt_dir is optional
        path = getattr(cfg, name)
        exists = os.path.isdir if name.endswith("_dir") else os.path.isfile
        if name in read_paths and not exists(path) and (path or name != "gt_dir"):
            raise DataError(f"{name} does not exist: {path!r}")
    with _stage("ingest"):
        video = load_video(cfg.video_dir)
        sp = load_superpixels(cfg.superpixel_dir, video.frame_count)
        shape = (video.height, video.width)
        if sp.labels.shape[1:] != shape:
            raise DataError(f"dimension mismatch: superpixel maps in {cfg.superpixel_dir} are "
                            f"{sp.labels.shape[1:]}, frames are {shape}")
        motion = colors = graph = None
        if "motion" in reads:
            motion = np.stack([load_mask(mask_path, shape) for mask_path
                               in list_frames(cfg.motion_dir, ".pgm", video.frame_count)])
        gt_masks = {}
        if "gt" in reads and cfg.gt_dir:
            gt_masks = load_mask_dir(cfg.gt_dir, video.frame_count, shape)
        if "graph" in reads:
            flows = (load_flow(flow_path) for flow_path
                     in list_frames(cfg.flow_dir, ".flo", video.frame_count - 1))
            colors, centroids = compute_superpixel_stats(video, sp)
            if "frames" not in reads:
                video = None
            graph = build_graph(sp, flows, colors, centroids, cfg.motion_coherence_weight)
        if "colors" not in reads:
            colors = None
    return LoadedInputs(video, sp, gt_masks, colors), motion, graph


def pool_stage(cfg: PipelineConfig, inputs: LoadedInputs, motion):
    """Score, filter, and pool proposals into per-class confidence fields."""
    with _stage("pool"):
        video = inputs.video
        proposals = load_proposal_manifest(
            cfg.proposal_manifest, video.frame_count, (video.height, video.width)
        )
        scored = score_proposals(proposals, motion)
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


def adapt_stage(cfg: PipelineConfig, graph, pooled):
    """Diffuse each class's pooled field with the graph's diffusion operator, built once."""
    with _stage("adapt"):
        prop_cfg = cfg.propagation_config()
        s = diffusion_operator(graph)
        return {
            cls: adapt_confidence(fieldv, s, prop_cfg)
            for cls, fieldv in sorted(pooled.items())
        }


def segment_class(cfg: PipelineConfig, inputs: LoadedInputs, potts, fieldv):
    """Fit color models and min-cut one class over the Potts terms potts, writing nothing;
    returns {"masks", "gmm_obj", "gmm_bg", "problem", "labeling"}: masks, mixtures, and
    the MRF problem and its solve."""
    fieldv.check_counts(inputs.superpixels.counts)
    (obj_colors, obj_w), (bg_colors, bg_w) = gmm_mod.sample_training_sets(
        fieldv.flat, inputs.colors
    )
    gmm_obj = gmm_mod.fit_gmm(
        obj_colors, obj_w, cfg.gmm_components, seed=cfg.gmm_seed
    )
    gmm_bg = gmm_mod.fit_gmm(
        bg_colors, bg_w, cfg.gmm_components, seed=cfg.gmm_seed + 1
    )
    del obj_colors, obj_w, bg_colors, bg_w  # not live through the solve
    problem = mrf_mod.build_problem(
        potts, fieldv.flat, inputs.colors, gmm_obj, gmm_bg, cfg.lambda_object
    )
    labeling = mrf_mod.solve_binary(problem)
    return {"masks": mrf_mod.rasterize(labeling, inputs.superpixels), "gmm_obj": gmm_obj,
            "gmm_bg": gmm_bg, "problem": problem, "labeling": labeling}


def segment_stage(cfg: PipelineConfig, inputs: LoadedInputs, potts, confidences):
    """Segment and write each class (masks, overlays, mixtures); class -> segment_class's dict."""
    with _stage("segment"):
        segs = {}
        for cls, fieldv in sorted(confidences.items()):
            seg = segs[cls] = segment_class(cfg, inputs, potts, fieldv)
            for t, mask in enumerate(seg["masks"]):
                write_mask(os.path.join(cfg.out_dir, "masks", cls, f"frame_{t:04d}.pgm"), mask)
            render_overlay(inputs.video, seg["masks"], os.path.join(cfg.out_dir, "overlays", cls))
            models = {
                name: {f.name: getattr(seg[key], f.name).tolist() for f in fields(seg[key])}
                for name, key in (("object", "gmm_obj"), ("background", "gmm_bg"))
            }
            write_file(os.path.join(cfg.out_dir, f"gmm_{cls}.json"),
                       [json.dumps(models, sort_keys=True)])
        return segs


def eval_stage(cfg: PipelineConfig, inputs: LoadedInputs, masks):
    """Score the masks against ground truth, if any, and write report.csv."""
    with _stage("eval"):
        report = EvalReport()
        if inputs.gt_masks:
            report = score_masks(cfg.video_id, masks, inputs.gt_masks)
        report.write_csv(os.path.join(cfg.out_dir, "report.csv"))
        return report


def write_confidence_csv(path, confidence_fields):
    """Dump confidence fields as (frame, superpixel_id, class, value) rows.

    Each frame is one % over its rows' template, fed the ids and values interleaved.
    """
    def chunks():
        yield CONFIDENCE_HEADER + "\n"
        for cls, fieldv in sorted(confidence_fields.items()):
            row = ",%d," + cls.replace("%", "%%") + ",%.17g\n"
            for t, values in enumerate(fieldv.values):
                cells = [None] * (2 * len(values))
                cells[::2] = range(len(values))
                cells[1::2] = values.tolist()
                yield (str(t) + row) * len(values) % tuple(cells)

    write_file(path, chunks())


def _parse_confidence_rows(lines):
    """The rows of lines (a text stream or a list of lines) as a _CONFIDENCE_ROW array."""
    with warnings.catch_warnings():
        # numpy 1.23-1.26 read "1.5" into an int64 field as 1, with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        # no rows is an empty array: read_confidence_csv returns {} for a blank body
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, _CONFIDENCE_ROW, delimiter=",", comments=None, ndmin=1)


def _numbered_rows(path):
    """(file line, text) of each non-blank line after the header of the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return [(n, line) for n, line in enumerate(fh, start=2) if line.strip()]


def read_confidence_csv(path):
    """Read confidence fields back; inverse of write_confidence_csv.

    Ids are ASCII decimal integers and values decimal floats; blank lines are
    skipped. Every error names the file line of its row, malformed rows first.
    The rows are parsed straight from the open file; only an error reads the
    file again, for its line numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != CONFIDENCE_HEADER:
            raise DataError(f"unexpected confidence CSV header in {path}")
        try:
            rows = _parse_confidence_rows(fh)
        except (ValueError, DeprecationWarning):
            rows = None
    if rows is None:
        # a malformed row, or a whitespace-only line, which np.loadtxt rejects too
        numbered = _numbered_rows(path)
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
    if not len(rows):
        return {}
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
        raise DataError(f"{checks[i][0]} confidence row {_numbered_rows(path)[k][0]} in {path}")
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
        out[name] = ConfidenceField(name, value[lo:hi], np.bincount(f[lo:hi]))
    return out


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Execute all stages, writing every artifact under cfg.out_dir."""
    cfg.validate()
    inputs, motion, graph = load_inputs(cfg, tuple(STAGE_INPUTS))
    potts = mrf_mod.pairwise_weights(graph, cfg.lambda_spatial, cfg.lambda_temporal)
    pooled = pool_stage(cfg, inputs, motion)
    del motion  # pooling is their only reader
    if cfg.gt_dir and len(pooled) > 1:  # gt_dir holds one class's masks
        raise DataError(f"gt_dir is scored against every class, but the run segments "
                        f"{sorted(pooled)}; set classes to the one class gt_dir annotates")
    if cfg.dump_graph:
        graph.dump_csv(os.path.join(cfg.out_dir, "graph.csv"))
    write_confidence_csv(os.path.join(cfg.out_dir, "pooled.csv"), pooled)
    if cfg.skip_adaptation:
        confidences = pooled
    else:
        confidences = adapt_stage(cfg, graph, pooled)
        del pooled  # segmentation reads the adapted fields
        write_confidence_csv(os.path.join(cfg.out_dir, "adapted.csv"), confidences)
    del graph  # segmentation reads the Potts terms instead
    segs = segment_stage(cfg, inputs, potts, confidences)
    return eval_stage(cfg, inputs, {cls: seg["masks"] for cls, seg in segs.items()})
