"""Pipeline orchestration: ingest -> pool -> adapt -> segment -> eval.

load_inputs is the only stage that reads input files. Given the stages a command runs,
it reads what STAGE_INPUTS, the one table of what each stage reads, names and no more:
pool reads the superpixels, motion masks and proposals; adapt the graph, built from the
flow and the superpixels' mean colours and centroids, with the frames let go before the
build; segment the frames, superpixels, colours and graph; eval the ground truth. It
returns a video.Clip, as synth.generate makes one, with None for what no stage reads,
beside the colours and the graph. pool_stage and adapt_stage compute over those values
and return class -> ConfidenceField, one array by global node id. segment_stage, given
the run's Potts terms, returns class -> segment_class's dict and writes masks, overlays
and mixtures; eval_stage returns the EvalReport and writes report.csv. Only run_pipeline
runs every stage. It and the CLI subcommands write the confidence CSVs at full float
precision, so the two routes write identical bytes; write_confidence_csv alone reads a
field by frame. Each value is let go after its last reader: the clip's motion masks and
proposals after pooling, the graph once the Potts terms are built.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from collections import defaultdict
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
    Clip,
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
    [("frame", np.int64), ("superpixel_id", np.int64), ("class", np.int64), ("value", np.float64)]
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
    "pool": ("motion", "proposals"),
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

    Returns (Clip, colors, graph); what no stage reads is None, as are the clip's flows,
    which the build consumes, and without gt_dir the ground truth is no masks. A missing
    input path is a DataError naming its key, raised before any file is read. The frames
    are always read, for the clip's frame count and shape, and let go before the graph
    build unless a stage reads them. The flow files are counted up front, then each is
    read as build_graph reaches its frame pair and freed before the next.
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
        frames = load_video(cfg.video_dir)
        count, shape = frames.shape[0], frames.shape[1:3]
        sp = load_superpixels(cfg.superpixel_dir, count)
        if sp.labels.shape[1:] != shape:
            raise DataError(f"dimension mismatch: superpixel maps in {cfg.superpixel_dir} are "
                            f"{sp.labels.shape[1:]}, frames are {shape}")
        colors = centroids = graph = None
        if "graph" in reads:
            colors, centroids = compute_superpixel_stats(frames, sp)
        clip = Clip(frames if "frames" in reads else None, sp)
        del frames
        if "motion" in reads:
            clip.motion_masks = np.stack([load_mask(mask_path, shape) for mask_path
                                          in list_frames(cfg.motion_dir, ".pgm", count)])
        if "gt" in reads:
            clip.gt_masks = load_mask_dir(cfg.gt_dir, count, shape) if cfg.gt_dir else {}
        if "graph" in reads:
            flows = (load_flow(flow_path) for flow_path
                     in list_frames(cfg.flow_dir, ".flo", count - 1))
            graph = build_graph(sp, flows, colors, centroids, cfg.motion_coherence_weight)
        if "proposals" in reads:
            clip.proposals = load_proposal_manifest(cfg.proposal_manifest, count, shape)
    return clip, colors if "colors" in reads else None, graph


def pool_stage(cfg: PipelineConfig, clip: Clip):
    """Score, filter, and pool the clip's proposals into per-class confidence fields."""
    with _stage("pool"):
        scored = score_proposals(clip.proposals, clip.motion_masks)
        offered = {c for p in clip.proposals for c in p.class_confidences}
        classes = cfg.classes or sorted(offered)
        if not classes:
            raise DataError("no classes found in proposals or config")
        for cls in classes:
            if cls not in offered:
                raise DataError(f"class {cls!r} is in no proposal's confidences")
        pooled = {}
        for cls in classes:
            retained = filter_by_confidence(scored, cls, cfg.confidence_threshold)
            pooled[cls] = pool_confidence(retained, cls, clip.superpixels)
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


def segment_class(cfg: PipelineConfig, clip: Clip, colors, potts, fieldv):
    """Fit color models on the mean colours and min-cut one class over the Potts terms
    potts, writing nothing; returns {"masks", "gmm_obj", "gmm_bg", "problem", "labeling"}:
    masks, mixtures, and the MRF problem and its solve."""
    fieldv.check_counts(clip.superpixels.counts)
    (obj_colors, obj_w), (bg_colors, bg_w) = gmm_mod.sample_training_sets(fieldv.flat, colors)
    gmm_obj = gmm_mod.fit_gmm(
        obj_colors, obj_w, cfg.gmm_components, seed=cfg.gmm_seed
    )
    gmm_bg = gmm_mod.fit_gmm(
        bg_colors, bg_w, cfg.gmm_components, seed=cfg.gmm_seed + 1
    )
    del obj_colors, obj_w, bg_colors, bg_w  # not live through the solve
    problem = mrf_mod.build_problem(
        potts, fieldv.flat, colors, gmm_obj, gmm_bg, cfg.lambda_object
    )
    labeling = mrf_mod.solve_binary(problem)
    return {"masks": mrf_mod.rasterize(labeling, clip.superpixels), "gmm_obj": gmm_obj,
            "gmm_bg": gmm_bg, "problem": problem, "labeling": labeling}


def segment_stage(cfg: PipelineConfig, clip: Clip, colors, potts, confidences):
    """Segment and write each class (masks, overlays, mixtures); class -> segment_class's dict."""
    with _stage("segment"):
        segs = {}
        for cls, fieldv in sorted(confidences.items()):
            seg = segs[cls] = segment_class(cfg, clip, colors, potts, fieldv)
            for t, mask in enumerate(seg["masks"]):
                write_mask(os.path.join(cfg.out_dir, "masks", cls, f"frame_{t:04d}.pgm"), mask)
            render_overlay(clip.frames, seg["masks"], os.path.join(cfg.out_dir, "overlays", cls))
            models = {
                name: {f.name: getattr(seg[key], f.name).tolist() for f in fields(seg[key])}
                for name, key in (("object", "gmm_obj"), ("background", "gmm_bg"))
            }
            write_file(os.path.join(cfg.out_dir, f"gmm_{cls}.json"),
                       [json.dumps(models, sort_keys=True)])
        return segs


def eval_stage(cfg: PipelineConfig, clip: Clip, masks):
    """Score the masks against the clip's ground truth, if any, and write report.csv."""
    with _stage("eval"):
        report = EvalReport()
        if clip.gt_masks:
            report = score_masks(cfg.video_id, masks, clip.gt_masks)
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
    """The rows of lines (a text stream or a list of lines) as a _CONFIDENCE_ROW array, and
    the dict class name -> the code in its rows' class field, in order of first appearance."""
    codes = defaultdict()
    codes.default_factory = codes.__len__  # a new name gets the next code; no Python call per row
    with warnings.catch_warnings():
        # numpy 1.23-1.26 read "1.5" into an int64 field as 1, with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        # no rows is an empty array, which read_confidence_csv rejects
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # encoding=None: numpy < 2 defaults to "bytes", which hands converters bytes, not str
        rows = np.loadtxt(lines, _CONFIDENCE_ROW, delimiter=",", comments=None, ndmin=1,
                          converters={2: codes.__getitem__}, encoding=None)
    return rows, codes


def _numbered_rows(path):
    """(file line, text) of each non-blank line after the header of the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return [(n, line) for n, line in enumerate(fh, start=2) if line.strip()]


def read_confidence_csv(path):
    """Read confidence fields back; inverse of write_confidence_csv.

    Ids are ASCII decimal integers and values decimal floats; blank lines are
    skipped, and a body of no rows is a DataError. Every error names the file
    line of its row, malformed rows first. The rows are parsed straight from the
    open file; only an error reads the file again, for its line numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != CONFIDENCE_HEADER:
            raise DataError(f"unexpected confidence CSV header in {path}")
        try:
            rows, codes = _parse_confidence_rows(fh)
        except (ValueError, DeprecationWarning):
            rows = None
    if rows is None:
        # a malformed row, or a whitespace-only line, which np.loadtxt rejects too
        numbered = _numbered_rows(path)
        try:
            rows, codes = _parse_confidence_rows([line for _, line in numbered])
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
        raise DataError(f"no confidence rows in {path}")
    frame, sp_id, code, value = (rows[name] for name in _CONFIDENCE_ROW.names)
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
    clip, colors, graph = load_inputs(cfg, tuple(STAGE_INPUTS))
    potts = mrf_mod.pairwise_weights(graph, cfg.lambda_spatial, cfg.lambda_temporal)
    pooled = pool_stage(cfg, clip)
    clip.motion_masks = clip.proposals = None  # pooling is their only reader
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
    segs = segment_stage(cfg, clip, colors, potts, confidences)
    return eval_stage(cfg, clip, {cls: seg["masks"] for cls, seg in segs.items()})
