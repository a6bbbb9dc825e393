"""Semantic video object segmentation from weakly labeled video.

Classifier-scored region proposals are pooled into per-superpixel
confidence maps, refined by diffusion on a space-time superpixel graph,
and turned into binary object masks by exact min-cut energy minimization.
"""

from .evaluation import EvalReport, mask_scores, render_overlay
from .gmm import GaussianMixture, fit_gmm, sample_training_sets
from .graph import (
    SpaceTimeGraph,
    assemble,
    build_graph,
    spatial_affinity,
    spatial_edges,
    temporal_affinity,
    temporal_edges,
)
from .mrf import (
    Labeling,
    MRFProblem,
    build_problem,
    color_unary,
    mrf_energy,
    pairwise_weights,
    rasterize,
    semantic_unary,
    solve_binary,
)
from .pipeline import PipelineConfig, StageError, run_pipeline
from .proposals import (
    ConfidenceField,
    ScoredProposal,
    context_score,
    filter_by_confidence,
    load_proposal_manifest,
    normalize_and_combine,
    pool_confidence,
)
from .propagation import (
    ConvergenceError,
    PropagationConfig,
    PropagationResult,
    adapt_confidence,
    energy,
    propagate_iterative,
    propagate_linear,
)
from .synth import (
    SynthConfig,
    SynthDataset,
    dense_solve_oracle,
    enumerate_labelings_oracle,
    generate,
    write_dataset,
)
from .video import (
    DataError,
    SuperpixelMap,
    SuperpixelStats,
    VideoVolume,
    compute_superpixel_stats,
    load_flow,
    load_mask,
    load_superpixels,
    load_video,
    warp_mask,
    write_flow,
)

__version__ = "0.1.0"
