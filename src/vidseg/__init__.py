"""Semantic video object segmentation from weakly labeled video.

Classifier-scored region proposals are pooled into per-superpixel
confidence maps, refined by diffusion on a space-time superpixel graph,
and turned into binary object masks by exact min-cut energy minimization.
"""

__version__ = "0.1.0"
