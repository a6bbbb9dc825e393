"""End-to-end walkthrough on a synthetic clip.

Generates a moving-square video with noisy classifier confidences, runs the
full pipeline (pooling -> graph diffusion -> GMM color models -> min-cut),
then repeats with adaptation disabled to show what the diffusion step buys.
Outputs land in demos/output/full_pipeline/.
"""

import dataclasses
import os

from vidseg.pipeline import PipelineConfig, run_pipeline
from vidseg.synth import SynthConfig, generate, write_dataset

OUT = os.path.join(os.path.dirname(__file__), "output", "full_pipeline")


def main():
    print("Generating a 20-frame synthetic clip (40x40 square moving at (2,1))...")
    dataset = generate(SynthConfig(seed=7))
    fired = {
        p.frame for p in dataset.proposals if p.class_confidences["object"] > 0.01
    }
    print(
        f"  classifier fired on {len(fired)}/{len(dataset.frames)} frames "
        "(the rest have no retained proposal at all)"
    )
    paths = write_dataset(dataset, os.path.join(OUT, "data"))

    cfg = PipelineConfig(
        video_dir=paths["video_dir"],
        superpixel_dir=paths["superpixel_dir"],
        flow_dir=paths["flow_dir"],
        motion_dir=paths["motion_dir"],
        proposal_manifest=paths["proposal_manifest"],
        gt_dir=paths["gt_dir"],
        out_dir=os.path.join(OUT, "with_adaptation"),
    )
    print("\nRunning the full pipeline (with confidence diffusion)...")
    full = run_pipeline(cfg).rows[0]
    print(f"  IoU micro={full['iou_micro']:.3f}  macro={full['iou_macro']:.3f}  "
          f"pixel error={full['mean_pixel_error']:.0f}/frame")

    print("\nRunning the ablation (pooled confidences go straight to the MRF)...")
    skip = run_pipeline(
        dataclasses.replace(
            cfg, skip_adaptation=True, out_dir=os.path.join(OUT, "baseline")
        )
    ).rows[0]
    print(f"  IoU micro={skip['iou_micro']:.3f}  macro={skip['iou_macro']:.3f}  "
          f"pixel error={skip['mean_pixel_error']:.0f}/frame")

    print(
        "\nDiffusion carries confidence into the frames the classifier missed;\n"
        "without it, those frames' zero-confidence superpixels pull the whole\n"
        "space-time object tube to background."
    )
    print(f"\nOverlays: {os.path.join(OUT, 'with_adaptation', 'overlays', 'object')}")


if __name__ == "__main__":
    main()
