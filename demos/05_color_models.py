"""Confidence-weighted color models and the unaries they induce.

Fits object/background Gaussian mixtures from a soft confidence field (no
hard foreground mask needed) and shows the resulting per-color costs.
"""

import numpy as np

from vidseg.gmm import fit_gmm, sample_training_sets
from vidseg.mrf import color_unary, semantic_unary


def main():
    rng = np.random.default_rng(2)
    n_obj, n_bg = 60, 140
    obj_colors = np.array([200.0, 70.0, 60.0]) + rng.normal(0, 6, size=(n_obj, 3))
    bg_colors = np.array([60.0, 70.0, 160.0]) + rng.normal(0, 6, size=(n_bg, 3))
    colors = np.vstack([obj_colors, bg_colors])

    # noisy soft confidences instead of a clean mask
    conf = np.concatenate(
        [
            np.clip(0.8 + rng.normal(0, 0.15, n_obj), 0, 1),
            np.clip(0.1 + rng.normal(0, 0.1, n_bg), 0, 1),
        ]
    )

    (oc, ow), (bc, bw) = sample_training_sets(conf, colors)
    print(f"object training set: {len(oc)} samples, total weight {ow.sum():.1f}")
    print(f"background set:      {len(bc)} samples, total weight {bw.sum():.1f}")

    gmm_obj = fit_gmm(oc, ow, n_components=3, seed=0)
    gmm_bg = fit_gmm(bc, bw, n_components=3, seed=1)
    top = np.argmax(gmm_obj.weights)
    print(f"\nheaviest object component: weight {gmm_obj.weights[top]:.2f}, "
          f"mean {np.round(gmm_obj.means[top], 1)}")

    probes = {
        "object-like (205, 75, 55)": [205.0, 75.0, 55.0],
        "background-like (55, 65, 165)": [55.0, 65.0, 165.0],
        "halfway (130, 70, 110)": [130.0, 70.0, 110.0],
    }
    print("\ncolor unary costs (object, background):")
    for name, color in probes.items():
        co, cb = color_unary(gmm_obj, gmm_bg, np.array([color]))
        print(f"  {name:32s} ({co[0]:6.3f}, {cb[0]:6.3f})")

    print("\nsemantic unary costs at a few confidences:")
    for c in (0.05, 0.5, 0.95):
        co, cb = semantic_unary(c)
        print(f"  c={c:4.2f} -> (object {co:6.3f}, background {cb:6.3f})")
    print("\nThe two unaries pull together when color evidence and diffusion agree.")


if __name__ == "__main__":
    main()
