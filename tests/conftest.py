import hashlib
import os

import numpy as np
import pytest

from vidseg.graph import assemble


def graph_from_edges(n, spatial=(), temporal=()):
    """Single-frame graph over n nodes from explicit (i, j, w) edges, the spatial ones first."""
    edges = [*spatial, *temporal]
    i = np.array([e[0] for e in edges], dtype=np.int64)
    j = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return assemble(np.array([0, n], dtype=np.int64), i, j, w, len(spatial))


def random_graph(rng, max_nodes=200):
    """Random connected-ish graph with mixed spatial/temporal edges."""
    n = int(rng.integers(2, max_nodes + 1))
    spatial, temporal = [], []
    for k in range(1, n):
        j = int(rng.integers(0, k))
        spatial.append((j, k, float(rng.uniform(0.1, 2.0))))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        w = float(rng.uniform(0.05, 3.0))
        if rng.random() < 0.5:
            spatial.append((int(i), int(j), w))
        else:
            temporal.append((int(i), int(j), w))
    return graph_from_edges(n, spatial, temporal)


def tree_digest(root):
    """sha256 over the relative path and bytes of every file under root, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
