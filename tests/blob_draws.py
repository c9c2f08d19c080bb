"""Seeded two-to-three-blob draws shared by the algorithm and property tests.

Each draw is shaped like the adaptive property suite's cases: 2 or 3
Gaussian blobs of 15-24 points around fixed centres in the plane, with
an m_ini and an alpha in the ranges that suite samples.
"""

import numpy as np


def blob_draw(seed):
    """Points, m_ini and alpha of draw `seed`."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    centers = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.5)])[:k]
    spread = float(rng.uniform(0.15, 0.45))
    pts = np.vstack([rng.normal(c, spread, size=(int(rng.integers(15, 25)), 2))
                     for c in centers])
    return pts, int(rng.integers(3, 7)), float(rng.uniform(0.8, 2.0))
