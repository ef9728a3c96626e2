"""The Gabriel-graph builder as it was before it dropped its Delaunay step,
kept as the reference `network._gabriel_edges` must reproduce edge for edge:
the Delaunay edges of the points, each kept when no other point lies inside
its diametral circle, in (i, j) order."""

import numpy as np
from scipy.spatial import Delaunay


def delaunay_gabriel_edges(points):
    pts = np.asarray(points)
    if len(pts) == 2:  # Delaunay needs three points; two nodes share one edge
        return [(0, 1)]
    tri = Delaunay(pts)
    cand = set()
    for simplex in tri.simplices:
        for a in range(3):
            i, j = sorted((simplex[a], simplex[(a + 1) % 3]))
            cand.add((i, j))
    edges = []
    for i, j in sorted(cand):
        mid = (pts[i] + pts[j]) / 2.0
        rad2 = np.sum((pts[i] - pts[j]) ** 2) / 4.0
        d2 = np.sum((pts - mid) ** 2, axis=1)
        d2[i] = d2[j] = np.inf
        if d2.min() > rad2 - 1e-12:
            edges.append((int(i), int(j)))
    return edges
