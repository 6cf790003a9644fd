"""The AppRI bound on the paper's per-level schedule.

One :func:`repro.dstruct.dominance.count_dominators` pass per gamma
level per side of every pair system (paper Algorithm 3, Eqns 1-2),
with a selectable counting engine: ``"naive"`` is the O(n^2)
all-pairs count, ``"blocked"`` is the engine ``method="auto"`` used
before the fused kernels existed.  :func:`repro.core.appri.appri_build`
and :func:`repro.core.pipeline.build_level_data` must return exactly
what this module returns, on any input.
"""

from __future__ import annotations

import numpy as np

from repro.core.appri import pair_eds2_bound
from repro.core.partitioning import (
    disjoint_system_families,
    level_transform,
    pair_systems,
    subspace_transform,
)
from repro.dstruct.dominance import count_dominators
from repro.geometry.peeling import shell_peel_layers
from repro.geometry.weights import gamma_levels


def serial_level_arrays(pts, pair, b, method="naive"):
    """The per-level passes of one pair system, as (n, B+1) arrays."""
    n = pts.shape[0]
    a_levels = np.zeros((n, b + 1), dtype=np.int64)
    b_levels = np.zeros((n, b + 1), dtype=np.int64)
    for p, gamma in enumerate(gamma_levels(b), start=1):
        a_levels[:, p] = count_dominators(
            level_transform(pts, pair, float(gamma), "a"), method=method
        )
        b_levels[:, p] = count_dominators(
            level_transform(pts, pair, float(gamma), "b"), method=method
        )
    a_levels[:, b] = count_dominators(
        subspace_transform(pts, pair, "a"), method=method
    )
    b_levels[:, 0] = count_dominators(
        subspace_transform(pts, pair, "b"), method=method
    )
    return a_levels, b_levels


def wedge_counts(pts, pair, b, method="naive"):
    """Per-tuple wedge sizes ``(|I_i|, |III_i|)``, two (n, B) arrays.

    ``|I_i| = |a_i| - |a_{i-1}|`` and ``|III_i| = |b_{B-i}| -
    |b_{B+1-i}|``, clamped at zero: strict counting can make nested
    region counts non-monotone through boundary ties, and dropping a
    pair opportunity keeps the bound sound.
    """
    a_levels, b_levels = serial_level_arrays(pts, pair, b, method)
    i_wedges = np.clip(np.diff(a_levels, axis=1), 0, None)
    iii_wedges = np.clip(np.diff(b_levels[:, ::-1], axis=1), 0, None)
    return i_wedges, iii_wedges


def appri_layers(
    pts,
    n_partitions=10,
    matching="greedy",
    systems="complementary",
    refine=None,
    method="naive",
):
    """AppRI layers, every count taken by one ``method`` pass."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    all_systems = pair_systems(
        pts.shape[1], include_partial=(systems == "families")
    )
    eds2 = np.zeros((len(all_systems), n), dtype=np.int64)
    for s, pair in enumerate(all_systems):
        i_wedges, iii_wedges = wedge_counts(pts, pair, n_partitions, method)
        eds2[s] = pair_eds2_bound(i_wedges, iii_wedges, matching)
    if systems == "complementary":
        bound = eds2.sum(axis=0)
    else:
        bound = np.max(
            [eds2[list(family)].sum(axis=0)
             for family in disjoint_system_families(all_systems)],
            axis=0,
        )
    layers = count_dominators(pts, method=method) + bound + 1
    if refine == "peel":
        layers = np.maximum(layers, shell_peel_layers(pts))
    return layers.astype(np.intp)
