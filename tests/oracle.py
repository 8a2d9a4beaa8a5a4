"""Slow, independent references used to cross-check the production paths.

Everything here is written with plain Python loops and scalar arithmetic,
deliberately sharing no code with the package's assembly or physics
modules; only the flux constant ``UNIT_ALPHA`` is read from the latter.
"""

import math
from unittest import mock

import numpy as np

from gfdmflow.cloud import NodeKind, generate_irregular_cloud
from gfdmflow.physics import UNIT_ALPHA


def oracle_residual(cloud, ops, model, specs, state_new, state_old, dt):
    """Dense nodal-loop evaluation of the fully implicit residual."""
    n = len(cloud)
    res = np.zeros(2 * n)
    p, sw = state_new.p, state_new.sw
    p_old, sw_old = state_old.p, state_old.sw

    def kr_water(s):
        s = min(max(s, model.Swc), 1.0 - model.Sor)
        return ((s - model.Swc) / (1.0 - model.Swc - model.Sor)) ** 2

    def kr_oil(s):
        s = min(max(s, model.Swc), 1.0 - model.Sor)
        return ((1.0 - s - model.Sor) / (1.0 - model.Swc - model.Sor)) ** 2

    for i in range(n):
        kind = NodeKind(int(cloud.kinds[i]))
        if kind in (NodeKind.INTERIOR, NodeKind.ROBIN):
            stencil = ops.stencils[i]
            rows = ops.rows[i]
            flux_o = 0.0
            flux_w = 0.0
            for k, j in enumerate(stencil.neighbors):
                j = int(j)
                lap = rows[2, k] + rows[3, k]
                k_ij = 2.0 / (1.0 / model.permeability[i] + 1.0 / model.permeability[j])
                mu_o = 0.5 * (model.mu_o[i] + model.mu_o[j])
                mu_w = 0.5 * (model.mu_w[i] + model.mu_w[j])
                s_up = sw[j] if p[j] >= p[i] else sw[i]
                flux_o += UNIT_ALPHA * k_ij * kr_oil(s_up) / mu_o * lap * (p[j] - p[i])
                flux_w += UNIT_ALPHA * k_ij * kr_water(s_up) / mu_w * lap * (p[j] - p[i])
            phi_new = model.phi0 + model.Cr * (p[i] - model.p_ref)
            phi_old = model.phi0 + model.Cr * (p_old[i] - model.p_ref)
            res[2 * i] = flux_o + model.q_o[i] - (
                phi_new * (1.0 - sw[i]) - phi_old * (1.0 - sw_old[i])
            ) / dt
            res[2 * i + 1] = flux_w + model.q_w[i] - (phi_new * sw[i] - phi_old * sw_old[i]) / dt
        elif kind == NodeKind.DIRICHLET:
            spec = specs[i]
            res[2 * i] = p[i] - spec.p_value
            res[2 * i + 1] = sw[i] - spec.sw_value
        elif kind == NodeKind.VIRTUAL:
            host = int(cloud.hosts[i])
            spec = specs[host]
            stencil = ops.stencils[host]
            rows = ops.rows[host]
            nx, ny = cloud.normals[host]
            for offset, (a, b, g), u in ((0, spec.p_robin, p), (1, spec.sw_robin, sw)):
                deriv = 0.0
                for k, j in enumerate(stencil.neighbors):
                    deriv += (nx * rows[0, k] + ny * rows[1, k]) * (u[int(j)] - u[host])
                res[2 * i + offset] = a * u[host] + b * deriv - g
    return res


def oracle_operator_rows(positions, center, r_e):
    """Neighbors of ``center`` by a scan over every node, and its five
    coefficient rows by a least-squares solve of the weighted Taylor system.

    The weighted normal equations ``(L^T W^2 L) E = L^T W^2`` are the normal
    equations of ``(W L) E = W``, which ``lstsq`` solves without forming them.
    """
    cx, cy = positions[center]
    neighbors, taylor, weights = [], [], []
    for j, (x, y) in enumerate(positions):
        dx, dy = x - cx, y - cy
        if j == center or dx * dx + dy * dy > r_e * r_e:
            continue
        q = math.hypot(dx, dy) / r_e
        neighbors.append(j)
        taylor.append([dx, dy, 0.5 * dx * dx, 0.5 * dy * dy, dx * dy])
        weights.append(1.0 - 6.0 * q**2 + 8.0 * q**3 - 3.0 * q**4)
    weighted = [[w * t for t in row] for w, row in zip(weights, taylor)]
    rows, *_ = np.linalg.lstsq(np.array(weighted), np.diag(weights), rcond=None)
    return np.array(neighbors, dtype=np.int64), rows


def oracle_point_in_polygon(vertices, x, y):
    """Winding-number inside test (boundary counts as inside)."""
    verts = np.asarray(vertices, dtype=float)
    n = len(verts)
    wn = 0
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        # on-segment check
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        dot = (x - x1) * (x - x2) + (y - y1) * (y - y2)
        if abs(cross) < 1e-9 and dot <= 1e-9:
            return True
        if y1 <= y:
            if y2 > y and cross > 0:
                wn += 1
        else:
            if y2 <= y and cross < 0:
                wn -= 1
    return wn != 0


def oracle_min_distance_fill(positions, candidates, min_dist):
    """Mask of the candidates a sequential scan accepts: each in turn is kept
    unless it lies closer than ``min_dist`` to a position or a kept one."""
    m = len(positions)
    pool = np.empty((m + len(candidates), 2))
    pool[:m] = positions
    keep = np.zeros(len(candidates), dtype=bool)
    for k, (px, py) in enumerate(candidates):
        if np.min(np.hypot(pool[:m, 0] - px, pool[:m, 1] - py)) < min_dist:
            continue
        pool[m] = px, py
        m += 1
        keep[k] = True
    return keep


def oracle_irregular_cloud(*args, **kwargs):
    """``generate_irregular_cloud`` with its interior fill decided by
    :func:`oracle_min_distance_fill`."""
    with mock.patch("gfdmflow.cloud._min_distance_fill", oracle_min_distance_fill):
        return generate_irregular_cloud(*args, **kwargs)
