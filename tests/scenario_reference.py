"""Per-trial reference for the denoise scenario.

run_denoise solves all trials of its one filter as the columns of one
block. This is the per-trial loop that block replaces: each trial draws its
observation and takes the oracle's SNR, then runs every method's step from
the method table on that trial alone, and maps each iterate to its SNR with
the scalar metric (np.linalg.norm on the iterate). A solve whose residual
exceeds the divergence bound counts as diverged and adds no curve. The
curves and the limit SNR must equal run_denoise's bit for bit.
"""

from __future__ import annotations

import numpy as np

from sdnfilt.filters import Signal, build_denoise_filter
from sdnfilt.graphs import knn_graph
from sdnfilt.io import read_points_csv
from sdnfilt.scenarios import _STREAM_OBS, _stream_seed, add_uniform_noise
from sdnfilt.solvers import DIVERGENCE_FACTOR, _snr_db, direct_solve_oracle

from conftest import method_step


def _snr(clean: np.ndarray):
    """Metric x_m -> SNR in dB of x_m against the clean values: -20 log10
    of ||x_m - clean|| / ||clean|| (plain ||x_m|| for clean = 0), capped."""
    ref_norm = np.linalg.norm(clean) or 1.0
    return lambda xm: float(_snr_db(np.linalg.norm(xm - clean) / ref_norm))


def denoise_reference(cfg):
    """(mean SNR curve per method, limit SNR) of a denoise config."""
    coords, values = read_points_csv(cfg.points_csv)
    graph = knn_graph(coords, cfg.k)
    h = build_denoise_filter(graph, cfg.alpha)
    clean = Signal(graph, values)
    snr = _snr(values)
    params = {}
    curves = {m: [] for m in cfg.methods}
    limit_snrs = []
    for trial in range(cfg.trials):
        b = add_uniform_noise(clean, cfg.eta,
                              _stream_seed(cfg.master_seed, trial, _STREAM_OBS))
        limit_snrs.append(snr(direct_solve_oracle(h, b).values))
        for m in cfg.methods:
            step = method_step(h, m, b.values[:, None], params)
            x = np.zeros((graph.n, 1))
            t = h.matvec(x)
            resid0 = np.linalg.norm(t[:, 0] - b.values)
            curve = [snr(x[:, 0])]
            for _ in range(cfg.iterations):
                x = step(x, t - b.values[:, None])
                t = h.matvec(x)
                curve.append(snr(x[:, 0]))
                if np.linalg.norm(t[:, 0] - b.values) > DIVERGENCE_FACTOR * resid0:
                    curve = None
                    break
            if curve is not None:
                curves[m].append(curve)
    means = {m: np.mean(np.array(rows), axis=0).tolist() if rows else []
             for m, rows in curves.items()}
    return means, float(np.mean(limit_snrs))
