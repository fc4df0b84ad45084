"""Independent reference for the benchmark's output checks.

A textbook matrix Kalman filter and Rauch-Tung-Striebel smoother, written
out step by step with explicit inverses. It shares no code with
`kftser.kalman`, so a change to the program's filter cannot change the
reference it is checked against.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-9


def _project(x: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1] and rescale to sum 1; an all-zero row becomes uniform."""
    x = np.clip(x, 0.0, 1.0)
    s = x.sum()
    return x / s if s > 0.0 else np.full(len(x), 1.0 / len(x))


def kalman_filter(z: np.ndarray, q: float, r: float, renormalize: bool = True):
    """Identity-model filter from a uniform mean and unit covariance.

    Returns (filtered means, filtered covs, predicted means, predicted covs).
    """
    z = np.asarray(z, dtype=np.float64)
    n_steps, n = z.shape
    eye = np.eye(n)
    f = h = eye
    x, p = np.full(n, 1.0 / n), eye.copy()
    xf, pf = np.empty((n_steps, n)), np.empty((n_steps, n, n))
    xp, pp = np.empty((n_steps, n)), np.empty((n_steps, n, n))
    for t in range(n_steps):
        x_pred = f @ x
        p_pred = f @ p @ f.T + q * eye
        gain = p_pred @ h.T @ np.linalg.inv(h @ p_pred @ h.T + r * eye)
        x = x_pred + gain @ (z[t] - h @ x_pred)
        p = (eye - gain @ h) @ p_pred
        if renormalize:
            x = _project(x)
        xp[t], pp[t], xf[t], pf[t] = x_pred, p_pred, x, p
    return xf, pf, xp, pp


def rts_smooth(xf, pf, xp, pp) -> np.ndarray:
    """Fixed-interval smoothed means from one forward pass (identity transition)."""
    xs = xf.copy()
    for t in range(len(xf) - 2, -1, -1):
        c = pf[t] @ np.linalg.inv(pp[t + 1])
        xs[t] = xf[t] + c @ (xs[t + 1] - xp[t + 1])
    return xs


def fused_label(trajectory: np.ndarray) -> int:
    """Mean fusion; argmax ties go to the lowest class index."""
    return int(np.argmax(np.asarray(trajectory).mean(axis=0)))


def max_abs_diff(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0
