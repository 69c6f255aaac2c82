"""Reference SMO solver: the maximal-violating-pair loop of ``svm_train`` in
its first form, with boolean-mask index selection and a column-wise gradient
update. ``svm_train`` must give the same multipliers and bias bit for bit.
"""

import numpy as np

SUPPORT_EPS = 1e-8


def reference_smo(matrix: np.ndarray, labels, C: float, tol: float = 1e-6,
                  max_iter: int = 100_000):
    """(multipliers, bias) of the dual SVM on ``matrix``."""
    labels = np.asarray(labels, dtype=int)
    l = (1 - 2 * labels).astype(float)
    q = np.outer(l, l) * matrix
    m = matrix.shape[0]
    alpha = np.zeros(m)
    grad = -np.ones(m)
    for _ in range(max_iter):
        minus_lg = -l * grad
        up = ((l > 0) & (alpha < C)) | ((l < 0) & (alpha > 0))
        low = ((l < 0) & (alpha < C)) | ((l > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(minus_lg[up])])
        j = int(np.flatnonzero(low)[np.argmin(minus_lg[low])])
        gap = minus_lg[i] - minus_lg[j]
        if gap < tol:
            break
        quad = max(matrix[i, i] + matrix[j, j] - 2.0 * matrix[i, j], 1e-12)
        step = gap / quad
        step = min(step, (C - alpha[i]) if l[i] > 0 else alpha[i])
        step = min(step, alpha[j] if l[j] > 0 else (C - alpha[j]))
        d_i, d_j = l[i] * step, -l[j] * step
        alpha[i] += d_i
        alpha[j] += d_j
        grad += q[:, i] * d_i + q[:, j] * d_j
    else:
        raise RuntimeError("reference SMO did not converge")

    alpha = np.clip(alpha, 0.0, C)
    b_candidates = -l * grad
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if free.any():
        return alpha, float(b_candidates[free].mean())
    up = ((l > 0) & (alpha < C)) | ((l < 0) & (alpha > 0))
    low = ((l < 0) & (alpha < C)) | ((l > 0) & (alpha > 0))
    hi = b_candidates[up].max() if up.any() else 0.0
    lo = b_candidates[low].min() if low.any() else 0.0
    return alpha, float((hi + lo) / 2.0)
