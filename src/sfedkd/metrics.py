"""Evaluation and forgetting diagnostics.

Class-wise accuracy vectors use NaN for classes absent from the test set;
downstream reductions skip those entries instead of counting them as zero.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .model import ModelParams, forward


def evaluate(params: ModelParams, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Top-1 accuracy and the per-class accuracy vector on a dataset.

    Prediction is the argmax of the logits, ties to the lowest class index.
    Classes with no test samples get NaN.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = forward(params, dataset.features).argmax(axis=1)
    correct = preds == dataset.labels
    counts = np.bincount(dataset.labels, minlength=dataset.c_total)
    hits = np.bincount(dataset.labels, weights=correct, minlength=dataset.c_total)
    classwise = np.divide(hits, counts, out=np.full(dataset.c_total, np.nan), where=counts > 0)
    return float(correct.mean()), classwise


def consistency(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two class-wise accuracy vectors.

    Entries that are NaN in either vector are dropped. If either remaining
    vector is all-zero the similarity is undefined; 0.0 is returned as the
    documented sentinel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("vectors must have equal length")
    keep = ~(np.isnan(a) | np.isnan(b))
    a, b = a[keep], b[keep]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def forgetting_measure(history: list[np.ndarray]) -> float:
    """Mean over classes of the peak historical accuracy minus the final one.

    `history` holds the class-wise accuracy vectors, oldest first; all but
    the last are the past. Classes without finite entries are skipped.
    Negative when the final model beats every earlier peak on average.
    """
    if len(history) < 2:
        raise ValueError("need at least two checkpoints")
    hist = np.asarray(history, dtype=np.float64)
    past, final = hist[:-1], hist[-1]
    keep = ~(np.isnan(final) | np.isnan(past).all(axis=0))
    if not keep.any():
        raise ValueError("no class has finite accuracy entries")
    return float(np.mean(np.fmax.reduce(past[:, keep], axis=0) - final[keep]))
