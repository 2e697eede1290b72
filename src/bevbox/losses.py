"""Loss assembly for grid predictions against assigned targets.

Three terms, mirroring a single-stage BEV detection head:

* :func:`classification_loss`: quality focal loss between per-class scores
  and the assignment's soft heatmap weights, averaged over the positive
  count.  ``gamma = 0`` degrades it to a plain weighted cross-entropy.
* :func:`regression_loss_scene`: the RWIoU + center-distance sample loss
  over positive cells, with exact per-cell gradients, normalized by the
  total positive count.  Values and gradients are the rows the assignment
  computed when it scored the candidates.
* :func:`iou_prediction_loss`: smooth-L1 between a per-cell confidence
  channel and the rescaled true IoU ``2 * IoU - 1`` of the cell's predicted
  box against its owner, positives only.  The IoU is the one the assignment
  already computed for that candidate.

:func:`total_loss` recombines the three with scalar weights into a
:class:`LossReport`.  Every loss treats the assignment (ownership, weights,
IoU targets) as a constant: there is deliberately no gradient path through
the assignment itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import _check_alpha

if TYPE_CHECKING:  # pragma: no cover
    from .assignment import AssignmentResult, PredictionMap

__all__ = [
    "SCORE_EPS",
    "LossWeights",
    "LossReport",
    "PerGtRegression",
    "RegressionSceneLoss",
    "quality_focal",
    "quality_focal_with_grad",
    "smooth_l1",
    "smooth_l1_with_grad",
    "classification_loss",
    "regression_loss_scene",
    "iou_prediction_loss",
    "total_loss",
]

# Stabilizing clamp for scores inside logs and gradient fractions.  The raw
# score is kept in the |q - p| factor so an exact match costs exactly zero.
SCORE_EPS = 1e-6

# Entries per block of the q == 0 focal form.  At 8192 (64 KB per array) its
# dozen temporaries stay in a core's L2 cache; on a 2 MB-L2 Xeon, blocks of
# 8192 beat 4096, 16384 and whole 128x128x3 maps.
FOCAL_BLOCK = 8192


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights of the three loss terms plus the shared alpha."""

    lambda_cls: float = 1.0
    lambda_reg: float = 3.0
    lambda_iou: float = 1.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        for name in ("lambda_cls", "lambda_reg", "lambda_iou"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"LossWeights.{name} must be non-negative")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class PerGtRegression:
    """Per-ground-truth regression summary: realized k and mean sample loss."""

    gt_index: int
    k: int
    mean_loss: float


@dataclass
class RegressionSceneLoss:
    """Scene regression loss with its per-positive gradient rows.

    ``box_grads`` has shape ``(N, 8)``: row ``j`` is the parameter gradient
    of the ``j``-th positive in ``AssignmentResult.positive_index()`` order,
    already scaled by ``1 / N``.  ``degenerate`` flags a scene with no
    positives, where the loss is defined as 0 and ``box_grads`` has no rows.
    """

    value: float
    box_grads: np.ndarray
    per_gt: list[PerGtRegression] = field(default_factory=list)
    degenerate: bool = False


@dataclass(frozen=True)
class LossReport:
    """Weighted total with its components and assignment bookkeeping."""

    l_cls: float
    l_reg: float
    l_iou: float
    total: float
    n_positives: int
    per_gt: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "l_cls": self.l_cls,
            "l_reg": self.l_reg,
            "l_iou": self.l_iou,
            "total": self.total,
            "n_positives": self.n_positives,
            "per_gt": [
                {"gt": p.gt_index, "k": p.k, "mean_regression_loss": p.mean_loss}
                for p in self.per_gt
            ],
        }


def _focal_arrays(p, q):
    """``p`` and ``q`` as float arrays of at least one dimension, and whether
    both were scalars.

    Scalars go through the same array loops as maps: ``**`` squares an array
    by multiplication but calls ``pow`` on a numpy scalar, and the two round
    differently on about 0.1% of inputs.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.atleast_1d(p), np.atleast_1d(q), p.ndim == 0 and q.ndim == 0


def _focal(p: np.ndarray, q: np.ndarray, gamma: float, with_grad: bool):
    """The quality focal formula for any ``q``: value, and the derivative
    w.r.t. ``p`` when ``with_grad`` (else ``None``)."""
    p_safe = np.clip(p, SCORE_EPS, 1.0 - SCORE_EPS)
    diff = np.abs(q - p)
    ce = -(q * np.log(p_safe) + (1.0 - q) * np.log1p(-p_safe))
    mod = diff ** gamma
    value = mod * ce
    if not with_grad:
        return value, None
    if gamma > 0.0:
        d_mod = gamma * diff ** (gamma - 1.0) * np.sign(p - q)
    else:
        d_mod = np.zeros_like(p)
    pass_band = (p >= SCORE_EPS) & (p <= 1.0 - SCORE_EPS)
    d_ce = -(q / p_safe - (1.0 - q) / (1.0 - p_safe)) * pass_band
    return value, d_mod * ce + mod * d_ce


def quality_focal(p, q, gamma: float = 2.0):
    """Quality focal value ``-|q - p|**gamma * (q log p + (1-q) log(1-p))``.

    Vectorized over numpy arrays; accepts scalars.  ``p`` is clamped to
    ``[SCORE_EPS, 1 - SCORE_EPS]`` inside the logs only, so ``p == q`` gives
    exactly zero even at saturated scores.  Scalar and array calls, and the
    value :func:`quality_focal_with_grad` returns, agree bitwise.
    """
    p, q, scalar = _focal_arrays(p, q)
    value, _ = _focal(p, q, gamma, with_grad=False)
    if scalar:
        return float(value[0])
    return value


def _focal_q0(p: np.ndarray, gamma: float):
    """The formula at q == 0: value and derivative w.r.t. ``p``.

    There ``q * log(p_safe)`` and ``q / p_safe`` are signed zeros that leave
    their sums unchanged, ``|q - p|`` is ``|p|`` and ``sign(p - q)`` is
    ``sign(p)``, so this is bitwise the full formula.
    """
    p_safe = np.clip(p, SCORE_EPS, 1.0 - SCORE_EPS)
    diff = np.abs(p)
    ce = -np.log1p(-p_safe)
    mod = diff ** gamma
    if gamma > 0.0:
        d_mod = gamma * diff ** (gamma - 1.0) * np.sign(p)
    else:
        d_mod = np.zeros_like(p)
    pass_band = (p >= SCORE_EPS) & (p <= 1.0 - SCORE_EPS)
    d_ce = (1.0 / (1.0 - p_safe)) * pass_band
    return mod * ce, d_mod * ce + mod * d_ce


def quality_focal_with_grad(p, q, gamma: float = 2.0):
    """Quality focal value and its derivative w.r.t. ``p``.

    The clamp contributes zero subgradient outside its band, in line with
    the loss definition; the modulating factor keeps the derivative finite
    at saturated scores.
    """
    p, q, scalar = _focal_arrays(p, q)
    p, q = np.broadcast_arrays(p, q)
    value = np.empty(p.shape)
    grad = np.empty(p.shape)
    _focal_into(p.reshape(-1), q.reshape(-1), gamma, value.reshape(-1), grad.reshape(-1))
    shape = () if scalar else p.shape
    return value.reshape(shape), grad.reshape(shape)


def _focal_into(p: np.ndarray, q: np.ndarray, gamma: float,
                value: np.ndarray, grad: np.ndarray) -> None:
    """:func:`quality_focal_with_grad` of flat ``p`` and ``q``, written into
    flat ``value`` and ``grad``."""
    # A heatmap is 0 almost everywhere: every entry takes the q == 0 form,
    # block by block so that its temporaries stay in cache, and the full
    # formula then overwrites the q != 0 entries.
    for start in range(0, p.size, FOCAL_BLOCK):
        block = slice(start, start + FOCAL_BLOCK)
        value[block], grad[block] = _focal_q0(p[block], gamma)
    general = np.flatnonzero(q != 0.0)
    if general.size:
        value[general], grad[general] = _focal(p[general], q[general], gamma, with_grad=True)


def smooth_l1(d, beta: float = 1.0):
    """Huber-style smooth L1: quadratic within ``beta``, linear outside."""
    d = np.asarray(d, dtype=float)
    a = np.abs(d)
    value = np.where(a < beta, 0.5 * d * d / beta, a - 0.5 * beta)
    if value.ndim == 0:
        return float(value)
    return value


def smooth_l1_with_grad(d, beta: float = 1.0):
    """Smooth L1 value and derivative (``d / beta`` inside, ``sign`` outside)."""
    d = np.asarray(d, dtype=float)
    a = np.abs(d)
    value = np.where(a < beta, 0.5 * d * d / beta, a - 0.5 * beta)
    grad = np.where(a < beta, d / beta, np.sign(d))
    return value, grad


def _norms(assignment: "AssignmentResult") -> np.ndarray:
    """``1 / max(N, 1)`` per scene, ``N`` its positive count."""
    return 1.0 / np.maximum(assignment.positives_per_scene(), 1)


def _per_scene_sums(values: list[float], counts: list[int]) -> list[float]:
    """Sequential sums of consecutive runs of ``values``, ``counts`` long.

    ``np.sum`` adds pairwise (and the builtin ``sum`` compensates on newer
    Pythons), which rounds differently.
    """
    sums, start = [], 0
    for count in counts:
        total = 0.0
        for value in values[start:start + count]:
            total += value
        sums.append(total)
        start += count
    return sums


def classification_loss(assignment: "AssignmentResult", preds: "PredictionMap",
                        gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Quality focal loss over all cells and classes, averaged over positives.

    Targets are the assignment's heatmap weights (1 on positives, IoU values
    on cross-region negatives, 0 elsewhere).  Returns the scalar loss and the
    gradient map w.r.t. the scores, scaled by the same ``1 / max(N, 1)``.
    """
    ((_, values, grad),) = _classification_groups(assignment, preds.scores, gamma)
    return values[0], grad.reshape(preds.scores.shape)


def _classification_groups(assignment: "AssignmentResult", scores: np.ndarray,
                           gamma: float = 2.0):
    """:func:`classification_loss` of every scene of a stacked assignment,
    over groups of whole scenes of about a block's worth of entries.

    Yields ``(first, losses, grads)`` per group in scene order: the group's
    first scene, one loss per scene of the group and their gradient maps as
    ``(scenes, entries)`` rows, valid until the next group.  Each loss is
    ``np.sum`` over its scene's own slab, so it equals the single-scene
    value, and no gradient map of the whole stack is ever held.
    """
    q = assignment.heatmap
    if scores.shape != q.shape:
        raise ValueError(f"scores shape {scores.shape} does not match heatmap {q.shape}")
    norms = _norms(assignment)
    n_scenes = len(norms)
    p, q = scores.reshape(n_scenes, -1), q.reshape(n_scenes, -1)
    per_group = min(-(-FOCAL_BLOCK // max(p.shape[1], 1)), n_scenes)
    value_buffer, grad_buffer = np.empty((2, per_group * p.shape[1]))
    for first in range(0, n_scenes, per_group):
        group = slice(first, first + per_group)
        size = p[group].size
        value = value_buffer[:size].reshape(-1, p.shape[1])
        grads = grad_buffer[:size].reshape(-1, p.shape[1])
        _focal_into(p[group].reshape(-1), q[group].reshape(-1), gamma,
                    value_buffer[:size], grad_buffer[:size])
        grads *= norms[group, None]
        yield first, [float(np.sum(v) * norm)
                      for v, norm in zip(value, norms[group].tolist())], grads


def regression_loss_scene(assignment: "AssignmentResult") -> RegressionSceneLoss:
    """Mean per-sample regression loss over every positive cell.

    The normalizer is the total positive count N; ``box_grads`` holds each
    positive's gradient row scaled by ``1 / N``, in positive order.  A scene
    with no positives is degenerate: loss 0, no gradient rows,
    ``degenerate=True``.  Each positive's value and gradient are read from
    the assignment's regression rows (computed at its alpha).
    """
    values, box_grads, per_gt = _regression_losses(assignment)
    return RegressionSceneLoss(values[0], box_grads, per_gt[0],
                               degenerate=assignment.n_positives == 0)


def _regression_losses(assignment: "AssignmentResult") -> tuple[
        list[float], np.ndarray, list[list[PerGtRegression]]]:
    """:func:`regression_loss_scene` of every scene of a stacked assignment:
    the per-scene losses, the ``(N, 8)`` gradient rows of all positives
    (each scaled by its scene's ``1 / N``) and the per-scene
    :class:`PerGtRegression` lists, indexed within the scene."""
    norms = _norms(assignment)
    n_pos = assignment.positives_per_scene()
    slots = assignment.positive_slots
    box_grads = assignment.regression_grads[slots] * np.repeat(norms, n_pos)[:, None]
    ks = assignment.k_per_gt
    gt_sums = _per_scene_sums(assignment.regression_values[slots].tolist(), ks)
    n_gts = assignment.gts_per_scene().tolist()
    per_gt, first = [], 0
    for count in n_gts:
        per_gt.append([PerGtRegression(i, ks[first + i], gt_sums[first + i] / ks[first + i]
                                       if ks[first + i] else 0.0) for i in range(count)])
        first += count
    return ([total * norm for total, norm in zip(_per_scene_sums(gt_sums, n_gts), norms.tolist())],
            box_grads, per_gt)


def iou_prediction_loss(assignment: "AssignmentResult",
                        preds: "PredictionMap") -> tuple[float, np.ndarray]:
    """Smooth-L1 between the confidence channel and ``2 * IoU - 1``.

    Positives only, averaged over ``max(N, 1)``; the rescaled-IoU target is a
    constant within the step (no gradient flows into the boxes from here).
    Each positive's IoU is the one the assignment stored for its slot, so
    the assignment must come from ``preds``.  Returns the scalar and the
    ``(N,)`` gradient rows w.r.t. the confidence channel, one per positive
    in positive order.
    """
    values, d = _iou_prediction_losses(assignment, preds.iou_conf[assignment.positive_cells()])
    return values[0], d


def _iou_prediction_losses(assignment: "AssignmentResult",
                          conf: np.ndarray) -> tuple[list[float], np.ndarray]:
    """:func:`iou_prediction_loss` of every scene of a stacked assignment,
    from each positive's confidence ``conf`` (positive order): the
    per-scene losses and the ``(N,)`` gradient rows."""
    norms = _norms(assignment)
    n_pos = assignment.positives_per_scene()
    targets = 2.0 * assignment.ious[assignment.positive_slots] - 1.0
    values, d = smooth_l1_with_grad(conf - targets)
    return ([total * norm for total, norm in
             zip(_per_scene_sums(values.tolist(), n_pos.tolist()), norms.tolist())],
            d * np.repeat(norms, n_pos))


def total_loss(l_cls: float, l_reg: float, l_iou: float, weights: LossWeights,
               n_positives: int = 0, per_gt: Sequence[PerGtRegression] = ()) -> LossReport:
    """Weighted recombination of the three loss terms into a report."""
    total = (weights.lambda_cls * l_cls
             + weights.lambda_reg * l_reg
             + weights.lambda_iou * l_iou)
    return LossReport(l_cls=float(l_cls), l_reg=float(l_reg), l_iou=float(l_iou),
                      total=float(total), n_positives=int(n_positives),
                      per_gt=tuple(per_gt))
