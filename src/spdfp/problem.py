"""Problem instances: datasets, losses, composite objectives.

An instance is

    F(x) = (1/n) sum_i loss_i(x) + (nu/2)||x||^2 + mu ||B x||_1

with per-sample losses

    square:    0.5 * (a_i'x - b_i)^2
    logistic:  log(1 + exp(-b_i a_i'x))
    hinge:     max(0, 1 - b_i a_i'x)
"""

import math
from dataclasses import dataclass, field

import numpy as np

from spdfp.sparse import SparseMatrix

LOSSES = ("square", "logistic", "hinge")


@dataclass(frozen=True)
class Dataset:
    """n samples as rows of a sparse matrix, with one real label per row.

    data_sha256 is the sha256 hex digest of the LIBSVM bytes the samples
    and labels were read from (see read_from), or None.
    """

    samples: SparseMatrix
    labels: np.ndarray
    data_sha256: str | None = field(default=None, init=False, compare=False)

    @classmethod
    def read_from(cls, data_sha256, samples, labels):
        """The Dataset of samples and labels as read from the LIBSVM bytes
        whose sha256 hex digest is data_sha256. The digest is no argument of
        the constructor, so dataclasses.replace, which may give a Dataset
        other samples or labels, leaves it None."""
        dataset = cls(samples=samples, labels=labels)
        object.__setattr__(dataset, "data_sha256", data_sha256)
        return dataset

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.float64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if self.samples.n_rows < 1:
            raise ValueError("dataset needs at least one sample")
        if labels.shape != (self.samples.n_rows,):
            raise ValueError("one label per sample required")

    @property
    def n(self):
        return self.samples.n_rows

    @property
    def dim(self):
        return self.samples.n_cols

    def check_classification_labels(self):
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("classification losses need labels in {-1, +1}")


@dataclass(frozen=True)
class ProblemSpec:
    """A full composite instance: loss kind, data, weights and operator B."""

    loss: str
    dataset: Dataset
    l2_weight: float
    composite_weight: float
    B: SparseMatrix

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if not (0 <= self.l2_weight < math.inf and 0 <= self.composite_weight < math.inf):
            raise ValueError("regularization weights must be nonnegative and finite")
        if self.B.n_cols != self.dataset.dim:
            raise ValueError("B column count must equal the feature dimension")
        if self.loss in ("logistic", "hinge"):
            self.dataset.check_classification_labels()

    @property
    def dim(self):
        return self.dataset.dim

    @property
    def n(self):
        return self.dataset.n


def _sigmoid(t):
    """1 / (1 + exp(-t)) from one exp per entry, e = exp(-|t|): 1/(1+e) where
    t >= 0, else e/(1+e). exp is libm's (math.exp), the exp lane.c calls, so
    both lanes give the same bits; NumPy's SIMD exp can differ in the last
    bit. Its argument is <= 0, so it never overflows; NaN stays NaN."""
    e = np.fromiter(map(math.exp, (-np.abs(t)).tolist()), np.float64, len(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loss_values(loss, margins, labels):
    """Per-sample loss values given margins a_i'x."""
    if loss == "square":
        return 0.5 * (margins - labels) ** 2
    if loss == "logistic":
        return np.logaddexp(0.0, -labels * margins)
    if loss == "hinge":
        return np.maximum(0.0, 1.0 - labels * margins)
    raise ValueError(f"unknown loss {loss!r}")


def loss_weights(loss, margins, labels):
    """Per-sample scalars w_i with d loss_i / dx = w_i * a_i.

    The hinge subgradient takes the value 0 at the kink b_i a_i'x = 1.
    """
    if loss == "square":
        return margins - labels
    if loss == "logistic":
        return -labels * _sigmoid(-labels * margins)
    if loss == "hinge":
        return np.where(labels * margins < 1.0, -labels, 0.0)
    raise ValueError(f"unknown loss {loss!r}")


def objective_value(spec, x):
    """F(x) = mean loss + (nu/2)||x||^2 + mu ||Bx||_1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"x must have dimension {spec.dim}")
    return float(_objective(spec, x, spec.dataset.samples.matvec(x), spec.B.matvec(x)))


def _objective(spec, x, Ax, Bx):
    """objective_value given the products Ax = A x and Bx = B x, of one x
    or of a stack of them, one per row; a stack gives one value per row.
    Unchecked.

    np.add.reduce and np.vecdot along the last axis are the reductions
    np.mean, np.sum and x @ x make of one vector, without their wrappers,
    and make them row by row of a stack, so every row keeps the bits of
    its vector."""
    losses = loss_values(spec.loss, Ax, spec.dataset.labels)
    val = np.add.reduce(losses, axis=-1) / losses.shape[-1]
    if spec.l2_weight:
        val = val + 0.5 * spec.l2_weight * np.vecdot(x, x)
    if spec.composite_weight:
        val = val + spec.composite_weight * np.add.reduce(np.abs(Bx), axis=-1)
    return val
