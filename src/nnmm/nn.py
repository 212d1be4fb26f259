"""Single-hidden-layer softmax classifier trained by gradient ascent.

Architecture: D inputs -> H sigmoid units -> m-way softmax, with bias
columns folded into the weight matrices.  The objective is the summed
log-likelihood of the target classes; gradients are analytic and training
is plain mini-batch gradient ascent with optional momentum.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericError

DEFAULT_HIDDEN = 500
LIKELIHOOD_FLOOR = 1e-300


@dataclass(frozen=True)
class NnClassifier:
    """Weights of the two affine layers, bias as the last column of each."""

    w1: np.ndarray  # (H, D+1)
    w2: np.ndarray  # (m, H+1)

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if w2.shape[1] != w1.shape[0] + 1:
            raise ValueError("hidden dimension mismatch between layers")
        if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
            raise ValueError("weights must be finite")

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[1] - 1

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]


def init_classifier(
    n_inputs: int,
    n_classes: int,
    n_hidden: int = DEFAULT_HIDDEN,
    seed: int = 0,
) -> NnClassifier:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_classes))
    w1 = np.zeros((n_hidden, n_inputs + 1))
    w2 = np.zeros((n_classes, n_hidden + 1))
    w1[:, :-1] = rng.uniform(-lim1, lim1, size=(n_hidden, n_inputs))
    w2[:, :-1] = rng.uniform(-lim2, lim2, size=(n_classes, n_hidden))
    return NnClassifier(w1=w1, w2=w2)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _forward_arrays(w1, w2, v):
    """Posterior plus the hidden activations backprop needs; v is (N, D).

    Each layer adds its bias column to the product with the other columns,
    so no bias-augmented copy of ``v`` or of the hidden layer is built.
    """
    h = v @ w1[:, :-1].T                        # (N, H)
    h += w1[:, -1]
    expit(h, out=h)                             # in place: one (N, H) array
    logits = h @ w2[:, :-1].T
    logits += w2[:, -1]
    logits -= np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / np.sum(e, axis=-1, keepdims=True), h


def forward(net: NnClassifier, v: np.ndarray) -> np.ndarray:
    """Class posterior(s) for one feature vector (D,) or a batch (N, D).

    Softmax is computed with max-subtraction, so arbitrary logit magnitudes
    are safe; each output row sums to 1.
    """
    v = np.asarray(v, dtype=np.float64)
    p = _forward_arrays(net.w1, net.w2, np.atleast_2d(v))[0]
    return p[0] if v.ndim == 1 else p


def _log_likelihood_arrays(w1, w2, inputs, targets) -> float:
    """Summed log posterior of the target classes over the batch."""
    p = _forward_arrays(w1, w2, inputs)[0]
    picked = p[np.arange(len(targets)), targets]
    return float(np.sum(np.log(np.maximum(picked, LIKELIHOOD_FLOOR))))


def _gradient_arrays(w1, w2, inputs, targets):
    """Analytic gradient of the summed log-likelihood w.r.t. (w1, w2)."""
    p, h = _forward_arrays(w1, w2, inputs)

    delta2 = -p
    delta2[np.arange(len(targets)), targets] += 1.0   # one-hot minus posterior
    delta1 = (delta2 @ w2[:, :-1]) * h * (1.0 - h)
    # weight columns from the layer inputs, bias column as the column sums
    g2 = np.column_stack([delta2.T @ h, delta2.sum(axis=0)])
    g1 = np.column_stack([delta1.T @ inputs, delta1.sum(axis=0)])
    return g1, g2


def classify(net: NnClassifier, inputs: np.ndarray) -> np.ndarray:
    """Most probable class per row; ties go to the lowest index."""
    p = forward(net, np.atleast_2d(np.asarray(inputs, dtype=np.float64)))
    return np.argmax(p, axis=-1)


def classify_accuracy(net: NnClassifier, inputs: np.ndarray, targets: np.ndarray) -> float:
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    return float(np.mean(classify(net, inputs) == targets))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(
    inputs: np.ndarray,
    targets: np.ndarray,
    n_classes: int,
    n_hidden: int = DEFAULT_HIDDEN,
    epochs: int = 30,
    learning_rate: float = 0.5,
    batch_size: int = 128,
    momentum: float = 0.9,
    seed: int = 0,
    net0: NnClassifier | None = None,
):
    """Mini-batch gradient ascent on the log-likelihood.

    The update uses the per-sample mean gradient so the rate is comparable
    across batch sizes.  Returns the trained classifier and the per-epoch
    mean log-likelihood history (entry 0 is the pre-training value).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.intp)
    n = inputs.shape[0]
    if n == 0 or n != targets.shape[0]:
        raise ValueError("training data must be nonempty with matching lengths")
    if np.any(targets < 0) or np.any(targets >= n_classes):
        raise ValueError("target labels out of range")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")

    rng = np.random.default_rng(seed)
    if net0 is None:
        net0 = init_classifier(inputs.shape[1], n_classes, n_hidden, seed=rng.integers(2**32))
    w1 = net0.w1.copy()
    w2 = net0.w2.copy()
    vel1 = np.zeros_like(w1)
    vel2 = np.zeros_like(w2)

    history = [_log_likelihood_arrays(w1, w2, inputs, targets) / n]

    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            g1, g2 = _gradient_arrays(w1, w2, inputs[idx], targets[idx])
            vel1 = momentum * vel1 + g1 / len(idx)
            vel2 = momentum * vel2 + g2 / len(idx)
            w1 += learning_rate * vel1
            w2 += learning_rate * vel2
        mean_ll = _log_likelihood_arrays(w1, w2, inputs, targets) / n
        if not np.isfinite(mean_ll):
            raise NumericError("training diverged: log-likelihood is not finite")
        history.append(mean_ll)

    return NnClassifier(w1=w1, w2=w2), history
