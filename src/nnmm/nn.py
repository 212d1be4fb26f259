"""Single-hidden-layer softmax classifier trained by gradient ascent.

Architecture: D inputs -> H sigmoid units -> m-way softmax, with bias
columns folded into the weight matrices.  The objective is the summed
log-likelihood of the target classes; gradients are analytic and training
is plain mini-batch gradient ascent with momentum, the constant
:data:`MOMENTUM` (0.9).  Training always starts from
:func:`init_classifier`'s weights, seeded from the training seed.  Given the
seed, training repeats bit for bit at a fixed BLAS thread count; another
thread count can round the matrix products differently and so give other
weights.

Training updates the weights in place.  The full-data objective recorded
after each epoch is not needed by the next one, so it runs on one worker
thread, on snapshot copies of the weights, while the next epoch's
mini-batches run; its matrix product and logistic release the GIL.  The
results therefore do not depend on thread scheduling.  With a one-thread
BLAS, training uses a second core when there is one, and it is no slower
on one core.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericError
from .gauss import normalize_log_scores

DEFAULT_HIDDEN = 500
MOMENTUM = 0.9
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
    return normalize_log_scores(logits), h


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


def _gradient_arrays(w1, w2, inputs, targets, *, out=None):
    """Analytic gradient of the summed log-likelihood w.r.t. (w1, w2).

    ``out=(g1, g2)`` is a workspace shaped like ``(w1, w2)`` that the
    gradient is written into and returned as; the products are written into
    its weight columns, so no stacked copy is made.
    """
    g1, g2 = (np.empty_like(w1), np.empty_like(w2)) if out is None else out
    p, h = _forward_arrays(w1, w2, inputs)

    delta2 = np.negative(p, out=p)
    delta2[np.arange(len(targets)), targets] += 1.0   # one-hot minus posterior
    # weight columns from the layer inputs, bias column as the column sums
    # (summed into a fresh vector: a reduction into the strided column is slow)
    np.matmul(delta2.T, h, out=g2[:, :-1])
    g2[:, -1] = delta2.sum(axis=0)
    delta1 = delta2 @ w2[:, :-1]
    delta1 *= h
    np.subtract(1.0, h, out=h)                        # h is spent: 1 - h
    delta1 *= h
    np.matmul(delta1.T, inputs, out=g1[:, :-1])
    g1[:, -1] = delta1.sum(axis=0)
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
    seed: int = 0,
):
    """Mini-batch gradient ascent on the log-likelihood.

    The update uses the per-sample mean gradient so the rate is comparable
    across batch sizes.  Returns the trained classifier and the per-epoch
    mean log-likelihood history (entry 0 is the pre-training value).

    A non-finite objective raises :class:`NumericError`; since each epoch's
    objective is collected when the next epoch ends, the error may come one
    epoch late, and no weights are returned either way.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.intp)
    n = inputs.shape[0]
    if n == 0 or n != targets.shape[0]:
        raise ValueError("training data must be nonempty with matching lengths")
    if np.any(targets < 0) or np.any(targets >= n_classes):
        raise ValueError("target labels out of range")
    if n_hidden < 1:
        raise ValueError(f"n_hidden must be at least 1, got {n_hidden}")
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    if not 0.0 <= learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and nonnegative, got {learning_rate}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")

    rng = np.random.default_rng(seed)
    init = init_classifier(inputs.shape[1], n_classes, n_hidden, seed=rng.integers(2**32))
    w1, w2 = init.w1, init.w2
    vel1 = np.zeros_like(w1)
    vel2 = np.zeros_like(w2)
    g1 = np.empty_like(w1)
    g2 = np.empty_like(w2)

    def objective():
        # on snapshot copies, since the weights change in place while it
        # runs, and in the caller's context, so its np.errstate applies
        return pool.submit(contextvars.copy_context().run, _log_likelihood_arrays,
                           w1.copy(), w2.copy(), inputs, targets)

    with ThreadPoolExecutor(max_workers=1) as pool:
        history = []
        pending = objective()
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                _gradient_arrays(w1, w2, inputs[idx], targets[idx], out=(g1, g2))
                for w, vel, g in ((w1, vel1, g1), (w2, vel2, g2)):
                    vel *= MOMENTUM
                    g /= len(idx)
                    vel += g
                    np.multiply(learning_rate, vel, out=g)
                    w += g
            _collect(pending, history, n)
            pending = objective()
        _collect(pending, history, n)

    return NnClassifier(w1=w1, w2=w2), history


def _collect(pending, history: list, n: int) -> None:
    """Append a finished objective, as a mean; entry 0 is not checked."""
    mean_ll = pending.result() / n
    if history and not np.isfinite(mean_ll):
        raise NumericError("training diverged: log-likelihood is not finite")
    history.append(mean_ll)
