"""Classifier forward pass, log-likelihood, analytic gradient, training."""

import sys
import threading

import numpy as np
import pytest

import nnmm.nn
from nnmm.errors import NumericError
from nnmm.nn import (
    MOMENTUM,
    NnClassifier,
    _gradient_arrays,
    _log_likelihood_arrays,
    classify,
    classify_accuracy,
    forward,
    init_classifier,
    train,
)

from oracles import gradient_stacked, train_serial


def random_net(rng, d=7, h=5, m=3, scale=0.8):
    return NnClassifier(
        w1=scale * rng.standard_normal((h, d + 1)),
        w2=scale * rng.standard_normal((m, h + 1)),
    )


def naive_forward(net, v):
    """Scalar-loop reference forward pass."""
    h = np.zeros(net.n_hidden)
    for i in range(net.n_hidden):
        a = net.w1[i, -1]
        for j in range(net.n_inputs):
            a += net.w1[i, j] * v[j]
        h[i] = 1.0 / (1.0 + np.exp(-a))
    logits = np.zeros(net.n_classes)
    for i in range(net.n_classes):
        a = net.w2[i, -1]
        for j in range(net.n_hidden):
            a += net.w2[i, j] * h[j]
        logits[i] = a
    e = np.exp(logits - logits.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


class TestForward:
    def test_zero_weights_give_uniform(self):
        net = NnClassifier(w1=np.zeros((5, 8)), w2=np.zeros((4, 6)))
        p = forward(net, np.ones(7))
        np.testing.assert_allclose(p, 0.25)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        net = random_net(rng)
        for _ in range(5):
            v = rng.standard_normal(7)
            np.testing.assert_allclose(forward(net, v), naive_forward(net, v), rtol=1e-12)

    def test_logit_shift_invariance(self):
        """Adding a constant to every output row leaves the posterior alone."""
        rng = np.random.default_rng(1)
        net = random_net(rng)
        shifted = NnClassifier(w1=net.w1, w2=net.w2 + 3.7)
        v = rng.standard_normal(7)
        np.testing.assert_allclose(forward(net, v), forward(shifted, v), rtol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        batch = rng.standard_normal((6, 7))
        p = forward(net, batch)
        assert p.shape == (6, 3)
        for t in range(6):
            np.testing.assert_allclose(p[t], forward(net, batch[t]), rtol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, scale=5.0)
        p = forward(net, rng.standard_normal((20, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p > 0) and np.all(p < 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="hidden"):
            NnClassifier(w1=np.zeros((5, 8)), w2=np.zeros((3, 7)))


# ---------------------------------------------------------------------------
# Log-likelihood
# ---------------------------------------------------------------------------


class TestLogLikelihood:
    def test_uniform_net(self):
        net = NnClassifier(w1=np.zeros((4, 6)), w2=np.zeros((5, 5)))
        batch = np.ones((8, 5))
        targets = np.arange(8) % 5
        np.testing.assert_allclose(_log_likelihood_arrays(net.w1, net.w2, batch, targets),
                                   8 * np.log(1 / 5), rtol=1e-12)

    def test_matches_per_sample_sum(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        batch = rng.standard_normal((10, 7))
        targets = rng.integers(0, 3, 10)
        total = sum(np.log(forward(net, batch[t])[targets[t]]) for t in range(10))
        np.testing.assert_allclose(_log_likelihood_arrays(net.w1, net.w2, batch, targets),
                                   total, rtol=1e-10)


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


class TestGradient:
    def test_matches_central_differences(self):
        """50 random coordinates, relative error under 1e-4."""
        rng = np.random.default_rng(6)
        net = random_net(rng)
        batch = rng.standard_normal((16, 7))
        targets = rng.integers(0, 3, 16)
        g1, g2 = _gradient_arrays(net.w1, net.w2, batch, targets)
        eps = 1e-5

        for _ in range(50):
            which = rng.integers(0, 2)
            w = (net.w1 if which == 0 else net.w2).copy()
            r = rng.integers(0, w.shape[0])
            c = rng.integers(0, w.shape[1])

            wp, wm = w.copy(), w.copy()
            wp[r, c] += eps
            wm[r, c] -= eps
            if which == 0:
                up, dn = (wp, net.w2), (wm, net.w2)
                analytic = g1[r, c]
            else:
                up, dn = (net.w1, wp), (net.w1, wm)
                analytic = g2[r, c]
            fd = (_log_likelihood_arrays(*up, batch, targets)
                  - _log_likelihood_arrays(*dn, batch, targets)) / (2 * eps)
            denom = max(abs(fd), abs(analytic), 1e-8)
            assert abs(analytic - fd) / denom < 1e-4

    def test_additivity_over_duplicated_batch(self):
        rng = np.random.default_rng(7)
        net = random_net(rng)
        batch = rng.standard_normal((5, 7))
        targets = rng.integers(0, 3, 5)
        g1, g2 = _gradient_arrays(net.w1, net.w2, batch, targets)
        d1, d2 = _gradient_arrays(net.w1, net.w2, np.vstack([batch, batch]),
                                  np.concatenate([targets, targets]))
        np.testing.assert_allclose(d1, 2 * g1, rtol=1e-12)
        np.testing.assert_allclose(d2, 2 * g2, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 16, 200])
    def test_workspace_equals_allocating_form(self, n):
        """Written into ``out``, every entry equals the allocating form and
        the gradient with its bias columns stacked on a copy."""
        rng = np.random.default_rng(n)
        net = random_net(rng, d=40, h=30, m=4)
        batch = rng.standard_normal((n, 40))
        targets = rng.integers(0, 4, n)
        out = (np.full_like(net.w1, np.nan), np.full_like(net.w2, np.nan))
        g1, g2 = _gradient_arrays(net.w1, net.w2, batch, targets, out=out)
        assert g1 is out[0] and g2 is out[1]
        for form in (_gradient_arrays, gradient_stacked):
            a1, a2 = form(net.w1, net.w2, batch, targets)
            assert np.array_equal(g1, a1) and np.array_equal(g2, a2)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def blobs(rng, n_per=60, m=3, d=6, gap=4.0):
    centers = gap * rng.standard_normal((m, d))
    x = np.vstack([c + rng.standard_normal((n_per, d)) for c in centers])
    y = np.repeat(np.arange(m), n_per)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


class TestTrain:
    def test_separable_classes_learned(self):
        rng = np.random.default_rng(8)
        x, y = blobs(rng)
        net, history = train(x, y, n_classes=3, n_hidden=12, epochs=50,
                             learning_rate=0.5, batch_size=32, seed=0)
        assert classify_accuracy(net, x, y) >= 0.99
        assert history[-1] >= history[0]

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x, y = blobs(rng, n_per=30)
        a, ha = train(x, y, n_classes=3, n_hidden=8, epochs=5, seed=7)
        b, hb = train(x, y, n_classes=3, n_hidden=8, epochs=5, seed=7)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        assert ha == hb

    def test_zero_rate_keeps_initial_weights(self):
        rng = np.random.default_rng(10)
        x, y = blobs(rng, n_per=20)
        net, _ = train(x, y, n_classes=3, n_hidden=8, epochs=3, learning_rate=0.0, seed=1)
        init = init_classifier(6, 3, n_hidden=8, seed=np.random.default_rng(1).integers(2**32))
        assert np.array_equal(net.w1, init.w1)
        assert np.array_equal(net.w2, init.w2)

    def test_full_batch_ascent_monotone(self):
        """Small-rate full-batch ascent never decreases the objective."""
        rng = np.random.default_rng(11)
        x, y = blobs(rng, n_per=20)
        _, history = train(x, y, n_classes=3, n_hidden=8, epochs=100,
                           learning_rate=1e-3, batch_size=len(y), seed=2)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-12)

    def test_divergence_raises_numeric_error(self):
        """Non-finite inputs poison the objective; training must abort loudly."""
        rng = np.random.default_rng(12)
        x, y = blobs(rng, n_per=20)
        x[3, 0] = np.nan
        with pytest.raises(NumericError, match="diverged"):
            train(x, y, n_classes=3, n_hidden=8, epochs=2, seed=0)

    def test_divergence_in_last_epoch_raises(self):
        """The last epoch's objective is collected after the loop; a
        non-finite one still aborts."""
        rng = np.random.default_rng(12)
        x, y = blobs(rng, n_per=20)
        x[3, 0] = np.nan
        with pytest.raises(NumericError, match="diverged"):
            train(x, y, n_classes=3, n_hidden=8, epochs=1, seed=0)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            train(np.zeros((4, 3)), np.array([0, 1, 2, 3]), n_classes=3)

    @pytest.mark.parametrize("setting,name", [
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -1}, "batch_size"),
        ({"epochs": -1}, "epochs"),
        ({"n_hidden": 0}, "n_hidden"),
        ({"learning_rate": -0.5}, "learning_rate"),
        ({"learning_rate": np.nan}, "learning_rate"),
        ({"learning_rate": np.inf}, "learning_rate"),
    ], ids=["zero-batch", "negative-batch", "negative-epochs", "no-hidden",
            "negative-rate", "nan-rate", "inf-rate"])
    def test_bad_setting_rejected(self, setting, name):
        with pytest.raises(ValueError, match=name):
            train(np.zeros((4, 3)), np.array([0, 1, 2, 0]), n_classes=3, **setting)


class TestTrainOverlapped:
    """``train`` updates in place and computes each epoch's objective on a
    worker thread; the serial loop in ``oracles`` does neither."""

    @pytest.mark.parametrize("batch_size", [15, 32, 60], ids=["divides", "remainder", "full"])
    # ids: initial weights, epochs, momentum, batches
    @pytest.mark.parametrize("epochs", [0, 1, 3], ids=lambda e: f"init-{e}-{MOMENTUM}")
    def test_equals_serial_loop(self, batch_size, epochs):
        rng = np.random.default_rng(14)
        x, y = blobs(rng, n_per=20)
        settings = dict(n_classes=3, n_hidden=8, epochs=epochs, learning_rate=0.3,
                        batch_size=batch_size, seed=4)
        net, history = train(x, y, **settings)
        ref, ref_history = train_serial(x, y, **settings)
        assert np.array_equal(net.w1, ref.w1)
        assert np.array_equal(net.w2, ref.w2)
        assert history == ref_history
        assert len(history) == epochs + 1

    def test_equals_serial_loop_under_fast_switching(self):
        """Thread switches every microsecond interleave the objective with
        the in-place updates as finely as the interpreter allows."""
        rng = np.random.default_rng(17)
        x, y = blobs(rng, n_per=40, d=20)
        settings = dict(n_classes=3, n_hidden=30, epochs=4, learning_rate=0.3,
                        batch_size=8, seed=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            net, history = train(x, y, **settings)
        finally:
            sys.setswitchinterval(interval)
        ref, ref_history = train_serial(x, y, **settings)
        assert np.array_equal(net.w1, ref.w1)
        assert np.array_equal(net.w2, ref.w2)
        assert history == ref_history

    def test_worker_joined_on_return(self):
        rng = np.random.default_rng(15)
        x, y = blobs(rng, n_per=20)
        baseline = threading.active_count()
        train(x, y, n_classes=3, n_hidden=8, epochs=3, seed=0)
        assert threading.active_count() == baseline

    def test_worker_joined_on_divergence(self):
        rng = np.random.default_rng(15)
        x, y = blobs(rng, n_per=20)
        x[0, 0] = np.nan
        baseline = threading.active_count()
        with pytest.raises(NumericError):
            train(x, y, n_classes=3, n_hidden=8, epochs=3, seed=0)
        assert threading.active_count() == baseline

    def test_objective_runs_under_callers_errstate(self, monkeypatch):
        """The worker thread sees the caller's np.errstate, as an objective
        computed in line would."""
        seen = []
        objective = nnmm.nn._log_likelihood_arrays

        def spy(*args):
            seen.append(np.geterr()["over"])
            return objective(*args)

        monkeypatch.setattr(nnmm.nn, "_log_likelihood_arrays", spy)
        rng = np.random.default_rng(16)
        x, y = blobs(rng, n_per=20)
        with np.errstate(over="raise"):
            train(x, y, n_classes=3, n_hidden=8, epochs=2, seed=0)
        assert seen == ["raise"] * 3


class TestAccuracy:
    def test_oracle_recount(self):
        rng = np.random.default_rng(13)
        net = random_net(rng)
        batch = rng.standard_normal((40, 7))
        targets = rng.integers(0, 3, 40)
        preds = classify(net, batch)
        manual = sum(int(preds[t] == targets[t]) for t in range(40)) / 40
        assert classify_accuracy(net, batch, targets) == manual

    def test_perfect_predictions(self):
        net = NnClassifier(w1=np.zeros((2, 4)), w2=np.zeros((2, 3)))
        batch = np.zeros((5, 3))
        # uniform posterior, argmax ties break to index 0
        assert classify_accuracy(net, batch, np.zeros(5, dtype=int)) == 1.0

    def test_init_glorot_bounds_and_zero_bias(self):
        net = init_classifier(10, 4, n_hidden=6, seed=0)
        lim1 = np.sqrt(6.0 / (10 + 6))
        assert np.all(np.abs(net.w1[:, :-1]) <= lim1)
        np.testing.assert_allclose(net.w1[:, -1], 0.0)
        np.testing.assert_allclose(net.w2[:, -1], 0.0)
