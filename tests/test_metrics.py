"""Accuracy, NLL, ECE, AUROC, predictive entropy."""

import numpy as np
import pytest
import scipy.stats  # the oracle for the numpy ranks
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbias.errors import ValidationError
from quadbias.linalg import Rng
from quadbias.metrics import (
    ProbTable,
    _average_ranks,
    accuracy,
    auroc,
    ece,
    nll,
    predictive_entropy,
)


def table(probs, labels):
    return ProbTable(np.asarray(probs, float), np.asarray(labels))


class TestProbTable:
    def test_rejects_non_simplex(self):
        with pytest.raises(ValidationError):
            table([[0.5, 0.6]], [0])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            table([[1.2, -0.2]], [0])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValidationError):
            table([[0.5, 0.5]], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_naming_row_and_class(self, bad):
        # a NaN compares false, so it would pass both range checks, and
        # accuracy would read 0.5 with nll and ece nan
        with pytest.raises(ValidationError, match=f"row 1, class 0 is {bad}"):
            table([[0.5, 0.5], [bad, 0.5]], [0, 1])


class TestAccuracy:
    def test_all_correct(self):
        t = table([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert accuracy(t) == 1.0

    def test_all_wrong(self):
        t = table([[1.0, 0.0], [0.0, 1.0]], [1, 0])
        assert accuracy(t) == 0.0

    def test_two_of_three(self):
        t = table([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]], [0, 1, 1])
        assert accuracy(t) == pytest.approx(2.0 / 3.0)

    def test_tie_breaks_to_lowest_index(self):
        t = table([[0.5, 0.5]], [0])
        assert accuracy(t) == 1.0
        t = table([[0.5, 0.5]], [1])
        assert accuracy(t) == 0.0

    @pytest.mark.parametrize("metric", [accuracy, nll, ece], ids=["accuracy", "nll", "ece"])
    def test_empty_rejected(self, metric):
        t = table(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValidationError, match="empty table"):
            metric(t)


class TestNll:
    def test_perfect_predictions(self):
        t = table([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert nll(t) == 0.0

    def test_single_row_exp_minus_one(self):
        p = np.exp(-1.0)
        t = table([[p, 1.0 - p]], [0])
        assert nll(t) == pytest.approx(1.0, rel=1e-12)

    def test_hand_arithmetic(self):
        t = table([[0.5, 0.5], [0.25, 0.75]], [0, 0])
        assert nll(t) == pytest.approx(1.5 * np.log(2.0), rel=1e-12)

    def test_zero_probability_clamped(self):
        t = table([[0.0, 1.0]], [0])
        assert np.isfinite(nll(t))
        assert nll(t) == pytest.approx(-np.log(1e-12))

    def test_lower_bound_per_row(self):
        rng = Rng(1)
        raw = rng.uniform(30).reshape(10, 3) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 10)
        t = table(probs, labels)
        assert nll(t) >= -np.log(np.max(probs[np.arange(10), labels]))

    def test_matches_cross_entropy_loss(self):
        from quadbias.model import Batch, Mlp, MlpArchitecture, one_hot, softmax

        mlp = Mlp(MlpArchitecture((4, 6, 3)))
        p = mlp.init_params(Rng(2))
        x = Rng(3).normal(12 * 4).reshape(12, 4)
        labels = Rng(4).integers(0, 3, 12)
        batch = Batch(x, one_hot(labels, 3))
        loss, _ = mlp.loss_and_grad(p, batch, 0.0)
        probs = softmax(mlp.forward(p, x))
        assert nll(table(probs, labels)) == pytest.approx(loss, abs=1e-10)


class TestEce:
    def test_perfectly_calibrated_bins(self):
        # within each bin, confidence equals empirical accuracy
        probs = [[0.8, 0.2]] * 10
        labels = [0] * 8 + [1] * 2  # accuracy 0.8 at confidence 0.8
        assert ece(table(probs, labels), 10) == pytest.approx(0.0, abs=1e-12)

    def test_single_confident_correct_row(self):
        assert ece(table([[0.8, 0.2]], [0]), 10) == pytest.approx(0.2, rel=1e-12)

    def test_two_rows_fifteen_bins(self):
        t = table([[0.8, 0.2], [0.6, 0.4]], [0, 1])
        assert ece(t, 15) == pytest.approx(0.4, rel=1e-12)

    def test_one_bin_equals_confidence_gap(self):
        rng = Rng(5)
        raw = rng.uniform(40).reshape(20, 2) + 0.1
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 2, 20)
        t = table(probs, labels)
        conf = probs.max(axis=1)
        acc = (probs.argmax(axis=1) == labels).mean()
        assert ece(t, 1) == pytest.approx(abs(acc - conf.mean()), rel=1e-12)

    def test_boundary_value_goes_to_lower_bin(self):
        # 0.8 sits exactly on the 12/15 edge: rows at 0.8 and at 0.81 must
        # land in different bins for n_bins = 15 after the boundary rule
        t = table([[0.8, 0.2], [0.81, 0.19]], [0, 0])
        # both correct; bins {12} and {13}: ece = 0.5*0.2 + 0.5*0.19
        assert ece(t, 15) == pytest.approx(0.5 * 0.2 + 0.5 * 0.19, rel=1e-12)

    def test_confidence_on_a_representable_edge_goes_to_lower_bin(self):
        # 0.5 is exactly the middle edge for n_bins = 2. In the lower bin the
        # correct row at 0.5 and the wrong row at 0.9 make two gaps
        # (0.5 * 0.5 + 0.5 * 0.9); in the upper bin they would share one
        # (|0.5 - 0.7| = 0.2).
        t = table([[0.5, 0.5], [0.9, 0.1]], [0, 1])
        assert ece(t, 2) == pytest.approx(0.5 * 0.5 + 0.5 * 0.9, rel=1e-12)

    def test_bad_bins(self):
        with pytest.raises(ValidationError):
            ece(table([[1.0, 0.0]], [0]), 0)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_pair_counting_frozen(self):
        # pairs: (.9>.5) (.9>.1) (.3<.5) (.3>.1) -> 3/4
        assert auroc([0.9, 0.3, 0.5, 0.1], [True, True, False, False]) == 0.75

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5], [True, False, False]) == 0.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            auroc([0.1, 0.2], [True, True])

    def test_invariant_under_monotone_transform(self):
        rng = Rng(6)
        scores = rng.normal(50)
        labels = rng.uniform(50) > 0.6
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, rel=1e-12)
        assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, rel=1e-12)

    def test_matches_brute_force_pair_count(self):
        rng = Rng(7)
        scores = np.round(rng.normal(30), 1)  # rounding to force ties
        labels = rng.uniform(30) > 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        pos = scores[labels]
        neg = scores[~labels]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (len(pos) * len(neg))
        assert auroc(scores, labels) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            auroc([0.1, bad, 0.3, 0.2], [True, False, True, False])


# Scores drawn from a few rounded values, so most arrays carry ties.
TIED_SCORES = st.lists(
    st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 2.0, 1e300]), min_size=1, max_size=40
)


@settings(max_examples=200, deadline=None)
@given(TIED_SCORES)
def test_average_ranks_equal_scipy_rankdata(values):
    values = np.array(values)
    np.testing.assert_array_equal(_average_ranks(values), scipy.stats.rankdata(values))


@settings(max_examples=200, deadline=None)
@given(TIED_SCORES.flatmap(
    lambda s: st.tuples(st.just(s), st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
))
def test_auroc_equals_pairwise_count(case):
    scores, labels = case
    if all(labels) or not any(labels):
        with pytest.raises(ValidationError):
            auroc(scores, labels)
        return
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert auroc(scores, labels) == wins / (len(pos) * len(neg))


class TestPredictiveEntropy:
    def test_one_hot(self):
        assert predictive_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert predictive_entropy([0.25] * 4) == pytest.approx(np.log(4.0))

    def test_two_point_uniform(self):
        assert predictive_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize("c", [3, 10])
    def test_rows_of_a_2d_array_equal_per_row_calls(self, c):
        rng = Rng(4)
        raw = rng.uniform(12 * c).reshape(12, c)
        raw[rng.uniform(12 * c).reshape(12, c) < 0.3] = 0.0  # rows with zeros
        raw[0] = 0.0
        raw[0, 1] = 1.0  # a one-hot row
        probs = raw / raw.sum(axis=1, keepdims=True)
        ent = predictive_entropy(probs)
        assert ent.shape == (12,)
        for row, value in zip(probs, ent):
            assert predictive_entropy(row) == value
            nz = row[row > 0.0]
            assert value == pytest.approx(-np.sum(nz * np.log(nz)), rel=1e-14, abs=0.0)
        assert ent[0] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(5, 40))
def test_metrics_bounds_property(seed, c, n):
    rng = Rng(seed)
    raw = rng.uniform(n * c).reshape(n, c) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, c, n)
    t = table(probs, labels)
    assert 0.0 <= accuracy(t) <= 1.0
    assert nll(t) >= 0.0
    assert 0.0 <= ece(t, 15) <= 1.0
    for row in probs:
        assert 0.0 <= predictive_entropy(row) <= np.log(c) + 1e-12
