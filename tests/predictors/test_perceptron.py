"""Tests for the perceptron predictor (Jiménez & Lin)."""

import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import PerceptronPredictor
from repro.predictors.filtered_perceptron import FilteredPerceptronPredictor
from tests.predictors.test_table_predictors import drive


def all_weights(p):
    return [w for row in p.weights for w in row]


class TestPerceptronBasics:
    def test_threshold_formula(self):
        assert PerceptronPredictor(64, 17).threshold == int(1.93 * 17 + 14)
        assert PerceptronPredictor(64, 28).threshold == int(1.93 * 28 + 14)

    def test_initial_prediction_is_taken(self):
        # Zero weights give output 0 which predicts taken (>= 0).
        p = PerceptronPredictor(16, 8)
        assert p.predict(0x4000, 0)

    def test_learns_bias_through_bias_weight(self):
        p = PerceptronPredictor(16, 8)
        assert drive(p, lambda i, h: False, n=500) > 0.98
        assert p.weights[(0x4000 >> 2) % 16][0] < 0

    def test_learns_history_correlation(self):
        p = PerceptronPredictor(64, 12)
        assert drive(p, lambda i, h: bool((h >> 4) & 1)) > 0.95

    def test_learns_linearly_separable_xor_of_three(self):
        """Majority of last 3 outcomes IS linearly separable — must learn."""
        p = PerceptronPredictor(64, 12)
        acc = drive(p, lambda i, h: ((h & 1) + ((h >> 1) & 1) + ((h >> 2) & 1)) >= 2)
        assert acc > 0.9

    def test_cannot_learn_parity(self):
        """XOR of two independent history bits is not linearly separable.

        This is the perceptron's published blind spot and a useful negative
        control that the implementation is a real perceptron and not a
        lookup table. The history is driven externally with random bits so
        the XOR target cannot degenerate into a fixed sequence; a same-size
        gshare table learns the same function almost perfectly.
        """
        from repro.predictors import GsharePredictor
        from repro.utils.rng import DeterministicRng

        rng = DeterministicRng(2024)
        perceptron = PerceptronPredictor(64, 6)
        gshare = GsharePredictor(64, 6)
        correct = {"perceptron": 0, "gshare": 0}
        n, warmup = 4000, 1000
        for i in range(n):
            history = rng.next_u64() & 0x3F
            taken = bool((history & 1) ^ ((history >> 5) & 1))
            for name, p in (("perceptron", perceptron), ("gshare", gshare)):
                pred = p.predict(0x4000, history)
                if i >= warmup:
                    correct[name] += int(pred == taken)
                p.update(0x4000, history, taken, pred)
        counted = n - warmup
        assert correct["perceptron"] / counted < 0.75
        assert correct["gshare"] / counted > 0.9

    def test_long_history_support(self):
        p = PerceptronPredictor(113, 57)
        assert drive(p, lambda i, h: bool((h >> 50) & 1), n=6000) > 0.9

    def test_weights_saturate_at_8_bits(self):
        p = PerceptronPredictor(4, 4)
        for _ in range(2000):
            pred = p.predict(0x4000, 0b1111)
            p.update(0x4000, 0b1111, True, pred)
        assert max(all_weights(p)) <= p.WEIGHT_MAX
        assert min(all_weights(p)) >= p.WEIGHT_MIN

    def test_storage_budget(self):
        # Table 3: 113 perceptrons × 18 weights × 8 bits ≈ 2KB.
        p = PerceptronPredictor(113, 17)
        assert abs(p.storage_bytes() - 2048) < 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(0, 8)
        with pytest.raises(ValueError):
            PerceptronPredictor(8, 0)

    def test_reset_clears_weights(self):
        p = PerceptronPredictor(8, 8)
        drive(p, lambda i, h: False, n=200)
        p.reset()
        assert not any(all_weights(p))
        assert [len(row) for row in p.weights] == [9] * 8
        assert p.predict(0x4000, 0)


class TestPerceptronProperties:
    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=(1 << 24) - 1))
    def test_inputs_encoding(self, history):
        p = PerceptronPredictor(4, 24)
        x = p._inputs(history)
        assert len(x) == 25
        assert x[0] == 1
        for bit in range(24):
            expected = 1 if (history >> bit) & 1 else -1
            assert x[1 + bit] == expected

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.booleans(),
    )
    def test_training_moves_output_toward_outcome(self, history, taken):
        p = PerceptronPredictor(4, 16)
        before = p.output(0x4000, history)
        p.update(0x4000, history, taken, p.predict(0x4000, history))
        after = p.output(0x4000, history)
        if taken:
            assert after >= before
        else:
            assert after <= before

    def test_output_dtype_never_overflows(self):
        # Max |output| = (h+1) * 127; plain ints cannot overflow, and the
        # weights themselves stay 8-bit values.
        p = PerceptronPredictor(2, 57)
        for row in p.weights:
            row[:] = [p.WEIGHT_MAX] * len(row)
        out = p.output(0x4000, (1 << 57) - 1)
        assert out == 58 * 127
        assert isinstance(out, int)
        assert all(type(w) is int and -128 <= w <= 127 for w in all_weights(p))



class NumpyPerceptron:
    """The numpy perceptron the int-row predictor replaced, kept as a model.

    int16 weight matrix, ``unpackbits`` inputs, an int32 ``np.dot`` and
    an ``np.clip`` saturating update — an independent implementation of
    the same arithmetic, so a slip in the predictor cannot hide by
    moving both sides of a comparison.
    """

    def __init__(self, n_perceptrons, history_length):
        self.n_perceptrons = n_perceptrons
        self.history_length = history_length
        self.threshold = int(1.93 * history_length + 14)
        self.weights = np.zeros((n_perceptrons, history_length + 1), dtype=np.int16)
        self._nbytes = (history_length + 15) // 8

    def _row(self, pc):
        return (pc >> 2) % self.n_perceptrons

    def _inputs(self, history):
        raw = (history & ((1 << self.history_length) - 1)).to_bytes(self._nbytes, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        x = np.empty(self.history_length + 1, dtype=np.int16)
        x[0] = 1
        x[1:] = bits[: self.history_length].astype(np.int16) * 2 - 1
        return x

    def output(self, pc, history):
        x = self._inputs(history)
        return int(np.dot(self.weights[self._row(pc)].astype(np.int32), x))

    def predict(self, pc, history):
        return self.output(pc, history) >= 0

    def predict_packed(self, pc, history):
        x = self._inputs(history)
        return int(np.dot(self.weights[self._row(pc)].astype(np.int32), x)) >= 0, x

    def update_packed(self, pc, history, taken, predicted, x):
        row = self._row(pc)
        y = int(np.dot(self.weights[row].astype(np.int32), x))
        if (y >= 0) != taken or abs(y) <= self.threshold:
            updated = self.weights[row] + (1 if taken else -1) * x
            np.clip(updated, -128, 127, out=updated)
            self.weights[row] = updated

    def update(self, pc, history, taken, predicted):
        self.update_packed(pc, history, taken, predicted, self._inputs(history))


#: History lengths around every byte boundary and past 63 bits.
HISTORY_LENGTHS = (1, 7, 8, 28, 57, 63, 64, 100)


@st.composite
def perceptron_cases(draw):
    """A geometry, a starting weight matrix and a branch stream.

    Few rows and a handful of pcs make rows alias; starting weights are
    drawn from the bounds and their neighbours half of the time, so the
    saturating update is hit from the first step. Weights come from a
    drawn seed rather than per-element strategies, which would cost
    hypothesis most of the run at h = 100.
    """
    h = draw(st.sampled_from(HISTORY_LENGTHS))
    n = draw(st.integers(min_value=1, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=(1 << 32) - 1)))
    if draw(st.booleans()):
        weight = partial(rng.choice, (-128, -127, 126, 127))
    else:
        weight = partial(rng.randint, -128, 127)
    weights = [[weight() for _ in range(h + 1)] for _ in range(n)]
    pcs = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=4
    ))
    stream = draw(st.lists(
        st.tuples(
            st.sampled_from(pcs),
            st.integers(min_value=0, max_value=(1 << (h + 8)) - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ))
    return h, n, weights, stream


def _pair(h, n, weights):
    p = PerceptronPredictor(n, h)
    model = NumpyPerceptron(n, h)
    for row, values in zip(p.weights, weights):
        row[:] = values
    model.weights[:] = np.asarray(weights, dtype=np.int16)
    return p, model


class TestMatchesNumpyModel:
    """Bit-identity of the int-row perceptron with the numpy model."""

    @settings(max_examples=150, deadline=None)
    @given(perceptron_cases())
    def test_output_predict_and_update_match(self, case):
        h, n, weights, stream = case
        p, model = _pair(h, n, weights)
        for pc, history, taken in stream:
            assert p.output(pc, history) == model.output(pc, history)
            pred, x = p.predict_packed(pc, history)
            model_pred, model_x = model.predict_packed(pc, history)
            assert pred == model_pred
            assert x == tuple(model_x.tolist())
            p.update_packed(pc, history, taken, pred, x)
            model.update_packed(pc, history, taken, model_pred, model_x)
            assert p.weights == model.weights.tolist()

    @settings(max_examples=100, deadline=None)
    @given(perceptron_cases())
    def test_unpacked_update_matches(self, case):
        h, n, weights, stream = case
        p, model = _pair(h, n, weights)
        for pc, history, taken in stream:
            pred = p.predict(pc, history)
            assert pred == model.predict(pc, history)
            p.update(pc, history, taken, pred)
            model.update(pc, history, taken, pred)
        assert p.weights == model.weights.tolist()

    def test_saturated_rows_stay_in_range(self):
        # Every weight at a bound, trained toward it: the clamp must hold
        # every element, as np.clip does.
        for taken, bound in ((True, 127), (False, -128)):
            p, model = _pair(8, 1, [[bound] * 9])
            for history in (0, 0xFF, 0x5A):
                p.update(0, history, taken, not taken)
                model.update(0, history, taken, not taken)
                assert p.weights == model.weights.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        perceptron_cases(),
        st.sampled_from((1, 2, 4)),
        st.sampled_from((1, 3)),
        st.sampled_from((5, 18)),
        st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_filtered_perceptron_lookup_and_train_match(
        self, case, sets, ways, filter_history, mispredicts
    ):
        h, n, weights, stream = case
        critic = FilteredPerceptronPredictor(n, h, sets, ways, filter_history, tag_bits=4)
        model = FilteredPerceptronPredictor(n, h, sets, ways, filter_history, tag_bits=4)
        critic.perceptron, model.perceptron = _pair(h, n, weights)
        for (pc, history, taken), final_mispredict in zip(stream, mispredicts):
            assert critic.lookup(pc, history) == model.lookup(pc, history)
            critic.train(pc, history, taken, final_mispredict)
            model.train(pc, history, taken, final_mispredict)
            assert critic.perceptron.weights == model.perceptron.weights.tolist()
            assert critic.filter._tags == model.filter._tags
