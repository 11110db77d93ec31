"""Perceptron branch predictor (Jiménez & Lin, 2002).

A table of perceptrons is selected by PC; the selected weight vector is
dotted with the ±1-encoded global history (plus a bias weight). Training
runs on a mispredict or whenever the output magnitude is below the
threshold θ = ⌊1.93·h + 14⌋.

Its ability to use much longer histories than counter tables is what makes
it attractive as a critic: future bits can be appended to the BOR without
sacrificing all the history bits (paper §6, "Predictors simulated").

Weights are 8-bit saturating signed integers, the budget assumed by the
paper's Table 3 (budget ≈ perceptrons × (h+1) bytes). They are held as
plain Python int rows and the input vector as an int tuple: one
prediction touches only h+1 ≤ 58 values, where numpy's per-call overhead
cost several times the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from repro.predictors.base import DirectionPredictor
from repro.predictors.registry import register_predictor

WEIGHT_MIN = -128
WEIGHT_MAX = 127

#: ±1 inputs of one history byte, lowest bit first: ``_BYTE_INPUTS[b][i]``
#: is +1 iff bit i of b is set.
_BYTE_INPUTS = tuple(
    tuple(1 if (byte >> bit) & 1 else -1 for bit in range(8)) for byte in range(256)
)


def train_row(row: list[int], x: tuple[int, ...], taken: bool) -> None:
    """Step every weight of ``row`` toward ``taken`` along ``x``, in place.

    The perceptron rule ``w += t·x`` (t = ±1) with 8-bit saturation. A
    step moves a weight by exactly one, so only a weight already at a
    bound can leave the range, and the clamp runs only when one did.
    """
    row[:] = map(add, row, x) if taken else map(sub, row, x)
    if WEIGHT_MAX + 1 in row or WEIGHT_MIN - 1 in row:
        row[:] = [
            WEIGHT_MAX if w > WEIGHT_MAX else WEIGHT_MIN if w < WEIGHT_MIN else w
            for w in row
        ]


class PerceptronPredictor(DirectionPredictor):
    """Global-history perceptron predictor with plain-int weight rows."""

    name = "perceptron"

    WEIGHT_MIN = WEIGHT_MIN
    WEIGHT_MAX = WEIGHT_MAX

    def __init__(self, n_perceptrons: int, history_length: int) -> None:
        super().__init__()
        if n_perceptrons < 1:
            raise ValueError("need at least one perceptron")
        if history_length < 1:
            raise ValueError("perceptron needs at least one history bit")
        self.n_perceptrons = n_perceptrons
        self.history_length = history_length
        self.threshold = int(1.93 * history_length + 14)
        # One list of h+1 ints per perceptron. Column 0 is the bias
        # weight; columns 1..h correspond to history bits 0..h-1 (bit 0 =
        # most recent outcome).
        self.weights = [[0] * (history_length + 1) for _ in range(n_perceptrons)]
        self._history_mask = (1 << history_length) - 1
        self._nbytes = (history_length + 7) // 8

    def _row(self, pc: int) -> int:
        return (pc >> 2) % self.n_perceptrons

    def _inputs(self, history: int) -> tuple[int, ...]:
        """±1 input vector of length h+1 (element 0 is the bias input)."""
        x = [1]
        for byte in (history & self._history_mask).to_bytes(self._nbytes, "little"):
            x += _BYTE_INPUTS[byte]
        del x[self.history_length + 1:]
        return tuple(x)

    def output(self, pc: int, history: int) -> int:
        """Raw perceptron output (sign = prediction, magnitude = confidence)."""
        return sum(map(mul, self.weights[self._row(pc)], self._inputs(history)))

    def predict(self, pc: int, history: int) -> bool:
        return self.output(pc, history) >= 0

    def predict_packed(self, pc: int, history: int) -> tuple[bool, tuple[int, ...]]:
        """Packed fast path: the ±1 input vector is pure in the history."""
        x = self._inputs(history)
        return sum(map(mul, self.weights[self._row(pc)], x)) >= 0, x

    def update_packed(
        self, pc: int, history: int, taken: bool, predicted: bool, x: tuple[int, ...]
    ) -> None:
        if self.stats_enabled:
            self.stats.record(predicted == taken)
        row = self.weights[self._row(pc)]
        # The output is recomputed against current weights — aliasing
        # branches may have trained this row since prediction time.
        y = sum(map(mul, row, x))
        if (y >= 0) != taken or abs(y) <= self.threshold:
            train_row(row, x, taken)

    def update(self, pc: int, history: int, taken: bool, predicted: bool) -> None:
        self.update_packed(pc, history, taken, predicted, self._inputs(history))

    def storage_bits(self) -> int:
        # 8-bit weights, (h+1) per perceptron; the global history register
        # itself is charged to the engine, as in the paper's budgets.
        return self.n_perceptrons * (self.history_length + 1) * 8

    def reset(self) -> None:
        super().reset()
        for row in self.weights:
            row[:] = [0] * len(row)

@dataclass(frozen=True)
class PerceptronParams:
    """Geometry schema for :class:`PerceptronPredictor` (defaults: Table-3 8KB)."""

    n_perceptrons: int = 282
    history_length: int = 28

    def build(self) -> PerceptronPredictor:
        return PerceptronPredictor(self.n_perceptrons, self.history_length)


register_predictor(
    "perceptron",
    PerceptronParams,
    PerceptronParams.build,
    critic_capable=True,
    summary="global-history perceptron (Jimenez & Lin, 2001)",
)
