"""Golden digests of every perceptron-bearing system shape.

The differential matrix, the frozen reference kernel and the perfbench
gate all call the same predictor classes, so an arithmetic slip in the
perceptron would move both sides of each comparison and still pass.
These digests break that symmetry: they are sha256 hashes of
``encode_result`` for fixed cells, and of every perceptron's final
weights, recorded from the numpy-backed perceptron (int16 weights,
``np.dot`` outputs, ``np.clip`` saturation) before its weights became
plain Python ints. Any change to what a perceptron prophet or
filtered/unfiltered perceptron critic predicts or trains shows up here
as a digest mismatch.

Covered shapes, each on the scalar and batched backends and as an
accuracy cell and a timing (``TimedMachine``) cell:

* perceptron single at 8 KB (h = 28) and 32 KB (h = 57, the widest
  Table-3 history);
* perceptron-8 prophet + tagged-gshare-8 critic at 0 and 12 future bits
  (Figure 5's end points);
* 2bc-gskew-8 prophet + filtered-perceptron-8 critic (Figures 6b/7);
* 2bc-gskew-8 prophet + unfiltered perceptron-8 critic (Figure 6a).

Regenerate (only for an intended semantic change, with the reason in
the changelog): ``PYTHONPATH=src python tests/sim/test_perceptron_golden.py``
prints the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.hybrid import ProphetCriticSystem
from repro.pipeline.machine import TimedMachine
from repro.sim.cache import encode_result
from repro.sim.driver import SimulationConfig, simulate
from repro.sim.specs import MODE_ACCURACY, MODE_TIMING, ProgramSpec, SystemSpec

SYSTEMS = {
    "perceptron-8": SystemSpec.single("perceptron", 8),
    "perceptron-32": SystemSpec.single("perceptron", 32),
    "perceptron-8+tagged-gshare-8@f0": SystemSpec.hybrid(
        "perceptron", 8, "tagged-gshare", 8, future_bits=0
    ),
    "perceptron-8+tagged-gshare-8@f12": SystemSpec.hybrid(
        "perceptron", 8, "tagged-gshare", 8, future_bits=12
    ),
    "2bc-gskew-8+filtered-perceptron-8@f8": SystemSpec.hybrid(
        "2bc-gskew", 8, "filtered-perceptron", 8, future_bits=8
    ),
    "2bc-gskew-8+perceptron-8@f4": SystemSpec.hybrid(
        "2bc-gskew", 8, "perceptron", 8, future_bits=4
    ),
}

PROGRAMS = (ProgramSpec(benchmark="gcc", seed=1301), ProgramSpec(benchmark="flash", seed=1302))

CONFIGS = {
    MODE_ACCURACY: SimulationConfig(n_branches=2500, warmup=500, collect_per_site=True),
    MODE_TIMING: SimulationConfig(n_branches=1000, warmup=200),
}

BACKENDS = ("scalar", "batched")


def _perceptron_weights(system) -> list:
    """Final weights of every perceptron in the system, as int lists."""
    if isinstance(system, ProphetCriticSystem):
        parts = (system.prophet, system.critic)
    else:
        parts = (system.predictor,)
    perceptrons = [getattr(part, "perceptron", part) for part in parts]
    return [
        [[int(w) for w in row] for row in p.weights]
        for p in perceptrons
        if hasattr(p, "weights")
    ]


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(system_label: str, mode: str, backend: str) -> tuple[str, str]:
    """sha256 of each program's ``encode_result`` and of the final weights.

    The cells run as :func:`repro.sim.execution.run_cell` runs them, but
    keep the system so its trained weights can be read afterwards: the
    weights catch a training slip that has not yet flipped a
    prediction inside the measured window.
    """
    config = replace(CONFIGS[mode], backend=backend)
    documents, weights = [], []
    for spec in PROGRAMS:
        program = spec.build()
        system = SYSTEMS[system_label].build()
        if mode == MODE_TIMING:
            result = TimedMachine(program, system).run(
                config.n_branches, warmup=config.warmup
            )
        else:
            result = simulate(program, system, config)
        result.system = system_label
        result.benchmark = f"{spec.benchmark}-{spec.seed}"
        documents.append(encode_result(result))
        weights.append(_perceptron_weights(system))
    return _sha256(documents), _sha256(weights)


#: (system label, mode) -> (result digest, weights digest), identical on
#: both backends. Timing cells run TimedMachine, which has no kernel
#: backend, so the backend axis there checks that the field is inert.
GOLDEN = {
    ("2bc-gskew-8+filtered-perceptron-8@f8", "accuracy"): (
        "0501f3ccf25b315495e141985c052cf4400d611048f082658d938a482b4dcded",
        "63fee34b3d8cb312a4ad04a6ba89525cf8cd863f8b7550d51b9a5281484fc8d8",
    ),
    ("2bc-gskew-8+filtered-perceptron-8@f8", "timing"): (
        "299ab6947e0e7969dd1d28d3c6915134658d50ecfd323f26f10df72580e2d7bb",
        "96c2cf52d0642718d30538ee2fad1800e398134fadec8341a6fbdb9d70e507e4",
    ),
    ("2bc-gskew-8+perceptron-8@f4", "accuracy"): (
        "31c7cab17d2657b856aad3a5fe5ffb653f0f63ac5f2aadce4e34dedb218e8a84",
        "eb01cf1e813b25dbc692f7309540f430ea43a1bb844e9f493f53d84e13a1cddc",
    ),
    ("2bc-gskew-8+perceptron-8@f4", "timing"): (
        "9f6d7222f59faff36c9c52598f93bb7eace88b0050931a3209398074286af2f6",
        "43228275ae65c6344216e9dec3355598f5132975e653fe2f3dd8bb8ce72b1019",
    ),
    ("perceptron-32", "accuracy"): (
        "140503cf0df0df05eea9299871f378a33c0febe5ee04b34d59747c3b4f778525",
        "4f51ceda7e2d0475207e356ce81625057c43557a704f910198d040a0f6660c5e",
    ),
    ("perceptron-32", "timing"): (
        "2b2931de10892048a8d04a0088c4dbf23c7032f653e2436bd72757d3f4841991",
        "025fe018310ee7fafa77dbf327dd9970f91c61d4fb5407faef548ab3d20997be",
    ),
    ("perceptron-8", "accuracy"): (
        "4a8315209e42cb702b62c2a9d08dc7abb5e8b85b0c3f8cca6bb260bf9838d535",
        "3048aa9aca556e4af5e2a8685f0f3940358fa0489e1f83c2c17d56b48dd7f7b4",
    ),
    ("perceptron-8", "timing"): (
        "4e2a7c2e91548004ae6aac03d08cf0b383db7e521a05b1011b051c65c0bd95f4",
        "f989f42d490d5fdd04a83818bfa6349e63b27fc8ea773fb71e1d5e84420fda1d",
    ),
    ("perceptron-8+tagged-gshare-8@f0", "accuracy"): (
        "c6f90f634174cfe69f60cf6118b0a1ee7da3a3cb4fccd883131e8a8e00f2fd06",
        "3048aa9aca556e4af5e2a8685f0f3940358fa0489e1f83c2c17d56b48dd7f7b4",
    ),
    ("perceptron-8+tagged-gshare-8@f0", "timing"): (
        "8605e031e31e2018b22530fdcee57f45892286e5ab0bc60d79fe607ac75425e6",
        "f989f42d490d5fdd04a83818bfa6349e63b27fc8ea773fb71e1d5e84420fda1d",
    ),
    ("perceptron-8+tagged-gshare-8@f12", "accuracy"): (
        "bbc711c1fe32d4385ff3dc4363e445a52f1855dc81188db015c9af8f0dce998a",
        "3048aa9aca556e4af5e2a8685f0f3940358fa0489e1f83c2c17d56b48dd7f7b4",
    ),
    ("perceptron-8+tagged-gshare-8@f12", "timing"): (
        "e3dc02f1c0e42ac2a4cf2d99763614ea99c38ca0f67959ca1acefcbd109ed3d5",
        "f989f42d490d5fdd04a83818bfa6349e63b27fc8ea773fb71e1d5e84420fda1d",
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", sorted(CONFIGS))
@pytest.mark.parametrize("system_label", sorted(SYSTEMS))
def test_digest_matches_the_numpy_perceptron(system_label, mode, backend):
    assert digests(system_label, mode, backend) == GOLDEN[system_label, mode]


if __name__ == "__main__":
    for label in sorted(SYSTEMS):
        for mode in sorted(CONFIGS):
            values = {digests(label, mode, backend) for backend in BACKENDS}
            assert len(values) == 1, (label, mode, values)
            result, weights = map(json.dumps, values.pop())
            key = ", ".join(map(json.dumps, (label, mode)))
            print(f"    ({key}): (\n        {result},\n        {weights},\n    ),")
