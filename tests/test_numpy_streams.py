"""Fingerprints of the numpy ``Generator`` methods every stream rests on.

A trial is a function of its ``SimConfig`` and of these methods' output.
NEP 19 keeps a bit generator's raw output stable across numpy releases,
but lets a ``Generator`` method's transform change. Each case below
hashes a short fixed draw of one method, with the parameters the program
passes, so a numpy release that moves one names that method here instead
of failing every golden row and benchmark digest at once.

The pins were captured on numpy 2.4.6.
"""
import hashlib
import math

import numpy as np
import pytest

from gossipq.engine import STREAM_ROUND, derive_rng

N = 1000
# the live-count law of a 6-round pull batch at mu 0.5, as the engine's
# message total draws it
PMF = np.array([math.comb(6, j) for j in range(7)]) / 2.0**6

DRAWS = {
    # SeedSequence + PCG64: moves every case below if it changes
    "raw bits": lambda rng: rng.bit_generator.random_raw(16),
    # peers, the spread experiment's contacts, a pull batch's pick block
    "integers": lambda rng: np.concatenate(
        [rng.integers(0, N, size=N).ravel(), rng.integers(0, 37, size=(3, 50)).ravel()]
    ),
    # failure bits, phase-I coins, short-of-good-pulls tests
    "random": lambda rng: rng.random(N),
    # the values stream's input permutation
    "permutation": lambda rng: rng.permutation(N),
    # the spread experiment's initial good set
    "choice(replace=False)": lambda rng: rng.choice(N, size=80, replace=False),
    # the K-sample median's order statistic, at K = 31 (K_SAMPLE rounded up to odd)
    "beta": lambda rng: rng.beta(16.0, 16.0, size=N),
    # a pull batch's message total
    "multinomial": lambda rng: rng.multinomial(N, PMF),
}

PINS = {
    "raw bits": "979cbab1d383aea8",
    "integers": "af07ee977152898b",
    "random": "0b08b30ee38647b7",
    "permutation": "678282f2abc17779",
    "choice(replace=False)": "ba5f6ab23dbc3e89",
    "beta": "9bcdb5c2ba7bb77f",
    "multinomial": "4f227c21a92f2e52",
}


def _digest(values) -> str:
    arr = np.asarray(values)
    arr = arr.astype("<f8" if arr.dtype.kind == "f" else "<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("method", list(DRAWS))
def test_generator_method_stream_unchanged(method):
    got = _digest(DRAWS[method](derive_rng(1, STREAM_ROUND)))
    assert got == PINS[method], (
        f"numpy {np.__version__} changed Generator.{method}'s stream "
        f"(digest {got}); the golden rows and benchmark digests that rest on it move too"
    )
