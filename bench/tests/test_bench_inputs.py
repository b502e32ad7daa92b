"""Inputs come from the seed and nothing else."""

import dataclasses

import backends
import spans
from workloads import WORKLOADS

SMALL = dataclasses.replace(WORKLOADS["cold_fused_24x24x8"], mesh=(6, 5, 4), batch=2)


def _digest(seed):
    return backends.input_digest(backends.make_inputs(SMALL, seed, spans.NullRecorder()))


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert _digest(7) == _digest(7)
    assert _digest(7) != _digest(8)
