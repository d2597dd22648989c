"""Every protocol option has a caller.

A field of ``FedConfig`` (whose fields include all of ``AimConfig``'s) is
settable from an experiment config when the harness passes it through
(``harness.FED_KEYS``).  Any other field is listed in ``KEPT`` with the
code that sets it; a field nothing sets is a constant, not an option.
"""

import dataclasses

from fedsynth.central import AimConfig
from fedsynth.federated import FedConfig
from fedsynth.harness import FED_KEYS

KEPT = {
    "seed": "the harness sets it from the run seed",
    "variant": "the harness sets it from the flaim method name",
    "final_fit_tolerance": "perfbench's workloads set it to 1e-5",
    "noiseless": "the tests' exact-measurement references run on it",
}


def test_every_config_field_has_a_caller():
    fields = {f.name for f in dataclasses.fields(FedConfig)}
    assert {f.name for f in dataclasses.fields(AimConfig)} <= fields
    uncalled = sorted(fields - set(FED_KEYS) - set(KEPT))
    assert not uncalled, f"config fields no harness key, benchmark or protocol sets: {uncalled}"
    stale = sorted(set(KEPT) - (fields - set(FED_KEYS)))
    assert not stale, f"kept names that are harness keys or no longer fields: {stale}"
