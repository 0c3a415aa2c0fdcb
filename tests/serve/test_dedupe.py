"""The release service's dedupe key covers every value-setting field.

A cached release is served for any request with the same key, so a
request field the key leaves out must be one that cannot change the
released numbers.  Only ``label`` qualifies: it names the ledger entry.
"""

from __future__ import annotations

import dataclasses

from repro.api import ReleaseRequest
from repro.core.composition import SINGLE_QUERY
from repro.serve.dedupe import release_key

BASE = ReleaseRequest(
    attrs=("place", "naics"),
    mechanism="smooth-laplace",
    alpha=0.1,
    epsilon=2.0,
    delta=0.05,
    seed=7,
)

# One changed value per request field other than ``label``.
CHANGED = {
    "attrs": ("place",),
    "mechanism": "smooth-gamma",
    "alpha": 0.2,
    "epsilon": 4.0,
    "delta": 0.01,
    "mode": "weak",
    "budget_style": SINGLE_QUERY,
    "n_trials": 5,
    "seed": 8,
    "mechanism_options": {"gamma": 2.0},
}


def test_every_field_but_the_label_changes_the_key():
    names = {field.name for field in dataclasses.fields(ReleaseRequest)}
    assert set(CHANGED) == names - {"label"}
    base = release_key("fp", BASE)
    keys = {
        release_key("fp", dataclasses.replace(BASE, **{name: value}))
        for name, value in CHANGED.items()
    }
    assert base not in keys
    assert len(keys) == len(CHANGED)


def test_the_label_does_not_change_the_key():
    relabeled = dataclasses.replace(BASE, label="same release, new name")
    assert release_key("fp", relabeled) == release_key("fp", BASE)
