"""Built-in experiment presets.

Each preset is a complete run configuration: classical polynomial
approximation on the interval, its tensor version on the unit square, the
Cesàro-mean trigonometric setting on the circle (complex and real test
sets), and a mollifier family on the closed disc.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

PRESETS: dict[str, dict] = {
    "example41_bernstein": {
        "version": 1,
        "name": "example41_bernstein",
        "spaces": {"I": {"kind": "interval", "m": 100}},
        "spans": {"quadratic": {"space": "I", "basis": ["const1", "x", "x^2"]}},
        "family": {"name": "bernstein", "space": "I"},
        "experiment": {
            "test_span": "quadratic",
            "probes": "default",
            "indices": [16, 64, 256],
        },
    },
    "example42_tensor": {
        "version": 1,
        "name": "example42_tensor",
        "spaces": {"K": {"kind": "box", "p": 2, "m": 8}},
        "spans": {
            "quadratic2d": {
                "space": "K",
                "basis": ["const1", "coord 1", "coord 2", "coord 1^2", "coord 2^2"],
            }
        },
        "family": {"name": "tensor_bernstein", "space": "K"},
        "experiment": {
            "test_span": "quadratic2d",
            "probes": "default",
            "indices": [8, 32, 128],
        },
    },
    "example43_fejer": {
        "version": 1,
        "name": "example43_fejer",
        "spaces": {"T": {"kind": "circle", "m": 144}},
        "spans": {"analytic": {"space": "T", "basis": ["const1", "z"]}},
        "family": {"name": "fejer", "space": "T"},
        "experiment": {
            "test_span": "analytic",
            "probes": "default",
            "indices": [4, 16, 64],
        },
    },
    "example43_disc": {
        "version": 1,
        "name": "example43_disc",
        "spaces": {"D": {"kind": "disc", "rings": 8, "per_ring": 32}},
        "spans": {
            "hermitian": {"space": "D", "basis": ["const1", "z", "zbar", "|z|^2"]}
        },
        "family": {"name": "mollifier_disc", "space": "D"},
        "experiment": {
            "test_span": "hermitian",
            "probes": "default",
            "indices": [2, 4, 8, 32],
        },
    },
    "remark44_fejer": {
        "version": 1,
        "name": "remark44_fejer",
        "spaces": {"T": {"kind": "circle", "m": 144}},
        "spans": {"trig": {"space": "T", "basis": ["const1", "cos", "sin"]}},
        "family": {"name": "fejer", "space": "T"},
        "experiment": {
            "test_span": "trig",
            "probes": "default",
            "indices": [4, 16, 64],
        },
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
    return copy.deepcopy(PRESETS[name])
