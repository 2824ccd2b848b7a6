"""Syndrome belief-propagation decoding of sparse quantum codes over GF(4).

Library layout; `import gf4bp` loads the four set-up layers, and channel,
feedback and sim on first use (PEP 562), numpy.random with a first Generator:

* gf4: exact field tables and the Pauli correspondence
* stabilizer: codes, syndromes, EA canonicalization, constructions
* formats: stabilizer text and alist parsing/writing, load_code
* decoder: the standard flooding sum-product decoder
* channel: depolarizing priors and reproducible error sampling
* feedback: PC08 random perturbation and the enhanced feedback strategy
* sim: Monte-Carlo harness, outcome classification, statistics, CSV
* cli: the `gf4bp` command (simulate / trace / build-code)
"""

import importlib

from .decoder import DecodeOutcome, TannerGraph, decode
from .formats import (
    load_code, parse_alist, parse_stabilizer_text, write_alist, write_stabilizer_text
)
from .stabilizer import (
    StabilizerCode,
    build_code_4_1_1,
    commutes,
    construction_b,
    ea_canonicalize,
    extend_with_ebits,
    group_membership,
    quaternary_to_pauli,
    syndrome,
)

_LAZY = {  # exported name -> the module that defines it
    **dict.fromkeys(("DepolarizingChannel", "priors", "sample_error", "substream"), "channel"),
    **dict.fromkeys(("FeedbackConfig", "feedback_decode", "feedback_round"), "feedback"),
    **dict.fromkeys(("ExperimentSpec", "run_experiment"), "sim"),
}


def __getattr__(name):
    """channel, feedback and sim and their exported names, imported on first use."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "DepolarizingChannel",
    "DecodeOutcome",
    "ExperimentSpec",
    "FeedbackConfig",
    "StabilizerCode",
    "TannerGraph",
    "build_code_4_1_1",
    "commutes",
    "construction_b",
    "decode",
    "ea_canonicalize",
    "extend_with_ebits",
    "feedback_decode",
    "feedback_round",
    "group_membership",
    "load_code",
    "parse_alist",
    "parse_stabilizer_text",
    "priors",
    "quaternary_to_pauli",
    "run_experiment",
    "sample_error",
    "substream",
    "syndrome",
    "write_alist",
    "write_stabilizer_text",
]
