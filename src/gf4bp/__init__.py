"""Syndrome belief-propagation decoding of sparse quantum codes over GF(4).

Library layout:

* gf4: exact field tables and the Pauli correspondence
* stabilizer: codes, syndromes, EA canonicalization, constructions
* formats: stabilizer text and alist parsing/writing
* channel: depolarizing priors and reproducible error sampling
* decoder: the standard flooding sum-product decoder
* feedback: PC08 random perturbation and the enhanced feedback strategy
* sim: Monte-Carlo harness, outcome classification, statistics, CSV
* cli: the `gf4bp` command (simulate / trace / build-code)
"""

from .channel import DepolarizingChannel, priors, sample_error, substream
from .decoder import DecodeOutcome, TannerGraph, decode
from .feedback import FeedbackConfig, feedback_decode, feedback_round
from .formats import parse_alist, parse_stabilizer_text, write_alist, write_stabilizer_text
from .sim import ExperimentSpec, classify_outcome, load_code, run_experiment
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

__version__ = "0.1.0"

__all__ = [
    "DepolarizingChannel",
    "DecodeOutcome",
    "ExperimentSpec",
    "FeedbackConfig",
    "StabilizerCode",
    "TannerGraph",
    "build_code_4_1_1",
    "classify_outcome",
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
