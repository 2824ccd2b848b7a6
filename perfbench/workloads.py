"""The benchmark's workloads and the codes they decode.

A run of a workload is a fixed amount of work: `rounds` calls of
`run_experiment`, each with `blocks_per_cell` blocks in every (p, strategy)
cell.  The block count comes from `--seconds` and the workload's
`calibration_rate` (blocks per second the unmodified seed decoded on a 2-core
x86 container), never from a clock reading, so the same (workload, seed,
seconds) always decodes the same blocks and its counts repeat exactly.
Round 0 uses the run's seed itself; round r > 0 uses `round_seed(seed, r)`.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CODES_DIR = Path(__file__).resolve().parent / "codes"

#: Construction-B codes: file name -> (circulant length, ones of the first row).
CODES = {
    "c62.stab": (31, (1, 5, 11, 24, 25, 27)),
    "n510.stab": (255, (8, 36, 118, 128, 190, 240)),
}

DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class Workload:
    name: str
    code_file: str
    p_values: tuple
    strategies: tuple
    workers: int
    calibration_rate: float  # blocks per second, all cells together
    rounds: int
    why: str

    @property
    def cells(self) -> int:
        return len(self.p_values) * len(self.strategies)

    def blocks_per_cell(self, seconds: float) -> int:
        per_round = seconds * self.calibration_rate / self.rounds
        return max(1, round(per_round / self.cells))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c8-mix",
            code_file="c62.stab",
            p_values=(0.02, 0.03),
            strategies=("standard", "pc08", "enhanced"),
            workers=2,
            calibration_rate=480.0,
            rounds=12,
            why="criterion-8 experiment on the [[62,2]] code: BP plus a heavy "
            "tail of feedback restarts, run through the 2-worker process pool",
        ),
        Workload(
            name="lowp-std",
            code_file="c62.stab",
            p_values=(0.002,),
            strategies=("standard",),
            workers=1,
            calibration_rate=1700.0,
            rounds=30,
            why="[[62,2]] code at p=0.002, standard BP, serial: ANoI near 1, so "
            "per-block costs outside BP dominate and many results are kept",
        ),
        Workload(
            name="n510-std",
            code_file="n510.stab",
            p_values=(0.09,),
            strategies=("standard",),
            workers=1,
            calibration_rate=15.0,
            rounds=12,
            why="n=510 code (6,120 edges) at p=0.09, standard BP, serial: the "
            "BP iteration kernel dominates and code set-up is largest",
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Experiment seed of one round; round 0 keeps the run's seed."""
    if round_index == 0:
        return seed
    state = np.random.SeedSequence([seed, round_index]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


def code_path(workload: Workload) -> Path:
    return CODES_DIR / workload.code_file
