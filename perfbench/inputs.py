"""Seeded inputs of the benchmark workloads (pure Python, no diagcoag import).

Every workload runs its items in passes.  A profile pass visits every cell
of its grid once, in an order drawn from the seed, so the share of cells
that fail is the same in every whole pass.  A collapse pass is a batch of
seeded perturbations of the canonical profile, and the first pass of a run
starts with the unperturbed field.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The paper's acceptance grid: gamma x tail fraction, rho = gamma + frac (1 - gamma).
SWEEP15_GAMMAS = (-1.0, 0.0, 0.5)
SWEEP15_FRACS = (0.1, 0.3, 0.5, 0.7, 0.9)
# Large-beta cells (beta 5.6 to 333): long tail extensions.
DEEP_TAIL_GAMMAS = (0.8, 0.9, 0.95, 0.99)
DEEP_TAIL_FRACS = (0.3, 0.5, 0.7, 0.9)

COLLAPSE_GAMMA = 0.0
COLLAPSE_BETA = 2.0
COLLAPSE_T_END = 256.0
COLLAPSE_MD = 64
COLLAPSE_OUTPUTS = 9
COLLAPSE_PASS = 8
# Perturbation g (1 + a exp(-(ln xi - c)^2)): |a| below this, c inside the
# collapse window at t_end, [2^-14, 2^-2] for beta = 2 on the default grid.
PERTURB_AMPLITUDE = 0.4
PERTURB_CENTRE = (-14.0 * math.log(2.0), -2.0 * math.log(2.0))

PROFILE_WORKLOADS = ("sweep15", "deep_tail", "roundtrip")
WORKLOADS = PROFILE_WORKLOADS + ("collapse",)


@dataclass(frozen=True)
class Cell:
    """One (gamma, frac) grid cell; ``key`` names it in the reference file."""

    gamma: float
    frac: float

    @property
    def rho(self) -> float:
        return self.gamma + self.frac * (1.0 - self.gamma)

    @property
    def key(self) -> str:
        return f"{self.gamma:g}/{self.frac:g}"


@dataclass(frozen=True)
class Perturbation:
    """Bump of relative amplitude ``a`` centred at ln xi = ``c``; a = 0 is none."""

    a: float
    c: float

    @property
    def key(self) -> str:
        return "unperturbed" if self.a == 0.0 else f"a={self.a:.4f},c={self.c:.3f}"


def grid_cells(workload: str) -> list[Cell]:
    if workload == "deep_tail":
        gammas, fracs = DEEP_TAIL_GAMMAS, DEEP_TAIL_FRACS
    else:
        gammas, fracs = SWEEP15_GAMMAS, SWEEP15_FRACS
    return [Cell(g, f) for g in gammas for f in fracs]


def passes(workload: str, seed: int):
    """Endless iterator of passes (lists of items) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "collapse":
        first = [Perturbation(0.0, 0.0)]
        while True:
            batch = first + [
                Perturbation(
                    rng.uniform(-PERTURB_AMPLITUDE, PERTURB_AMPLITUDE),
                    rng.uniform(*PERTURB_CENTRE),
                )
                for _ in range(COLLAPSE_PASS - len(first))
            ]
            first = []
            yield batch
    cells = grid_cells(workload)
    while True:
        order = cells[:]
        rng.shuffle(order)
        yield order
