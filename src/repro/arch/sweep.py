"""Design-space sweep: the Section VI-A methodology as a reusable tool.

Enumerates Mirage configurations over (bm, g, v, number of arrays),
filters by the Eq. 13 moduli constraint, evaluates energy-per-MAC, area,
peak power and workload-weighted utilisation, and extracts the Pareto
frontier — the machinery behind the paper's choice of bm=4, g=16, 16x32,
8 arrays, packaged so downstream users can re-run it for their own
workload mixes or device assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..rns.moduli import choose_k_min
from .area import mirage_total_area
from .config import MirageConfig
from .energy import EnergyParams, mirage_energy_per_mac, peak_power_breakdown
from .tiling import workload_utilization
from .workloads import workload, workload_names

__all__ = ["DesignPoint", "sweep_designs", "pareto_frontier", "default_design_space"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated Mirage configuration."""

    bm: int
    g: int
    v: int
    num_arrays: int
    k: int
    energy_per_mac: float  # J
    area: float  # m^2
    peak_power: float  # W
    utilization: float  # [0, 1], workload-weighted
    peak_macs_per_s: float

    @property
    def accurate(self) -> bool:
        """Accuracy feasibility from the paper's Fig. 5a: bm=4 holds FP32
        parity up to g=16, bm>=5 up to g=64; bm<=3 never does."""
        if self.bm >= 5:
            return self.g <= 64
        if self.bm == 4:
            return self.g <= 16
        return False

    @property
    def effective_macs_per_s(self) -> float:
        return self.peak_macs_per_s * self.utilization

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (energy/MAC ↓, area ↓, eff. throughput ↑)."""
        no_worse = (
            self.energy_per_mac <= other.energy_per_mac
            and self.area <= other.area
            and self.effective_macs_per_s >= other.effective_macs_per_s
        )
        strictly = (
            self.energy_per_mac < other.energy_per_mac
            or self.area < other.area
            or self.effective_macs_per_s > other.effective_macs_per_s
        )
        return no_worse and strictly


def default_design_space() -> dict:
    """The grid the paper's sensitivity analysis walks."""
    return {
        "bm": (3, 4, 5),
        "g": (8, 16, 32),
        "v": (16, 32, 64),
        "num_arrays": (4, 8, 16),
    }


def sweep_designs(
    space: Optional[dict] = None,
    workloads: Optional[Sequence[str]] = None,
    params: Optional[EnergyParams] = None,
) -> List[DesignPoint]:
    """Evaluate every Eq.-13-feasible point of the design space."""
    space = space or default_design_space()
    params = params or EnergyParams()
    names = list(workloads or workload_names())
    layer_sets = [workload(n) for n in names]
    points: List[DesignPoint] = []
    for bm in space["bm"]:
        for g in space["g"]:
            try:
                k = choose_k_min(bm, g)
            except ValueError:
                continue
            for v in space["v"]:
                for arrays in space["num_arrays"]:
                    cfg = MirageConfig(num_arrays=arrays, v=v, g=g, k=k, bm=bm)
                    util = sum(
                        workload_utilization(layers, v, g, arrays)
                        for layers in layer_sets
                    ) / len(layer_sets)
                    points.append(
                        DesignPoint(
                            bm=bm,
                            g=g,
                            v=v,
                            num_arrays=arrays,
                            k=k,
                            energy_per_mac=mirage_energy_per_mac(cfg, params),
                            area=mirage_total_area(cfg),
                            peak_power=sum(
                                peak_power_breakdown(cfg, params).values()
                            ),
                            utilization=util,
                            peak_macs_per_s=cfg.peak_macs_per_s,
                        )
                    )
    return points


def pareto_frontier(
    points: Iterable[DesignPoint], require_accurate: bool = True
) -> List[DesignPoint]:
    """Non-dominated subset under (energy ↓, area ↓, eff. throughput ↑).

    ``require_accurate`` restricts the search to points that meet the
    Fig. 5a accuracy bar first — the paper's selection procedure (bm=3 is
    always cheapest but never accurate).
    """
    pts = list(points)
    if require_accurate:
        pts = [p for p in pts if p.accurate]
    frontier = [
        p for p in pts if not any(q.dominates(p) for q in pts if q is not p)
    ]
    frontier.sort(key=lambda p: (p.energy_per_mac, p.area))
    return frontier
