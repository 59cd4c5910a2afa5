"""Sensitivity report record shared by the interval and optimization analyses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class SensitivityReport:
    """Result of one sensitivity analysis run.

    `bound` is the reported upper estimate of sup of the Jacobian spectral
    norm over the bounded box. `interval_low` is 0 for the interval baseline
    and equals `bound` for point methods. `argmax` maps tensor names to the
    in-bounds point attaining the bound (absent for the interval method).
    `fingerprint` identifies the analyzed graph so privatized execution can
    refuse stale reports. `n_evaluations` counts the objective evaluations of
    the point methods (None for the interval method).
    """

    method: str
    bound: float
    interval_low: float
    certified: bool
    argmax: Mapping[str, np.ndarray] | None
    wall_time: float
    fingerprint: str
    warning: str | None = None
    n_evaluations: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "bound": self.bound,
            "interval_low": self.interval_low,
            "certified": self.certified,
            "argmax": None if self.argmax is None else {
                k: np.asarray(v).tolist() for k, v in self.argmax.items()
            },
            "wall_time": self.wall_time,
            "fingerprint": self.fingerprint,
            "warning": self.warning,
            "n_evaluations": self.n_evaluations,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SensitivityReport":
        argmax = data.get("argmax")
        n_evaluations = data.get("n_evaluations")
        return cls(
            method=data["method"],
            bound=float(data["bound"]),
            interval_low=float(data["interval_low"]),
            certified=bool(data["certified"]),
            argmax=None if argmax is None else {
                k: np.asarray(v, dtype=np.float64) for k, v in argmax.items()
            },
            wall_time=float(data["wall_time"]),
            fingerprint=data["fingerprint"],
            warning=data.get("warning"),
            n_evaluations=None if n_evaluations is None else int(n_evaluations),
        )
