"""Fixture: dataclasses hygiene-entity-eq accepts."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(eq=False)
class Session:
    session_id: int
    x: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Weights:
    w: np.ndarray


@dataclass
class Quantizer:
    forward: Callable[..., np.ndarray]
    name: str = ""
