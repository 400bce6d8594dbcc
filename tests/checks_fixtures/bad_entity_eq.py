"""Fixture: mutable dataclasses comparing ndarray fields by value
(hygiene-entity-eq), one finding per class."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class Session:
    session_id: int
    x: np.ndarray


@dataclass(eq=True)
class Request:
    request_id: int
    output: Optional[np.ndarray] = None


@dataclass(order=False)
class Trace:
    rows: List[np.ndarray]
