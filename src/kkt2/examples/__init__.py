"""Built-in example problems and their certification chains."""

from .example1 import Example1Problem, build_example1
from .example2 import (
    DELTA,
    GAMMA,
    Example2Problem,
    Example2Set,
    build_example2,
    point_p,
    point_q,
    point_r,
)
from .certify import run_example1_certification, run_example2_certification

__all__ = [
    "DELTA",
    "GAMMA",
    "Example1Problem",
    "Example2Problem",
    "Example2Set",
    "build_example1",
    "build_example2",
    "point_p",
    "point_q",
    "point_r",
    "run_example1_certification",
    "run_example2_certification",
]
