"""Self-similar profiles with fat tails for the diagonal-kernel coagulation equation.

The root exports the README's library API; every other name lives in its module.
"""

from .params import make_params
from .pipeline import build_profile
from .tail import build_tail_report

__all__ = ["make_params", "build_profile", "build_tail_report"]

__version__ = "0.1.0"
