"""Multi-pair statistics of pulsed photon-pair sources.

Models how multi-pair emission and threshold detection degrade the
figures of merit of entangled and correlated photon-pair sources:
two-photon interference visibility, coincidence-to-accidental ratio,
reconstructed density matrices and concurrence, and their time-bin
counterparts, with exact pair-number series, closed forms, and
independent enumeration/Monte-Carlo oracles.

``oracle`` and ``tomography`` import numpy, so they, their names and
``__all__`` load on first use (PEP 562); the rate modules load with
the package.
"""

import importlib

from . import detection, distributions, metrics, polarization
from .detection import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .polarization import *  # noqa: F401,F403

__version__ = "0.1.0"

# the oracles' earlier name for Setting, kept for existing callers
OracleSetting = polarization.Setting

_LAZY = ("oracle", "tomography")


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        # each public name is declared once, in the __all__ of its own module
        value = ["__version__", *detection.__all__, *distributions.__all__, *metrics.__all__,
                 *__getattr__("oracle").__all__, *polarization.__all__,
                 *__getattr__("tomography").__all__]
    else:
        owner = next((m for m in map(__getattr__, _LAZY) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
