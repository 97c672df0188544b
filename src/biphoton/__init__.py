"""Multi-pair statistics of pulsed photon-pair sources.

Models how multi-pair emission and threshold detection degrade the
figures of merit of entangled and correlated photon-pair sources:
two-photon interference visibility, coincidence-to-accidental ratio,
reconstructed density matrices and concurrence, and their time-bin
counterparts, with exact pair-number series, closed forms, and
independent enumeration/Monte-Carlo oracles.
"""

from . import detection, distributions, metrics, oracle, polarization, tomography
from .detection import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .polarization import *  # noqa: F401,F403
from .tomography import *  # noqa: F401,F403

__version__ = "0.1.0"

# the oracles' earlier name for Setting, kept for existing callers
OracleSetting = polarization.Setting

# each public name is declared once, in the __all__ of its own module
__all__ = [
    "__version__",
    *detection.__all__,
    *distributions.__all__,
    *metrics.__all__,
    *oracle.__all__,
    *polarization.__all__,
    *tomography.__all__,
]
