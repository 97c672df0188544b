"""Multi-pair statistics of pulsed photon-pair sources.

Models how multi-pair emission and threshold detection degrade the
figures of merit of entangled and correlated photon-pair sources:
two-photon interference visibility, coincidence-to-accidental ratio,
reconstructed density matrices and concurrence, and their time-bin
counterparts, with exact pair-number series, closed forms, and
independent enumeration/Monte-Carlo oracles.
"""

from .detection import ClickMode, DetectorModel, click_prob
from .distributions import (
    CapExceeded,
    PairSource,
    SourceKind,
    TruncationPolicy,
    mean,
    pmf,
    pmf_values,
    second_moment,
    truncation_index,
)
from .metrics import (
    CarResult,
    MuOptimum,
    Objective,
    VisibilityResult,
    car,
    optimize_mu,
    series_rate,
    visibility_approx,
    visibility_exact,
)
from .oracle import (
    EnumeratedRate,
    McEstimate,
    XMaxTooLarge,
    enumerate_rate,
    ladder_plus_distribution,
    mc_rate,
    sample_patterns,
)
from .polarization import (
    HplusModel,
    RateEntry,
    RateMethod,
    RateReport,
    Setting,
    UnsupportedSetting,
    closed_form_rates,
    coincidence_rate,
    exact_rate_report,
    per_x_coincidence,
    plus_port_distribution,
    single_rate,
)
from .timebin import TimebinPort, fringe_per_pair, timebin_rate
from .tomography import (
    DensityMatrix,
    NotPhysical,
    SingularSystem,
    TomographyVector,
    assemble_r,
    closed_form_rho,
    concurrence,
    projectors,
    reconstruct,
)

__version__ = "0.1.0"

# the oracles' earlier name for Setting, kept for existing callers
OracleSetting = Setting

__all__ = [
    "__version__",
    "CapExceeded",
    "CarResult",
    "ClickMode",
    "DensityMatrix",
    "DetectorModel",
    "EnumeratedRate",
    "HplusModel",
    "McEstimate",
    "MuOptimum",
    "NotPhysical",
    "Objective",
    "PairSource",
    "RateEntry",
    "RateMethod",
    "RateReport",
    "Setting",
    "SingularSystem",
    "SourceKind",
    "TimebinPort",
    "TomographyVector",
    "TruncationPolicy",
    "UnsupportedSetting",
    "VisibilityResult",
    "XMaxTooLarge",
    "assemble_r",
    "car",
    "click_prob",
    "closed_form_rates",
    "closed_form_rho",
    "coincidence_rate",
    "concurrence",
    "enumerate_rate",
    "exact_rate_report",
    "fringe_per_pair",
    "ladder_plus_distribution",
    "mc_rate",
    "mean",
    "optimize_mu",
    "per_x_coincidence",
    "plus_port_distribution",
    "pmf",
    "pmf_values",
    "projectors",
    "reconstruct",
    "sample_patterns",
    "second_moment",
    "series_rate",
    "single_rate",
    "timebin_rate",
    "truncation_index",
    "visibility_approx",
    "visibility_exact",
]
