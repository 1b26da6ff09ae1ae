"""Critical exponents of orbit growth and the bottom of the L2 spectrum
for discrete subgroups of SL(n,R) and products of SL(2,R)."""

from .asymptotics import (GreenSeriesDiagnostic, VolumeFit, cartan_density,
                          classical_ball_volume, fit_ball_volume,
                          green_asymptotic, green_series_diagnostic,
                          heat_bound, polyhedral_ball_volume)
from .cartan import (GroupElement, cartan_projection, distance_mixed,
                     distance_polyhedral, distance_riemannian,
                     log_singular_values, relative_position)
from .errors import (ConfigError, NumericalError, ResourceLimitError,
                     UnsupportedGroupError)
from .exponents import (CountingCurve, ExponentEstimate, ExponentTriple,
                        KIND_MIXED, KIND_POLYHEDRAL, KIND_RIEMANNIAN,
                        counting_curve, delta_second_bisection,
                        estimate_exponent, exponent_triple,
                        level_partial_sums, poincare_partial_sum,
                        trust_radius)
from .liecore import (ChamberVector, Factor, GroupSpec, RootSystemData,
                      build_root_system)
from .orbit import GeneratorSet, OrbitBall, enumerate_ball
from .spectrum import (SpectrumReport, consistency_check,
                       lambda0_characterization, lambda0_lower_polyhedral,
                       lambda0_two_sided_bounds)

__version__ = "0.1.0"

__all__ = [
    "ChamberVector", "ConfigError", "CountingCurve", "ExponentEstimate",
    "ExponentTriple", "Factor", "GeneratorSet", "GreenSeriesDiagnostic",
    "GroupElement", "GroupSpec", "KIND_MIXED", "KIND_POLYHEDRAL",
    "KIND_RIEMANNIAN", "NumericalError", "OrbitBall", "ResourceLimitError",
    "RootSystemData", "SpectrumReport", "UnsupportedGroupError", "VolumeFit",
    "build_root_system", "cartan_density", "cartan_projection",
    "classical_ball_volume", "consistency_check", "counting_curve",
    "delta_second_bisection", "distance_mixed", "distance_polyhedral",
    "distance_riemannian", "enumerate_ball",
    "estimate_exponent", "exponent_triple", "fit_ball_volume",
    "green_asymptotic", "green_series_diagnostic", "heat_bound",
    "lambda0_characterization", "lambda0_lower_polyhedral",
    "lambda0_two_sided_bounds", "level_partial_sums", "log_singular_values",
    "poincare_partial_sum", "polyhedral_ball_volume", "relative_position",
    "trust_radius",
]
