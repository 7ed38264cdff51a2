"""Waiting-time laws for large seismic events under a non-homogeneous
Poisson process: simulation, the exponential limit law and its conditional
family, slope inference with confidence bands, goodness-of-fit, and
earthquake catalog analysis."""

from .intensity import IntensityModel, ModelSpecError
from .nhpp import EventTimes, simulate_path, jump_time_pdf, sample_jump_times
from .limitlaw import (WaitingLaw, ValidityError, limit_cdf, conditional_cdf,
                       random_cdf, sample_conditional, breakpoints, sup_distance_exp)
from .statfn import (KsResult, reg_lower_incomplete_gamma, chi2_sf,
                     normal_quantile, normal_cdf, ks_test)
from .inference import (SlopeEstimate, BandCurve, estimate_slope,
                        estimate_slope_with_ci, path_log_likelihood,
                        slope_ci, confidence_bands, verify_clt,
                        verify_glivenko_cantelli, verify_kolmogorov_limit)
from .gof import (GofReport, bin_percentages, chi_square_stat, expected_percentages,
                  gof_pvalue, table1_experiment)
from .catalog import (CatalogEvent, CatalogSegment, parse_catalog,
                      load_reference_catalog, segment_by_major, slope_series,
                      slope_at, empirical_waiting_cdf, compare_cdfs,
                      reproducibility_report)

__version__ = "0.1.0"
