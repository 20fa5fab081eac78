"""Square-root spiral toolkit.

Exact numeric model of the Theodorus spiral, quadratic spiral-arm discovery
and classification, and machine-checked reproduction of the published
constants, tables, and figures.
"""

__version__ = "0.1.0"

from .table import (SpiralTable, CapacityError, build_table, load_table, save_table,
                    segment_angle, stream_cum_angles, table_for, wrap_signed)
from .constants import (ConstantsReport, WindingRows, archimedean_radius, c2_estimate,
                        c2_extrapolate, constants_report, winding_averages, winding_distance_table)
from .ratpoly import QuadraticPoly, SpiralAngle, limit_spiral_angle, newton_quadratic
from .arms import (Arm, Arms, NumberGroup, SystemReport, classify_systems,
                   enumerate_arms, members, parse_group, trace_arm, verify_rule_5_2)
from .series import (AnalysisSeries, CrossingsReport, FibAngles,
                     axis_crossings, fib_angle_series,
                     fib_angle_series_streaming, fib_area_ratio_series,
                     fibonacci_numbers, same_arm_angle_series,
                     square_angle_series, square_band_ratio_series)
from .primes import (PolyDensityRow, PrimalityTable, PrimeArm, coprime6_check,
                     prime_arm_report, scan_prime_polys, sieve)
from .svg import parse_style, render_report_figure, render_svg
from .config import load_config, parse_config
