"""Default tolerances of the verdicts, defined once.

The library keyword defaults, the equivalence harness and the
[tolerances] section of system files all start from these values.
"""

FLATNESS_TOL = 1e-9      # grid maximum of |F_ij| below which a system is flat
RESIDUAL_TOL = 1e-6      # worst |xi - T dS| below which an entropy chart passes
HOLONOMY_TOL = 1e-7      # |dU| around a closed loop below which the lift closes
PHASE_CLOSURE_TOL = 1e-8  # |dU| of one revolution below which phase_demo calls it closed
