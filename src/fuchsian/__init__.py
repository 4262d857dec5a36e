"""Formal solutions and uniqueness certificates for nonlinear equations
whose time derivative enters through the Euler operator t d/dt.

The package constructs the unique formal power-series solution when the
spectrum allows it, and certifies the uniqueness machinery numerically on
concrete instances: majorant norms, the barrier combination, its
differential inequality, and the backward flow it controls.
"""

__version__ = "0.1.0"
