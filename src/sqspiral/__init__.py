"""Square-root spiral toolkit.

Exact numeric model of the Theodorus spiral, quadratic spiral-arm discovery
and classification, and machine-checked reproduction of the published
constants, tables, and figures.  Each name is imported from its module, as
in `from sqspiral.arms import enumerate_arms`; the package root holds only
`__version__`.
"""

__version__ = "0.1.0"
