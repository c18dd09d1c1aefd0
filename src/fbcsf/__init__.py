"""Numerical laboratory for convex ancient solutions of free-boundary
curve shortening flow in strictly convex planar domains.

Submodules
----------
geometry     turning-angle domains, diameters, normalization
oval         Angenent-oval initial data and the limiting scales
barrier      rolling circles and sagging-arc supersolutions
flow         semi-implicit curve evolution with sliding contacts
asymptotics  exponential estimates, profile fits, Robin eigenproblem
solve        the bracketed Brent root finder every layer shares
errors       the typed exception hierarchy, rooted at FBCSFError
"""

__version__ = "0.1.0"
