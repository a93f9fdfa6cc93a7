"""levelcurves: a workbench for level-curve statistics of sphere-cross-time
Gaussian random fields.

The package simulates isotropic, time-stationary Gaussian fields on the unit
sphere from an angular power spectrum with per-multipole temporal memory,
extracts u-level curves on a triangulated sphere, accumulates the
time-averaged boundary-length functional, and compares its fluctuations
against closed-form Hermite/Wiener-chaos predictions and against the
limiting laws (composite Rosenblatt under long memory, Gaussian under short
memory).

Module map:

- ``special``   tables of Legendre and Hermite polynomial values, real
                spherical-harmonic columns, Gaussian density.
- ``spectrum``  power-spectrum model, covariance closed forms, memory-regime
                classification.
- ``synthesis`` coefficient-path sampling (circulant embedding), icosphere
                meshes, exact sphere cubature, field/gradient synthesis.
- ``geometry``  isoline extraction, Kac-Rice mean, boundary-length
                functional.
- ``chaos``     Hermite-expansion coefficients, chaos projections, exact and
                asymptotic variance formulas.
- ``limits``    Rosenblatt sampler and composite reference, variance-scaling
                fits, limit-law tests, Berry variance profiles.
- ``cli``       the ``levelcurves`` command-line front end.
"""

__version__ = "0.1.0"
