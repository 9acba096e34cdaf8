"""Exact expansion coefficients for regular and connected regular labeled graphs.

The package computes, in exact rational arithmetic, the coefficient series
of the asymptotic growth of the number of k-regular labeled graphs (and of
the connected ones), cross-validated by independent exact counting routes
and a high-precision numerical residual harness.

Each name is imported from its layer module (``regasym.regular.sg_expansion``,
``regasym.counts.resolve``, ...); the package root binds none, so
``import regasym`` loads no layer.
"""
