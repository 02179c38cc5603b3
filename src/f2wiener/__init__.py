"""Exact Fourier-algebra (Wiener) norms of subsets of F2^n.

Everything numerical is dyadic-rational and exact; floats appear only in
derived diagnostics (a step's Chang ceiling, hypercontractive norms), never
in an output file.  The modules are the API (f2wiener.chang,
f2wiener.iteration, ...); nothing is re-exported here.
"""

__version__ = "0.1.0"
