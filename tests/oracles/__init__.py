"""Reference implementations the golden tests compare the library against.

Each oracle is the plain version of a vectorized or frequency-domain code
path in :mod:`repro`: per-step loops, separate ``fftconvolve`` passes and a
dense linear solve.  They are slow on purpose and only tests run them.
"""
