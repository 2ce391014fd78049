"""Exact origin computations of iterated Kahler Laplacians from potentials."""

__version__ = "0.1.0"
