"""Chebyshev ensemble graph networks for node and edge classification."""

__version__ = "0.1.0"
