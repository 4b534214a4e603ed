"""Streaming prototype estimation: online Gaussian mixtures, collapse
diagnostics, a desk-scale teacher-student simulator, and analysis exports."""

__version__ = "0.1.0"
