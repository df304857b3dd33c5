"""The map kernel the package computes with: the pure-Python ``_corepy``."""

from . import _corepy as kernel

BACKEND = kernel.BACKEND
