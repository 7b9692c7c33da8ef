"""tubelab: a numerical laboratory for extension-operator estimates,
tube geometry, and exact exponent calculus on the restriction diagram."""

import numpy as np


class TubelabError(ValueError):
    """Base of every library error (defined before the submodules, which
    subclass it); exit_code is the CLI exit status, 2 unless a subclass
    sets 3 for a resource limit."""

    exit_code = 2


def is_int(v) -> bool:
    """Whether v is an int or a numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_int(name: str, value, lo: int, hi: int = None, error=TubelabError):
    """Refuse with `error` a value that is not an integer in [lo, hi]: the one
    rule for every integer parameter (dimension, level, count, seed)."""
    if not is_int(value) or value < lo or (hi is not None and value > hi):
        need = f"{name} >= {lo}" if hi is None else f"{name} in [{lo}, {hi}]"
        raise error(f"need {need}, an integer, got {name} = {value!r}")


from . import exponents, extension, fields, geometry, lemmas, witnesses, xray

__all__ = [
    "TubelabError",
    "check_int",
    "exponents",
    "extension",
    "fields",
    "geometry",
    "is_int",
    "lemmas",
    "witnesses",
    "xray",
]

__version__ = "0.1.0"
