"""tubelab: a numerical laboratory for extension-operator estimates,
tube geometry, and exact exponent calculus on the restriction diagram."""


class TubelabError(ValueError):
    """Base of every library error (defined before the submodules, which
    subclass it); exit_code is the CLI exit status, 2 unless a subclass
    sets 3 for a resource limit."""

    exit_code = 2


from . import exponents, extension, fields, geometry, lemmas, witnesses, xray

__all__ = [
    "TubelabError",
    "exponents",
    "extension",
    "fields",
    "geometry",
    "lemmas",
    "witnesses",
    "xray",
]

__version__ = "0.1.0"
