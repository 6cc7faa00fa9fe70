"""Unitals, their translations, and the Figueroa polar unital.

The package root defines only ``__version__``; import from the modules
(``unitals.incidence``, ``unitals.translations``, ...), so a command loads
only what it runs.
"""

__version__ = "0.1.0"
