"""Spectra of randomly perturbed banded Toeplitz matrices.

Library + CLI for studying how vanishing random perturbations regularize the
spectrum of finitely banded Toeplitz matrices toward the symbol's curve
measure: root-geometry classification of the complex plane, determinant
identities and corner expansions, noise ensembles, and reproducible
experiment runners.  The test suite checks every kernel against an
independent route.

A public name is declared once, in its layer module's ``__all__``; the
package exports the union of those lists.
"""

from . import expansion, harness, linalg, noise, symbol, toeplitz
from .expansion import *  # noqa: F403
from .harness import *  # noqa: F403
from .linalg import *  # noqa: F403
from .noise import *  # noqa: F403
from .symbol import *  # noqa: F403
from .toeplitz import *  # noqa: F403

__version__ = "0.1.0"

_LAYERS = (symbol, linalg, toeplitz, noise, expansion, harness)

__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
