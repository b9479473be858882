"""Simulator for two-crystal induced-coherence single-photon interference.

Builds the cascade of two parametric down-converters sharing an idler mode,
predicts singles and coincidence fringes against pump and signal delays,
Monte-Carlo samples photon counts, and fits fringe parameters back out.
Each name is imported from its submodule (``icohsim.config``,
``icohsim.scan``, ``icohsim.cli``, ...).
"""

__version__ = "0.1.0"
