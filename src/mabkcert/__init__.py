"""MABK Bell expressions on GHZ states, with certified moment-hierarchy bounds.

Layers, bottom up: the GHZ stabilizer expansion in closed form (`stabilizer`,
read by the tests' stabilizer-sum oracle and by the benchmark's warm-up, never
by a command; the dense-matrix oracles live in the tests), MABK Bell
expressions with dyadic coefficients (`mabk`), the one GHZ product-correlator
function, Bell values and bounds (`correlators`), multi-start Bloch-vector
optimization (`blochopt`), the moment-matrix relaxation (`npa`), a small
interior-point LMI solver with dual certificates (`sdp`), and a CLI (`cli`).
Import the submodules directly.
"""

__version__ = "0.1.0"
