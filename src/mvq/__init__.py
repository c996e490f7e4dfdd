"""Exact computation of Masur-Veech volumes of moduli spaces of quadratic
differentials, area Siegel-Veech constants, multicurve frequencies and
square-tiled surface statistics from psi-class intersection numbers.

Volumes and their per-cylinder parts come from a recursion on one marked
edge of the stable-graph Feynman sum, with no graph in it; the stable-graph
catalog serves per-graph breakdowns, the graph-sum Siegel-Veech route and
the lattice oracle, and checks the recursion.  ``import mvq`` loads no layer:
each name is imported from its module, as ``from mvq.cli import main``."""

__version__ = "0.1.0"
