"""Exact excedance statistics and distributions on colored permutation groups.

The group Z_r wr S_n of r-colored permutations is handled three ways:

* brute force: enumerate the group and tally statistics (oracle),
* recursion: insertion DPs for the joint and marginal distributions (dist),
* closed form: Stirling-number expansions of the generating polynomial
  of exc_A and an explicit coefficient formula (closed).

All three must agree exactly; the properties module and the ``colorperm
check`` command verify that and the structural facts (the decomposition
exc = r*exc_A + csum, the palindromic exc distribution with its
complementing involution, log-concavity of the exc_A distribution).

The package exports the seven names below; everything else is imported
from its submodule.
"""

from .closed import D_closed
from .dist import excA_dist, joint_table
from .oracle import brute_tables, compare
from .perm import parse_window
from .stats import summarize

__version__ = "0.1.0"

__all__ = [
    "D_closed",
    "brute_tables",
    "compare",
    "excA_dist",
    "joint_table",
    "parse_window",
    "summarize",
]
