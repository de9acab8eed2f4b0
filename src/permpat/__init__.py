"""Pattern-avoiding permutation toolkit.

Core objects are plain tuples in one-line notation (values 1..n) and
frozensets of them as pattern sets.  The public surface:

* :mod:`permpat.perms` - containment, standardization, literals;
* :mod:`permpat.symmetry` - reversal/inverse orbits of pattern sets;
* :mod:`permpat.enumeration` - the pruned backtracking counting oracle;
* :mod:`permpat.lifting` - lifting patterns one letter longer, redundancy;
* :mod:`permpat.formulas` - exact closed forms for avoider counts;
* :mod:`permpat.catalog` - the classification tables and their verifier;
* :mod:`permpat.cli` - the ``permpat`` command.
"""

from .enumeration import (
    CountTable,
    count_avoiders,
    count_table,
    count_tables,
    enumerate_avoiders,
)
from .lifting import NuImage, is_redundant, lift, lift_power, pattern_words, superpatterns
from .perms import (
    PatternSyntaxError,
    avoids_all,
    contains,
    find_occurrence,
    format_pattern_set,
    format_permutation,
    is_order_isomorphic,
    parse_pattern_set,
    parse_permutation,
    standardize,
)
from .symmetry import SymmetryOrbit, apply_op, apply_set, inverse, orbit, partition_into_classes, reverse

__all__ = [
    "CountTable",
    "NuImage",
    "PatternSyntaxError",
    "SymmetryOrbit",
    "apply_op",
    "apply_set",
    "avoids_all",
    "contains",
    "count_avoiders",
    "count_table",
    "count_tables",
    "enumerate_avoiders",
    "find_occurrence",
    "format_pattern_set",
    "format_permutation",
    "inverse",
    "is_order_isomorphic",
    "is_redundant",
    "lift",
    "lift_power",
    "orbit",
    "parse_pattern_set",
    "parse_permutation",
    "partition_into_classes",
    "pattern_words",
    "reverse",
    "standardize",
    "superpatterns",
]

__version__ = "0.1.0"
