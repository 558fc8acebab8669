"""degex: minimum l-degree statistics and extraction for r-uniform hypergraphs.

Library surface:

  combinatorics     exact binomials, colex (un)ranking, k-subset sampling
  hypergraph        the immutable Hypergraph type and .hg text I/O
  degree            degree tables, delta_l, eps-relaxed delta_l, poor sets
  extraction        theorem parameters, random/exhaustive extraction, audits
  generators        complete / Erdos-Renyi graphs, partition deletion
  quasirandomness   exact (1,2) and (1,1,1) discrepancies with witnesses

The `degex` console script exposes all of it; see README.md.
"""

from .combinatorics import (
    SubsetId,
    binom,
    colex_rank,
    colex_unrank,
    ksubsets,
    random_ksubset,
)
from .degree import (
    DegreeTable,
    PoorSetReport,
    degree_of,
    degree_table,
    eps_exceptions,
    eps_min_degree,
    kth_min_degree,
    min_degree,
    poor_sets,
    table_poor_sets,
)
from .errors import DegexError, FormatError, LimitExceeded, ValidationError
from .extraction import (
    AuditReport,
    ExhaustiveExtraction,
    ExtractionReport,
    TheoremParams,
    audit_bad_total,
    audit_eq2_phi,
    audit_eq3,
    extract_exhaustive,
    extract_random,
    theorem_params,
)
from .generators import (
    PartitionSpec,
    balanced_partition,
    complete,
    deletion_bound,
    erdos_renyi,
    partition_deletion,
)
from .hypergraph import Hypergraph, InducedMap, build, dump, load, parse, serialize
from .quasirandomness import (
    DiscrepancyReport,
    QrImplicationVerdict,
    check_qr_codegree_implication,
    deviation_111_exact,
    deviation_12_exact,
    deviation_12_sampled,
    e111,
    e12,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "DegexError",
    "DegreeTable",
    "DiscrepancyReport",
    "ExhaustiveExtraction",
    "ExtractionReport",
    "FormatError",
    "Hypergraph",
    "InducedMap",
    "LimitExceeded",
    "PartitionSpec",
    "PoorSetReport",
    "QrImplicationVerdict",
    "SubsetId",
    "TheoremParams",
    "ValidationError",
    "audit_bad_total",
    "audit_eq2_phi",
    "audit_eq3",
    "balanced_partition",
    "binom",
    "build",
    "check_qr_codegree_implication",
    "colex_rank",
    "colex_unrank",
    "complete",
    "degree_of",
    "degree_table",
    "deletion_bound",
    "deviation_111_exact",
    "deviation_12_exact",
    "deviation_12_sampled",
    "dump",
    "e111",
    "e12",
    "eps_exceptions",
    "eps_min_degree",
    "erdos_renyi",
    "extract_exhaustive",
    "extract_random",
    "kth_min_degree",
    "ksubsets",
    "load",
    "min_degree",
    "parse",
    "partition_deletion",
    "poor_sets",
    "random_ksubset",
    "serialize",
    "table_poor_sets",
    "theorem_params",
]
