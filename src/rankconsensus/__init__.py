"""Set-wise consensus measures of rankings.

The package measures how much a set of rankings agrees by counting, with
optional weights, the ordered item sequences the rankings share. The
count is organized by sequence length: kappa_p covers the sequences of
length p, ell is the last length the series kept, and kappa is the grand
total. One walk over the rankings finds, for each item common to all of
them, the common items that every ranking puts strictly before it, as a
bit mask. That walk gives a ``Survey``: the rankings, the reference
index, the masks and the common flags. Every measure of an input reads
one survey of it, the duplicate-aware ``kappa_dup`` included, which
reads the distinct set from the same masks. The series comes from these
masks in integer arithmetic: a chain's weight telescopes to a start
weight of its first item times an end weight of its last, so the
weighted terms are exact sums of rounded weights, and the exact counts
are the same pass with every weight 1.
Only ``kappa_total_closed`` reads a lower triangular matrix, built from
``Survey.edges``, the masks' pairs listed as (i, j, gap) triples. An
independent enumeration oracle is included for cross-checking on small
inputs.
"""
from .baselines import (
    Aggregate,
    Baseline,
    UnsupportedRankingError,
    kendall_distance,
    kendall_tau,
    pairwise_aggregate,
    pairwise_index,
    spearman_footrule,
    spearman_rho,
)
from .graph import (
    ConsensusMatrix,
    Deviation,
    MeasureParams,
    Survey,
    survey,
)
from .io import (
    Dataset,
    ParseError,
    RankingDocument,
    RawRanking,
    load_dataset,
    load_reference_sweep,
    parse_json,
    parse_text,
    write_results,
)
from .measures import (
    KappaProfile,
    SweepPoint,
    kappa1_topk,
    kappa_dup,
    kappa_series,
    kappa_sweep,
    kappa_total_closed,
    measure,
)
from .model import (
    Ranking,
    RankingSet,
    ValidationError,
)
from .oracle import (
    SIZE_GUARD,
    CommonSubsequence,
    SizeLimitError,
    enumerate_common,
    oracle_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "Baseline",
    "CommonSubsequence",
    "ConsensusMatrix",
    "Dataset",
    "Deviation",
    "KappaProfile",
    "MeasureParams",
    "ParseError",
    "Ranking",
    "RankingDocument",
    "RankingSet",
    "RawRanking",
    "SIZE_GUARD",
    "SizeLimitError",
    "Survey",
    "SweepPoint",
    "UnsupportedRankingError",
    "ValidationError",
    "enumerate_common",
    "kappa1_topk",
    "kappa_dup",
    "kappa_series",
    "kappa_sweep",
    "kappa_total_closed",
    "kendall_distance",
    "kendall_tau",
    "load_dataset",
    "load_reference_sweep",
    "measure",
    "oracle_profile",
    "pairwise_aggregate",
    "pairwise_index",
    "parse_json",
    "parse_text",
    "spearman_footrule",
    "spearman_rho",
    "survey",
    "write_results",
]
