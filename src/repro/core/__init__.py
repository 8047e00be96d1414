"""The paper's contribution: distributed triangle finding and listing.

This package contains the three component algorithms (A1, A2, A3 /
``A(X, r)``), their compositions into the Theorem-1 finding and Theorem-2
listing algorithms, the baselines they are compared against, and the
lower-bound accounting machinery of Section 4.
"""

from .a1_sampling import HeavySamplingFinder
from .a2_heavy import HeavyHashingLister
from .a3_light import LightTrianglesLister, run_axr
from .base import TriangleAlgorithm, combine_results
from .baselines import LocalListing, NaiveTwoHopListing, naive_round_bound
from .clique_dolev import DolevCliqueListing, dolev_round_bound
from .counting import CountingResult, TriangleCounting
from .finding import TriangleFinding, theorem1_round_bound
from .listing import TriangleListing, theorem2_round_bound
from .lower_bounds import (
    InformationAccounting,
    account_information,
    expected_triangles_gnp_half,
    node_receive_capacity_bits,
    proposition5_information_bound,
    proposition5_round_lower_bound,
    theorem3_information_bound,
    theorem3_round_lower_bound,
)
from .output import AlgorithmResult, TriangleOutput
from .parameters import (
    FindingParameters,
    ListingParameters,
    a1_sample_cap,
    a1_sampling_probability,
    a2_edge_set_cap,
    a2_hash_range,
    a3_goodness_threshold,
    a3_landmark_probability,
    a3_round_budget,
    finding_epsilon,
    finding_epsilon_asymptotic,
    finding_repetitions,
    heaviness_threshold_finding,
    heaviness_threshold_listing,
    listing_epsilon,
    listing_epsilon_asymptotic,
    listing_repetitions,
)

__all__ = [
    "HeavySamplingFinder",
    "HeavyHashingLister",
    "LightTrianglesLister",
    "run_axr",
    "TriangleAlgorithm",
    "combine_results",
    "LocalListing",
    "NaiveTwoHopListing",
    "naive_round_bound",
    "DolevCliqueListing",
    "dolev_round_bound",
    "CountingResult",
    "TriangleCounting",
    "TriangleFinding",
    "theorem1_round_bound",
    "TriangleListing",
    "theorem2_round_bound",
    "InformationAccounting",
    "account_information",
    "expected_triangles_gnp_half",
    "node_receive_capacity_bits",
    "proposition5_information_bound",
    "proposition5_round_lower_bound",
    "theorem3_information_bound",
    "theorem3_round_lower_bound",
    "AlgorithmResult",
    "TriangleOutput",
    "FindingParameters",
    "ListingParameters",
    "a1_sample_cap",
    "a1_sampling_probability",
    "a2_edge_set_cap",
    "a2_hash_range",
    "a3_goodness_threshold",
    "a3_landmark_probability",
    "a3_round_budget",
    "finding_epsilon",
    "finding_epsilon_asymptotic",
    "finding_repetitions",
    "heaviness_threshold_finding",
    "heaviness_threshold_listing",
    "listing_epsilon",
    "listing_epsilon_asymptotic",
    "listing_repetitions",
]
