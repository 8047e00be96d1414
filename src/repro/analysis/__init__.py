"""Analysis layer: predictions, verification, experiment harness, tables."""

from .complexity import (
    ComplexityRow,
    censor_hillel_finding_clique,
    dolev_listing_clique,
    drucker_finding_broadcast_lower,
    naive_two_hop_upper,
    pandurangan_listing_clique_lower,
    predicted_round_complexities,
    table1_rows,
    this_paper_finding_congest,
    this_paper_listing_congest,
    this_paper_listing_lower,
)
from .experiments import (
    ExperimentRecord,
    SweepRunner,
    mean_recall,
    run_single,
)
from .fitting import (
    PowerLawFit,
    fit_power_law,
)
from .tables import (
    TABLE1_HEADER,
    Table1Entry,
    render_records_table,
    render_scaling_table,
    render_table,
    render_table1,
)
from .verification import (
    VerificationReport,
    duplication_factor,
    local_listing_complete,
    nodes_reporting_foreign_triangles,
    recall_by_heaviness,
    verify_result,
)

__all__ = [
    "ComplexityRow",
    "censor_hillel_finding_clique",
    "dolev_listing_clique",
    "drucker_finding_broadcast_lower",
    "naive_two_hop_upper",
    "pandurangan_listing_clique_lower",
    "predicted_round_complexities",
    "table1_rows",
    "this_paper_finding_congest",
    "this_paper_listing_congest",
    "this_paper_listing_lower",
    "ExperimentRecord",
    "SweepRunner",
    "mean_recall",
    "run_single",
    "PowerLawFit",
    "fit_power_law",
    "TABLE1_HEADER",
    "Table1Entry",
    "render_records_table",
    "render_scaling_table",
    "render_table",
    "render_table1",
    "VerificationReport",
    "duplication_factor",
    "local_listing_complete",
    "nodes_reporting_foreign_triangles",
    "recall_by_heaviness",
    "verify_result",
]
