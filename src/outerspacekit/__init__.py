"""Computing in Culler-Vogtmann Outer Space with the Lipschitz metric."""

from .words import (
    Automorphism,
    CyclicWord,
    InvalidMoveError,
    RankMismatchError,
    Word,
    WhiteheadMove,
    cyclic_reduce,
    verify_inverse,
)
from .whitehead import (
    ReductionTrace,
    WhiteheadGraph,
    cut_analysis,
    is_primitive,
    whitehead_graph,
    whitehead_minimize,
)
from .graphs import (
    CandidateLoop,
    InvalidPointError,
    MarkedMetricGraph,
    MetricGraph,
    enumerate_candidates,
    minimal_model,
    point_from_dict,
    point_to_dict,
    random_point,
    rose,
    tighten_path,
    validate_point,
)
from .metric import (
    DistanceResult,
    LinearMapSpec,
    distance,
    distance_oracle,
    linear_map_lipschitz,
)
from .traintrack import (
    GraphSelfMap,
    LegalityReport,
    NotTrainTrackError,
    TrainTrackMap,
    gates,
    lamination_length_ratio,
    legality_report,
    no_cut_vertex_search,
    pf_metric,
    selfmap_from_dict,
    verify_train_track,
)
from .axes import (
    Axis,
    contraction_experiment,
    divergence_check,
    length_profile,
    project,
    tree_inequality_probe,
    two_axis_report,
)

__version__ = "0.1.0"
