"""Progressive supervision on decomposed labels for node-series forecasting.

The library decomposes forecasting labels into easier components (mean,
variance, residual, or trend, seasonal, remainder), supervises a shallow
head per component, and learns a combinator that assembles the final
forecast. Large node sets train through random disjoint subgraph
partitions. The forecast is per node: the graph is validated but does not
change it. A Monte-Carlo harness verifies the Horvitz-Thompson neighbor
aggregation on random graphs, not the training gradient.
"""

__version__ = "0.1.0"

from .dataset import (
    NormStats,
    SeriesStore,
    apply_norm,
    fit_norm_stats,
    generate_synthetic,
    load_csv,
    restrict_time,
    save_adjacency_csv,
    save_csv,
    split_ranges,
)
from .decomposition import (
    ComponentBundle,
    MvdConfig,
    StlConfig,
    decompose,
    make_config,
    moving_average,
    mvd_decompose,
    mvd_recombine,
    recombine,
    stl_decompose,
    stl_recombine,
)
from .exceptions import (
    CheckpointError,
    FormatError,
    NumericError,
    ParseError,
    PsldError,
    ShapeError,
)
from .model import (
    AdamState,
    PlainParams,
    PsldParams,
    adam_step,
    finite_difference_check,
    forward,
    init_params,
    init_plain_params,
    load_checkpoint,
    loss_and_backward,
    merge_params,
    predict,
    save_checkpoint,
)
from .numerics import Rng
from .sampler import (
    GraphSpec,
    McReport,
    SampleDesign,
    SubgraphBatch,
    random_graph,
    rss_partition,
    unbiasedness_mc_check,
)
from .training import (
    EpochReport,
    TrainConfig,
    baseline_last_value,
    baseline_plain_mlp,
    evaluate,
    prepare_store,
    train,
)
