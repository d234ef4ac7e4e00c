"""benchlens: benchmark suite characterization from hardware counters."""

from .cluster import Dendrogram, build_dendrogram, cut, cut_to_groups, medoid
from .compare import SuiteComparison, compare_suites, instruction_volume_ratio
from .dataset import (
    CounterMap,
    Store,
    load_counter_maps,
    merge_into,
    parse_counter_file,
    read_store,
    save_canonical,
    validate_store,
)
from .features import FeatureMatrix, build_matrix, normalize
from .metrics import Metrics, MetricVector, derive_store
from .pca import PcaModel, fit_pca, loading_table, project
from .proxy import (
    BlendProfile,
    RrrSchedule,
    WorkloadProfile,
    blend_distance,
    search_mix,
    simulate_rrr,
)
from .subset import SubsetReport, evaluate_subset, oracle_best_subset, select_representatives

__version__ = "0.1.0"

__all__ = [
    "BlendProfile",
    "CounterMap",
    "Dendrogram",
    "FeatureMatrix",
    "Metrics",
    "MetricVector",
    "PcaModel",
    "RrrSchedule",
    "Store",
    "SubsetReport",
    "SuiteComparison",
    "WorkloadProfile",
    "blend_distance",
    "build_dendrogram",
    "build_matrix",
    "compare_suites",
    "cut",
    "cut_to_groups",
    "derive_store",
    "evaluate_subset",
    "fit_pca",
    "instruction_volume_ratio",
    "load_counter_maps",
    "loading_table",
    "medoid",
    "merge_into",
    "normalize",
    "oracle_best_subset",
    "parse_counter_file",
    "project",
    "read_store",
    "save_canonical",
    "search_mix",
    "select_representatives",
    "simulate_rrr",
    "validate_store",
]
