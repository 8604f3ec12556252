"""Anchor matching metrics, label assignment, and pyramid contrast losses.

The library has three layers: box geometry and anchor grids (geometry),
the pairwise similarity metric with its dataset normalizers and the
threshold assigner built on it (similarity, assigner), and the contrastive
losses over pyramid embeddings with a deterministic toy pyramid to drive
them (contrast, pyramid). COCO-style ingestion and the CLI live in
dataset and cli.
"""

from .assigner import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AssignResult,
    AssignThresholds,
    BucketStats,
    ImageCounts,
    Metric,
    StatsReport,
    assign,
    assign_with_metric,
    assignment_stats,
    check_bucket_edges,
    count_with_metric,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
)
from .contrast import (
    ContrastConfig,
    ContrastGradients,
    EmbeddingBatch,
    GradientCheckResult,
    LossComponents,
    contrast_grad,
    gradient_check,
    info_nce,
    info_nce_grad,
    semantic_loss,
    spatial_loss,
    total_loss,
)
from .dataset import (
    DatasetError,
    DatasetIndex,
    dataset_hash,
    load_coco,
)
from .geometry import (
    AnchorGridSpec,
    AnchorSet,
    Box,
    boxes_to_array,
    from_topleft,
    generate_anchors,
    iou,
    iou_matrix,
    make_box,
)
from .pyramid import (
    FeatureMap,
    ToyPyramidConfig,
    build_embedding_batch,
    encode,
    fuse_topdown,
    synth_pyramid,
)
from .similarity import (
    DatasetNormalizers,
    EmptyDatasetError,
    NormalizerAccumulator,
    NormalizerCache,
    accumulate,
    finalize,
    load_normalizer_cache,
    pairwise_similarity,
    position_similarity,
    ps_matrix,
    save_normalizer_cache,
    shape_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Box",
    "AnchorGridSpec",
    "AnchorSet",
    "make_box",
    "from_topleft",
    "boxes_to_array",
    "iou",
    "iou_matrix",
    "generate_anchors",
    # similarity
    "DatasetNormalizers",
    "NormalizerAccumulator",
    "NormalizerCache",
    "EmptyDatasetError",
    "position_similarity",
    "shape_similarity",
    "pairwise_similarity",
    "ps_matrix",
    "accumulate",
    "finalize",
    "save_normalizer_cache",
    "load_normalizer_cache",
    # assigner
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "Metric",
    "AssignThresholds",
    "AssignResult",
    "ImageCounts",
    "BucketStats",
    "StatsReport",
    "assign",
    "assign_with_metric",
    "count_with_metric",
    "assignment_stats",
    "check_bucket_edges",
    "report_to_dict",
    "reports_to_json",
    "reports_to_csv",
    # contrast
    "EmbeddingBatch",
    "ContrastConfig",
    "LossComponents",
    "ContrastGradients",
    "GradientCheckResult",
    "info_nce",
    "info_nce_grad",
    "spatial_loss",
    "semantic_loss",
    "contrast_grad",
    "total_loss",
    "gradient_check",
    # pyramid
    "FeatureMap",
    "ToyPyramidConfig",
    "synth_pyramid",
    "fuse_topdown",
    "encode",
    "build_embedding_batch",
    # dataset
    "DatasetError",
    "DatasetIndex",
    "load_coco",
    "dataset_hash",
]
