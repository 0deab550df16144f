"""Linear-complexity non-local attention via positive random features,
with amplified sparse aggregation, a contrastive separation loss, an
exact-attention oracle, and the cost model tying it together."""

from .analysis import (
    FlopModel,
    SweepTable,
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    flop_table,
    runtime_scaling,
    variance_sweep_k,
    write_sweep_csv,
)
from .contrastive import (
    ContrastiveConfig,
    contrastive_loss,
    reconstruction_loss,
    relevance_scores,
    total_loss,
)
from .enla import (
    EnlaConfig,
    EnlcaBlockParams,
    NormalizerUnderflowWarning,
    enla_forward,
    enlca_block,
    normalize_and_scale,
    random_block_params,
)
from .exact import (
    AttentionOutput,
    attention_row_entropies,
    correlation_map,
    exact_attention,
    shannon_entropy,
)
from .features import (
    PhiFeatures,
    ProjectionMatrix,
    VarianceReport,
    kernel_estimates,
    kernel_exact,
    kernel_variance_empirical,
    kernel_variance_theory,
    phi,
    sample_projection,
)
from .matrices import (
    FormatError,
    NumericError,
    RngSpec,
    ShapeError,
    as_matrix,
    as_vector,
    gaussian_sample,
    normalize_columns,
    read_matrix_binary,
    read_matrix_csv,
    write_matrix_binary,
    write_matrix_csv,
)
from .pgm import export_correlation_pgm

__version__ = "0.1.0"
