"""Recurrent-autoencoder context decoding on a small float64 autodiff core.

Three strategies for turning the encoder's fixed-size context vector into a
decoder input sequence (repeat, reshape, convolve-and-transpose) plus a
linear-interpolation fallback, with a benchmark harness that compares their
training speed on synthetic signals.
"""

from .tensor import (
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    matmul,
    mean_all,
    mul,
    reshape,
    sigmoid,
    sub,
    sum_all,
    swap_last_axes,
    tanh_op,
    unstack_steps,
    zero_grads,
)
from .layers import (
    Conv1DLayer,
    DenseLayer,
    GRULayer,
    MaxPool1D,
    conv1d_forward,
    gru_forward,
    init_params,
    maxpool1d_forward,
    time_distributed_dense,
)
from .models import (
    RAE,
    RAES,
    RAESC,
    RAES_STRETCH,
    VARIANT_KINDS,
    AutoencoderModel,
    ContextSpec,
    ModelVariant,
    context_size_from_sigma,
    raes_feasible,
    stretch_context,
    transform_context,
)
from .optim import AdamState, TrainingError, adam_step, mse_loss
from .data import Dataset, SignalConfig, batches, generate_dataset, load_dataset, save_dataset, shuffle_split
from .harness import (
    EpochRecord,
    ExperimentConfig,
    VariantResult,
    median_epoch_time,
    read_records_csv,
    run_experiment,
    train_epoch,
    write_report,
)

__version__ = "0.1.0"
