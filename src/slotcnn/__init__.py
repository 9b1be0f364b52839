"""slotcnn: compile CNN models to slot-parallel ciphertext schedules and run
them on an exact leveled-SIMD simulator, verified against a plaintext oracle.
"""

from .errors import (
    CapacityExceeded,
    FootprintOverflow,
    LevelExhausted,
    NonDivisibleDims,
    NonFiniteInput,
    NotFlattened,
    OversizedInput,
    PaddingUnsupported,
    ParseError,
    ShapeMismatch,
    SlotCnnError,
    SlotMismatch,
    TargetAboveCurrent,
    UnknownModel,
)
from .he_backend import DEFAULT_PARAMS, Backend, CipherVector, HEParams, OpCounter, PlainVector
from .layers import (
    FC,
    RELU_COEFFS,
    ApproxReLU,
    AvgPool2d,
    CipherState,
    Conv1d,
    Conv2d,
    Flatten,
    Layer,
    LayoutState,
    Square,
    apply_layer,
    drop_level,
    valid_positions,
)
from .model import (
    LayerTrace,
    ModelSpec,
    ValidationReport,
    builtin,
    builtin_names,
    load_model,
    model_from_dict,
    model_to_dict,
    reference_infer,
    slot_sizes,
    trace_layout,
    validate,
)
from .packing import PackPlan, batch_pack, flatten_input, footprint
from .engine import (
    CostModel,
    LayerMetrics,
    LevelAlignment,
    OpMetrics,
    estimate_cost,
    infer,
    ledger_metrics,
    run_inference,
    verify_against_oracle,
)

__version__ = "0.1.0"
