"""Cycle-level model of zero-skipping convolution accelerators.

The package splits into layers that can be used independently:

- `tensor`: int16 activation/filter containers, layer geometry, bricks
- `sparsity`: ineffectuality criteria and the mask algebra behind skipping
- `encodings`: ZFNAf / RoE / VIAI / CVIAI containers with exact bit accounting
- `dispatch`: per-lane offset streaming and cycle-accurate brick timing
- `sim`: whole-layer runs for the baseline, cnv, and cnv2 machines
- `workloads`: seeded synthetic layers plus the .layer/.json file format
- `cli`: the sparse-accel-sim command
"""

from .errors import (BadMagicError, BoundsError, ConfigurationError, FormatError,
                     SparseAccelError, TruncatedError, ValidationError, VersionError)
from .tensor import (ActTensor, Brick, FilterSet, LayerConfig, brick_at, conv3d,
                     dense_conv, pad_depth)
from .sparsity import (GroupScope, IneffCriterion, ZERO, can_skip, effectual_mask,
                       is_product, is_vector, mask_from_string, mask_to_string)
from .encodings import (CviaiStore, Format, FootprintReport, RoeBrick, RoeStore,
                        ViaiBrick, ViaiStore, ZfnafBrick, ZfnafStore,
                        decode_zfnaf, deserialize_store, encode_cviai, encode_roe,
                        encode_store, encode_zfnaf, encode_viai, decode_viai,
                        decode_roe, footprint_bits, offset_bits_for,
                        pointer_bits_for)
from .dispatch import (DispatchEvent, DispatchRun, EmptyBrickCost,
                       RawDispatchSource, SyncPolicy, format_trace, run_dispatch,
                       stream_brick, write_trace)
from .sim import (CycleReport, TileConfig, run_arch, run_baseline, run_cnv, run_cnv2,
                  weight_product_table)
from .workloads import (LayerData, SyntheticSpec, gen_synthetic, load_layer,
                        save_layer)

__version__ = "0.1.0"

__all__ = [
    "ActTensor", "BadMagicError", "BoundsError",
    "Brick", "ConfigurationError", "CviaiStore", "CycleReport", "DispatchEvent",
    "DispatchRun", "EmptyBrickCost", "FilterSet", "Format", "FormatError",
    "FootprintReport", "GroupScope", "IneffCriterion", "LayerConfig", "LayerData",
    "RawDispatchSource", "RoeBrick", "RoeStore", "SparseAccelError", "SyncPolicy",
    "SyntheticSpec", "TileConfig", "TruncatedError", "ValidationError",
    "VersionError", "ViaiBrick", "ViaiStore", "ZERO",
    "ZfnafBrick", "ZfnafStore", "brick_at", "can_skip", "conv3d", "decode_roe",
    "decode_viai", "decode_zfnaf", "dense_conv", "deserialize_store",
    "effectual_mask", "encode_cviai", "encode_roe",
    "encode_store", "encode_viai", "encode_zfnaf", "footprint_bits",
    "format_trace", "gen_synthetic", "is_product", "is_vector", "load_layer",
    "mask_from_string", "mask_to_string", "offset_bits_for", "pad_depth",
    "pointer_bits_for", "run_arch", "run_baseline", "run_cnv", "run_cnv2",
    "run_dispatch", "save_layer", "stream_brick", "weight_product_table",
    "write_trace",
]
