"""Sparse matmul kernel stack and decoupled-accelerator simulator.

Layers, bottom up:

* matio   -- matrix formats (COO/CSR/CSC and the aligned 5-array variant),
             Matrix Market and edge-list I/O, power-law generation
* oracle  -- ground-truth kernels, the symbolic contribution pass, bloat
             accounting, scratchpad window planning, GCN-layer workloads
* smash   -- the host hashing kernel (base/v1/v2/v3) and its virtual-worker audit
* isa     -- tile-multiply / hash-accumulate instructions, lowering,
             functional replay, trace files
* mapping -- work-to-unit mapping strategies and uniformity statistics
* uarch   -- structural models: cores, hash-memory units, torus routers,
             memory controllers, chip configurations
* engine  -- the deterministic cycle-driven simulation kernel
* cli     -- the ``sparsim`` command-line front end
"""

from .errors import SparsimError
from .matio import (
    CooMatrix,
    CscMatrix,
    CsrMatrix,
    MapCsrMatrix,
    RmatParams,
    build_map_csr,
    generate_rmat,
    load_matrix,
    parse_matrix_market,
    replication_ratio,
    to_csc,
    to_csr,
    to_dense,
    write_matrix_market,
)
from .oracle import (
    BloatReport,
    SymbolicPlan,
    WindowPlan,
    bloat_report,
    gcn_layer_workload,
    plan_windows,
    spgemm_dense_oracle,
    spgemm_gustavson,
    symbolic_pass,
)
from .smash import SmashAudit, SmashConfig, smash_spgemm
from .isa import (
    HaccInstr,
    Mmh4Instr,
    Program,
    TagLayout,
    decode_tag,
    encode_tag,
    expand_mmh4,
    lower_spgemm,
    read_trace,
    replay,
    write_trace,
)
from .mapping import LoadHistogram, Mapper, MapperConfig, load_stats
from .uarch import ChipConfig, MemChannelModel, TileConfig, build_chip, named_chip
from .engine import SimRun, SimStats, run_spgemm_simulation

__version__ = "0.1.0"

__all__ = [
    "SparsimError",
    "CooMatrix", "CsrMatrix", "CscMatrix", "MapCsrMatrix", "RmatParams",
    "parse_matrix_market", "write_matrix_market", "load_matrix",
    "to_csr", "to_csc", "to_dense", "build_map_csr", "replication_ratio",
    "generate_rmat",
    "SymbolicPlan", "WindowPlan", "BloatReport",
    "spgemm_dense_oracle", "spgemm_gustavson", "symbolic_pass",
    "bloat_report", "plan_windows", "gcn_layer_workload",
    "SmashConfig", "SmashAudit", "smash_spgemm",
    "Mmh4Instr", "HaccInstr", "TagLayout", "Program",
    "encode_tag", "decode_tag", "expand_mmh4", "lower_spgemm", "replay",
    "write_trace", "read_trace",
    "Mapper", "MapperConfig", "LoadHistogram", "load_stats",
    "TileConfig", "ChipConfig", "MemChannelModel", "build_chip", "named_chip",
    "SimRun", "SimStats", "run_spgemm_simulation",
    "__version__",
]
