"""Sequential netlist learning toolkit."""

__version__ = "0.1.0"

from .circuit import (CircuitBuilder, CircuitError, CircuitGraph, GenSpec,
                      NodeKind, generate, isomorphic, random_spec, validate)
from .aiger import emit_aiger, parse_aiger
from .bench import parse_bench
from .simulate import (SimConfig, SimStats, Workload, exhaustive_stats,
                       markov_params, simulate)
from .labels import (LabelSet, build_labelset, ff_pair_eligible, ff_similarity,
                     reconvergence_pairs, sample_f_pairs)
from .model import (CircuitRecord, ModelConfig, TrainConfig, evaluate,
                    init_embeddings, init_params, train)
from .power import PowerConfig, export_saif, power_estimate, read_saif
from .reliability import FaultConfig, FlipLabels, reliability_labels
