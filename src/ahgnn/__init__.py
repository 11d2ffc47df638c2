"""Adaptive heterogeneous graph learning under heterophily.

Library layout:

    sparse      CSR relation matrices and degree normalization
    graph       heterogeneous graph container + dataset directory I/O
    metapath    meta-path enumeration, induced adjacency, homophily
    propagate   precomputed multi-hop feature/label messages + cache
    autodiff    minimal reverse-mode engine over numpy
    model       adaptive hop mixing + coarse-to-fine attention fusion
    train       Adam, diversity-regularized loss, F1, training loop
    synth       toy generator and homophily-targeted rewiring
    spectral    low-pass filter verification on the normalized spectrum
    cli         the `ahgnn` command
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, grad_check
from .graph import HeteroGraph, Schema, load_dataset, save_dataset
from .metapath import (MetaPath, build_homophily_report, enumerate_metapaths,
                       global_homophily, graph_homophily, induced_adjacency,
                       local_homophily)
from .model import ModelParams, init_gamma, init_model_params, model_forward
from .propagate import MessageCache, build_cache, read_cache, write_cache
from .sparse import SparseMatrix, normalize_relation, spmm, spspmm
from .spectral import filter_response, spectrum, verify_lowpass
from .synth import RewireSpec, ToySpec, generate_toy, rewire_to_homophily
# `train` (the function) stays in ahgnn.train: re-exporting it here would
# rebind the package attribute ahgnn.train from the submodule to it.
from .train import Adam, Metrics, TrainConfig, evaluate

__all__ = [
    "Tape", "Tensor", "grad_check",
    "HeteroGraph", "Schema", "load_dataset", "save_dataset",
    "MetaPath", "build_homophily_report", "enumerate_metapaths",
    "global_homophily", "graph_homophily", "induced_adjacency",
    "local_homophily",
    "ModelParams", "init_gamma", "init_model_params", "model_forward",
    "MessageCache", "build_cache", "read_cache", "write_cache",
    "SparseMatrix", "normalize_relation", "spmm", "spspmm",
    "filter_response", "spectrum", "verify_lowpass",
    "RewireSpec", "ToySpec", "generate_toy", "rewire_to_homophily",
    "Adam", "Metrics", "TrainConfig", "evaluate",
]
