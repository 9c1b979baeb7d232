"""Class-incremental learning on frozen feature embeddings.

Each session gets a small trainable module (residual adapter composed with a
multiplicative calibrator) and a linear head; inference routes every sample
to the session whose softmax output has the least Shannon entropy.  The
package also ships the standard baselines, a synthetic Gaussian benchmark,
binary containers for features and module banks, and a CLI (``tosca``).
"""

from .data import (FeatureDataset, SplitPlan, load_features, make_splits,
                   save_features, synth_gaussian)
from .engine import (METHODS, BankEntry, ModuleBank, Prediction,
                     ScenarioConfig, ScenarioReport, StageEval,
                     entry_checksum, evaluate_stage, feature_shift, load_bank,
                     module_orthogonality, predict, predict_batch,
                     run_scenario, save_bank, train_session)
from .heads import (PrototypeBank, SessionHead, build_prototypes, extend_head,
                    head_forward, make_head, prototype_classify_batch)
from .luca import (LucaConfig, LucaModule, gradient_check, init_luca, l1_norm,
                   layerwise_adapter_count, luca_forward, param_count,
                   sparsity_ratio)
from .numerics import activation, activation_grad, softmax_rows
from .optim import (OptimConfig, cosine_lr, sgd_l1_step, soft_threshold,
                    train_epochs)
from .report import emit_plot, emit_report, load_report
from .rng import Xoshiro256StarStar, derive_seeds, splitmix64

__version__ = "0.1.0"

__all__ = [
    "FeatureDataset", "SplitPlan", "load_features", "make_splits",
    "save_features", "synth_gaussian",
    "METHODS", "BankEntry", "ModuleBank", "Prediction", "ScenarioConfig",
    "ScenarioReport", "StageEval", "entry_checksum", "evaluate_stage",
    "feature_shift", "load_bank", "module_orthogonality", "predict",
    "predict_batch", "run_scenario", "save_bank", "train_session",
    "PrototypeBank", "SessionHead", "build_prototypes", "extend_head",
    "head_forward", "make_head", "prototype_classify_batch",
    "LucaConfig", "LucaModule", "gradient_check", "init_luca", "l1_norm",
    "layerwise_adapter_count", "luca_forward", "param_count",
    "sparsity_ratio",
    "activation", "activation_grad", "softmax_rows",
    "OptimConfig", "cosine_lr", "sgd_l1_step", "soft_threshold",
    "train_epochs",
    "emit_plot", "emit_report", "load_report",
    "Xoshiro256StarStar", "derive_seeds", "splitmix64",
    "__version__",
]
