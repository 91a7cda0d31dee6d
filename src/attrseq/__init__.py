"""Siamese metric learning and one-shot classification for attributed sequences."""

from .kernel import Rng
from .data import (
    AttributedSequence,
    DataFormatError,
    DatasetMeta,
    EncodedInstance,
    Triplet,
    encode,
    encode_labeled,
    encode_triplets,
    generate_synthetic,
    load_jsonl,
    read_records,
    sample_triplets,
    split_by_class,
    standardize_attributes,
    write_jsonl,
    write_meta,
)
from .encoder import ModelConfig, ModelParams, ForwardTrace, embed_instances, init_params, omega_forward
from .gradients import (
    DISTANCE_KINDS,
    GRAD_MODES,
    backward_pair,
    contrastive_loss,
    distance,
    dloss_ddistance,
    finite_diff_grads,
    gradcheck_suite,
    pair_loss,
)
from .training import TrainConfig, TrainReport, train, save_checkpoint, load_checkpoint
from .episodes import Episode, EvalReport, build_episode, classify, evaluate

__version__ = "0.1.0"
