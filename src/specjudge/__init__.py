"""Lossy speculative decoding with a learned token-importance judge.

The pipeline: generate reference responses with a target model, mine the
positions where a draft model disagrees, label each disagreement by
whether swapping it in changes the final answer, train a logistic
classifier on the hidden states at those positions, and use it to keep
harmless draft tokens during speculative decoding.
"""

from .lm import DataError, LanguageModel, LmOutput, TokenSequence, Vocab
from .sampling import RandomState, gumbel_noise
from .toymodels import NGramModel, PerturbSpec, ScriptedModel, make_draft, train_ngram
from .tasks import Task, answers_equivalent, build_vocab, extract_answer, gen_arithmetic_task
from .mining import MiningConfig, MismatchRecord, mine_important, mine_naive
from .judge import FeatureConfig, JudgeModel, calibrate_threshold, grid_search_C, predict_importance, train_logreg
from .engine import (CycleStats, EngineConfig, JudgePolicy, LosslessPolicy,
                     TopKPolicy, accepted_per_cycle, spec_decode)
from .trace import Trace, load_trace, record_trace, save_trace
from .remote import ProtocolError, RemoteEndpoint, RemoteError, remote_generate

__version__ = "0.1.0"
