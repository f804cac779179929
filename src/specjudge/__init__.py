"""Lossy speculative decoding with a learned token-importance judge.

The pipeline: generate reference responses with a target model, mine the
positions where a draft model disagrees, label each disagreement by
whether swapping it in changes the final answer, train a logistic
classifier on the hidden states at those positions, and use it to keep
harmless draft tokens during speculative decoding.
"""

__version__ = "0.1.0"
