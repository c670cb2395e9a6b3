"""Hierarchical alignment of comparable corpora.

Mines pseudo-parallel sentence pairs in two stages: document-level nearest
neighbor retrieval narrows the search space, then sentence-level retrieval
inside each document pair extracts, merges and filters aligned groups. The
evaluate module measures both stages against hand-labelled data.
"""

__version__ = "0.8.0"

__all__ = ["__version__"]
