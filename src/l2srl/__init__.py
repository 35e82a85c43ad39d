"""SRL toolkit for L2-L1 parallel learner corpora.

Scoring, inter-annotator agreement, oracle error analysis, agreement-based
selection of consistent sentence pairs, and a trainable linear-chain role
tagger, tied together by the ``l2srl`` command line.
"""

from l2srl.agreement import (
    PairRecall,
    RoleTuple,
    SelectionConfig,
    extract_tuples,
    heuristic_align,
    recall_pair,
    select,
    shared_tuples,
)
from l2srl.corpus import (
    Corpus,
    SentencePair,
    SplitSpec,
    load_corpus,
    pair_corpora,
    parse_alignments,
    parse_corpus,
    render_alignments,
    render_corpus,
    save_corpus,
    split_dataset,
)
from l2srl.model import (
    Alignment,
    AnnotatedSentence,
    Frame,
    Span,
    Token,
    spans_from_tags,
    tags_from_spans,
)
from l2srl.oracle import ORACLE_SEQUENCE, apply_oracle, oracle_sequence
from l2srl.scoring import (
    ConfusionMatrix,
    ScoreReport,
    confusion_matrix,
    iaa,
    score,
    score_grouped,
)
from l2srl.tagger import (
    TaggerModel,
    TrainConfig,
    extract_features,
    load_model,
    save_model,
    tag,
    train,
    viterbi_decode,
)

__version__ = "0.1.0"
