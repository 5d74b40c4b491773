"""treegen: dialogue-tree corpus synthesis.

Expands a prompt tree against a pluggable text-generation backend, keeps
sibling candidates diverse with MMR plus a near-duplicate cutoff, and exports
the root-to-leaf paths as conversation (SFT) or plain continuation (PT)
training corpora. Runs are checkpointed, resumable, and — under the mock
backend — byte-deterministic regardless of worker count.
"""

from .analysis import (CorpusStats, DiversityStats, compute_stats,
                       diversity_sample, export_embeddings)
from .backends import (Completion, EmbeddingBackend, EmbeddingVector,
                       GenerationBackend, GenerationRequest, GenerationResult,
                       HttpEmbedder, HttpTextBackend, MockEmbedder,
                       MockTextBackend, mock_generate_text)
from .corpus import (ConversationRecord, Turn, TurnPolicy, build_corpus,
                     export_jsonl, export_pt, export_sharegpt,
                     gaussian_turn_policy, gaussian_turn_weights,
                     load_sharegpt, sample_to_size, validate_sharegpt_file)
from .dedup import MmrSelection, cosine, mmr_select, near_duplicate_filter
from .errors import (BackendError, CheckpointError, ConfigError,
                     EmptyCompletionError, IncompleteTreeError, ModeError,
                     ResumableRunError, StatusError, StructuralError,
                     TemplateError, TreeGenError)
from .scheduler import (CheckpointStore, ExpansionResult, TreeRunner,
                        expand_parent)
from .templates import (BUILTIN_TEMPLATES, LLAMA2_CHAT, PLAIN, ChatTemplate,
                        get_template, load_template, render_answer_prompt,
                        render_continuation_prompt, render_question_prompt,
                        strip_completion)
from .tree import (LayerSpec, Mode, Role, Tree, TreeConfig, TreeNode,
                   TreeShape, ValidationReport, classify_shape, config_hash,
                   config_from_dict, expected_leaf_count, load_config,
                   validate_config)

__version__ = "0.1.0"
