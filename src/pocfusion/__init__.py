"""pocfusion: detect and complete missing key aspects in vulnerability
PoC reports by fusing CVE entries and related reports from other sources."""

from .corpus import (
    ASPECT_SLOTS,
    ORIGINAL,
    AspectSet,
    AspectValue,
    ContentKind,
    Corpus,
    CorpusError,
    CveEntry,
    CveProduct,
    FromCve,
    FromPoc,
    Original,
    PocReport,
    SharedCve,
    Skipped,
    aspect_values,
    decode_provenance,
    ingest_cve_entries,
    ingest_reports,
    load_corpus,
    load_cve_db,
    save_corpus,
    save_cve_db,
    source_name,
)
from .cveid import find_cve_ids, normalize_cve_id
from .classify import LanguageSignature, categorize, detect_language, load_signatures
from .extract import (
    DefaultStructuredExtractor,
    ExternalStructuredExtractor,
    ExtractionError,
    StructuredExtraction,
    evaluate_extraction,
    extract_all,
    extract_cve_ids,
    extract_references,
    extract_trigger_step,
    extract_verification_oracle,
    load_gold_annotations,
    precision_recall,
)
from .similarity import cosine_similarity, tokenize_code, tokenize_text
from .link import (
    CompletionConfig,
    ExternalPairClassifier,
    HeuristicPairClassifier,
    PocLink,
    ScoringModels,
    below_threshold,
    build_link_graph,
    build_pair_training_set,
    classify_pair,
    group_by_cve,
    kind_threshold,
    load_links,
    pair_kind_of,
    save_links,
    save_pair_samples,
    score_pair,
    software_names,
)
from .complete import (
    CompletionRecord,
    CompletionResult,
    load_completion_records,
    replay_completion,
    run_completion,
    save_completion_records,
    verify_association,
)
from .report import completion_stats, deficiency_stats, render_report

__version__ = "0.1.0"
