"""Literary vs colloquial Tamil utterance classification toolkit.

Feature extraction (39-dim MFCC + deltas + CMS), diagonal-covariance GMM
training and scoring, corpus manifest handling, and LP-spectrum vowel
nasalization analysis, with a command-line front end in dialectid.cli.
"""

from .classifier import (
    ClassifierBundle,
    Decision,
    EvalReport,
    SweepRow,
    classify_utterance,
    evaluate,
    load_bundle,
    save_bundle,
    sweep_mixtures,
    train_bundle,
)
from .corpus import (
    CorpusManifest,
    Gender,
    Split,
    UtteranceRecord,
    corpus_stats,
    load_manifest,
    read_audio,
    validate_split,
    write_manifest,
    write_wav,
)
from .dsp import (
    AudioSignal,
    MfccConfig,
    append_deltas,
    cepstral_mean_subtract,
    extract_features,
    extract_mfcc13,
    frame_signal,
    mel_filterbank_energies,
    preemphasize,
    read_features,
    write_features,
)
from .errors import DialectIdError
from .gmm import (
    GmmModel,
    TrainConfig,
    em_fit,
    kmeans_init,
    load_model,
    log_density_frame,
    log_likelihood_sequence,
    save_model,
)
from .labels import DialectLabel
from .nasalization import (
    NasalConfig,
    NasalizationReport,
    analyze_segment,
    autocorrelation,
    compare_degree,
    levinson_durbin,
    lp_spectrum,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The synthesizer needs scipy.signal, which is slow to import and which
    # nothing else uses, so it loads on first use rather than with the package.
    if name == "generate_synthetic_corpus":
        from .synth import generate_synthetic_corpus

        return generate_synthetic_corpus
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AudioSignal",
    "ClassifierBundle",
    "CorpusManifest",
    "Decision",
    "DialectIdError",
    "DialectLabel",
    "EvalReport",
    "Gender",
    "GmmModel",
    "MfccConfig",
    "NasalConfig",
    "NasalizationReport",
    "Split",
    "SweepRow",
    "TrainConfig",
    "UtteranceRecord",
    "analyze_segment",
    "append_deltas",
    "autocorrelation",
    "cepstral_mean_subtract",
    "classify_utterance",
    "compare_degree",
    "corpus_stats",
    "em_fit",
    "evaluate",
    "extract_features",
    "extract_mfcc13",
    "frame_signal",
    "generate_synthetic_corpus",
    "kmeans_init",
    "levinson_durbin",
    "load_bundle",
    "load_manifest",
    "load_model",
    "log_density_frame",
    "log_likelihood_sequence",
    "lp_spectrum",
    "mel_filterbank_energies",
    "preemphasize",
    "read_audio",
    "read_features",
    "save_bundle",
    "save_model",
    "sweep_mixtures",
    "train_bundle",
    "validate_split",
    "write_features",
    "write_manifest",
    "write_wav",
]
