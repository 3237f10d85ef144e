"""Literary vs colloquial Tamil utterance classification toolkit.

Feature extraction (39-dim MFCC + deltas + CMS), diagonal-covariance GMM
training and scoring, corpus manifest handling, and LP-spectrum vowel
nasalization analysis, with a command-line front end in dialectid.cli.
Import what you need from the submodules (dialectid.classifier,
dialectid.corpus, dialectid.dsp, dialectid.gmm, dialectid.nasalization,
dialectid.synth); importing the package alone loads none of them.
"""

__version__ = "0.1.0"
