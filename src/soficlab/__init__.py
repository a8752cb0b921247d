"""Sofic shifts, cellular automata, and Garden-of-Eden decision procedures
on the integer line."""

from .base import (Alphabet, CellularAutomaton, ConfigurationWindow, Decision,
                   Word)
from .bundled import bundled_ca, bundled_names, bundled_raw_ca, bundled_shift
from .ca import (DiamondWitness, EntropyPreservationReport, MyhillReport,
                 PairGraph, PointPairWitness, check_entropy_preservation,
                 check_myhill, constant_ca, identity_ca, image_presentation,
                 is_injective, is_pre_injective, is_surjective, pair_graph,
                 random_ca, search_moore_counterexample, xor_ca)
from .corpus import (Classification, CorpusInstance, CorpusReport, classify,
                     instance_lines, run_bundled_examples, run_corpus)
from .entropy import (EntropyEstimate, FolnerWindow, block_count,
                      block_counts, entropy_blocks, entropy_compare,
                      entropy_spectral)
from .errors import (AlphabetMismatch, CapExceeded, CertificateMissing,
                     EmptyShift, NoSyncWord, NotEndomorphism, NotIntoTarget,
                     NotMixing, NotSubshift, ParseError, SeparationTooSmall,
                     SoficlabError, StateBlowup, TableTooLarge,
                     WindowTooSmall, WordNotInLanguage, WordTooShort)
from .graph import LabeledGraph
from .props import (GlueRequest, MixingReport, SiCertificate, SyncWitness,
                    gap_witness, glue, is_irreducible, is_mixing,
                    is_strongly_irreducible, minimal_gap, si_certificate,
                    synchronized_cover, synchronizing_word)
from .shift import (Shift, equal_shifts, higher_block, language_included)
from .shiftio import (RawCa, bind_ca, parse_ca_file, parse_ca_text,
                      parse_shift_file, parse_shift_text)
from .tiling import (PatternExclusionReport, PositivityReport, TilingSpec,
                     pattern_exclusion_bound, positivity_lower_bound,
                     tiling_Z, tiling_density)

__version__ = "0.1.0"
