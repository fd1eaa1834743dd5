"""Differential conformance: cross-engine oracles, corpus, fuzzer.

The subsystem replays one :class:`~repro.gpu.simulator.MemoryEventLog`
through the full engine matrix plus the functional-crypto reference and
checks a declared invariant set (see
:mod:`repro.conformance.invariants`). Entry points:

* :func:`repro.conformance.matrix.run_matrix` — one differential run;
* :func:`repro.conformance.invariants.check_run` — the oracle;
* :func:`repro.conformance.scalar.scalar_replay` — the per-event replay
  the batched production path is checked against;
* :func:`repro.conformance.corpus.run_corpus` — golden-corpus
  verification / regeneration;
* :func:`repro.conformance.fuzzer.fuzz` — seeded adversarial campaign
  with ddmin shrinking.

CLI: ``python -m repro.harness conform [--corpus|--fuzz N] [--update]``.
"""

from repro.conformance.corpus import (
    CORPUS,
    CorpusEntryResult,
    CorpusOutcome,
    CorpusSpec,
    build_spec_log,
    default_corpus_dir,
    run_corpus,
)
from repro.conformance.functional import (
    FUNCTIONAL_MODES,
    FunctionalOutcome,
    execute_log,
    execute_modes,
)
from repro.conformance.fuzzer import (
    PATTERNS,
    FuzzFailure,
    FuzzReport,
    evaluate_log,
    fuzz,
    generate_log,
    rebuild_log,
    shrink,
)
from repro.conformance.invariants import (
    INVARIANTS,
    Invariant,
    Violation,
    check_run,
)
from repro.conformance.matrix import (
    CONFORMANCE_ENGINES,
    CROSS_CHECK_ENGINE,
    MatrixRun,
    conformance_factories,
    run_matrix,
)
from repro.conformance.report import (
    render_corpus,
    render_fuzz,
    render_invariant_table,
)
from repro.conformance.scalar import scalar_replay

__all__ = [
    "CORPUS",
    "CONFORMANCE_ENGINES",
    "CROSS_CHECK_ENGINE",
    "CorpusEntryResult",
    "CorpusOutcome",
    "CorpusSpec",
    "FUNCTIONAL_MODES",
    "FunctionalOutcome",
    "FuzzFailure",
    "FuzzReport",
    "INVARIANTS",
    "Invariant",
    "MatrixRun",
    "PATTERNS",
    "Violation",
    "build_spec_log",
    "check_run",
    "conformance_factories",
    "default_corpus_dir",
    "evaluate_log",
    "execute_log",
    "execute_modes",
    "fuzz",
    "generate_log",
    "rebuild_log",
    "render_corpus",
    "render_fuzz",
    "render_invariant_table",
    "run_corpus",
    "run_matrix",
    "scalar_replay",
    "shrink",
]
