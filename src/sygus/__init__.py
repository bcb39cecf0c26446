"""SyGuS toolkit: SyGuS-IF frontend, theory evaluator, enumerative and
unification-based synthesis engines, verification oracle and scoring
harness."""

from .core import (
    Apply,
    BOOL,
    BV64,
    Grammar,
    Hole,
    INT,
    InvariantSpec,
    Let,
    Lit,
    Macro,
    Problem,
    Sort,
    STRING,
    SygusError,
    SynthTarget,
    Term,
    Var,
    expand_macros,
    substitute_targets,
    term_size,
)
from .frontend import (
    default_grammar,
    desugar_invariant,
    emit_define_fun,
    emit_problem,
    emit_term,
    parse,
    parse_file,
    parse_solution,
)
from .semantics import Evaluator, eval_constraints
from .engine import (
    Enumerator,
    Failure,
    Solution,
    cegis_solve,
    extract_pbe_points,
    generate_nuggets,
    unify_solve,
)
from .oracle import check_conformance, external_check, verify
from .harness import (
    RunRecord,
    ScoreReport,
    SuiteConfig,
    run_suite,
    score,
    size_bucket,
    time_bucket,
)

__version__ = "0.1.0"
