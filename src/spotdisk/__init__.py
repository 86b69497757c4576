"""Word invariants, point-pushing calculus and embedding certificates
for spotted disk and sphere graphs."""

from .cancelpairs import (
    CancellingFamily,
    CancellingPair,
    ConjugateReducedWitness,
    cr_bruteforce,
    cr_lower_bound,
    enumerate_nested_families,
)
from .errors import CapExceeded, ParseError, RankError
from .pushcalc import (
    ArcLabel,
    BoundTrace,
    DiskLabel,
    PushLabel,
    Side,
    TraceStep,
    disk_normalize,
    push_arc,
    q_class,
    sphere_equiv_bound,
)
from .qicert import (
    CertificateRow,
    certify_grid,
    lambda_word,
    make_bt,
    relative_word,
    summarize,
    upper_bound,
)
from .torustree import TorusDiskBall, build_ball
from .whitehead import (
    SimpleLengthWitness,
    WhiteheadGraph,
    has_cut_vertex,
    simple_length,
    simple_length_bruteforce,
    whitehead_graph,
)
from .words import (
    ReducedWord,
    concat,
    format_word,
    inverse,
    parse,
    power,
    reduce,
    subword,
)

__version__ = "0.1.0"
