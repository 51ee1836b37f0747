"""frontkit: a combinatorial calculus for Legendrian front diagrams.

Fronts are event words (cusps and crossings at levels); the package
computes classical invariants, applies Reidemeister-type rewrites,
builds satellites and cables, manipulates Gompf standard-form diagrams
with 1-handles and Stein 2-handle attachments, and searches move graphs.
"""

from .front import (
    ClassicalInvariants,
    Event,
    FrontDiagram,
    L,
    R,
    X,
    bennequin_gap,
    classical_invariants,
    linking_number,
    reflect,
    rotation,
    seifert_genus,
    thurston_bennequin,
    trefoil,
    unknot,
    writhe,
)
from .standard import (
    OneHandle,
    StandardFormDiagram,
    SteinHandlebody,
    TwoHandleAttachment,
    closure_to_sphere,
    geometric_passes,
    homology_vector,
    pass_signs,
    stein_check,
    tb_standard,
)
from .satellite import BraidWord, TwistBox, cable, n_copy
from .moves import (
    Move,
    MoveScript,
    apply_move,
    cancel_pair,
    enumerate_moves,
    handle_slide,
    pull_off,
    stabilize,
)
from .certify import (
    GenusCertificate,
    MaxTbCertificate,
    adjunction_bound,
    certify_tb_max,
    reducibility_report,
    surgery_coefficient,
)
from .explore import SearchConfig, bfs_max_tb, fuzz_moves
from .gallery import (
    K_m_front,
    K_mn_cable_front,
    Z_m_handlebody,
    gallery_manifest,
    stein_rep_max,
    stein_rep_variant,
    step3_pipeline,
)
from .textio import parse, parse_script, print_script, print_text, render

__version__ = "0.1.0"
