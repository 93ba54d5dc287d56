"""CE2D: consistent, efficient early detection (§4)."""

from .dispatcher import CE2DDispatcher, VerifierFactory
from .epoch import EpochTracker
from .loop_detector import LoopDetector
from .reachability import DgqReachability
from .regex_verifier import CoverVerifier, RegexVerifier
from ..results import LoopReport, Verdict, VerificationReport
from .verification_graph import VerificationGraph
from .verifier import SubspaceVerifier

__all__ = [
    "CE2DDispatcher",
    "VerifierFactory",
    "EpochTracker",
    "LoopDetector",
    "DgqReachability",
    "CoverVerifier",
    "RegexVerifier",
    "LoopReport",
    "Verdict",
    "VerificationReport",
    "VerificationGraph",
    "SubspaceVerifier",
]
