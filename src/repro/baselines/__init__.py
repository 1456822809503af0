"""Baseline dynamics from the related-work section (Sec 1.1): consensus
processes that destroy diversity, the SIS epidemic, and the
global-knowledge strawmen."""

from .epidemic import SISEpidemic
from .three_majority import ThreeMajority
from .trivial import TrivialResampling
from .two_choices import TwoChoices
from .uniform_partition import (
    RandomRecolouring,
    partition_imbalance,
    uniform_partition_protocol,
)
from .voter import VoterModel

__all__ = [
    "VoterModel",
    "TwoChoices",
    "ThreeMajority",
    "SISEpidemic",
    "TrivialResampling",
    "RandomRecolouring",
    "uniform_partition_protocol",
    "partition_imbalance",
]
