"""Baseline dynamics from the related-work section (Sec 1.1): consensus
processes that destroy diversity, the anti-voter precedent, averaging
processes, and the global-knowledge strawman."""

from .anti_voter import AntiVoterModel
from .averaging import AveragingProcess, MatchingDiffusion
from .epidemic import SISEpidemic, infected_count
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
    "AntiVoterModel",
    "TwoChoices",
    "ThreeMajority",
    "SISEpidemic",
    "infected_count",
    "AveragingProcess",
    "MatchingDiffusion",
    "TrivialResampling",
    "RandomRecolouring",
    "uniform_partition_protocol",
    "partition_imbalance",
]
