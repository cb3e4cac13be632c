"""WeakDAP: prompt-based dialogue data augmentation with weakly-supervised
entropy filtering."""

from .augment import AugmentPlan
from .corpus import Candidate, Conversation, Dataset, LabelSpace, LabeledUtterance, Turn
from .genbackend import GenParams, HttpBackend, MockBackend, MockGenConfig
from .loop import LoopConfig, LoopState, run_weakdap
from .prompt import PromptSpec, RenderedPrompt
from .weaklabel import FilterConfig, WeakLabeler, entropy_bits, filter_candidates, train

__all__ = [
    "AugmentPlan", "Candidate", "Conversation", "Dataset", "LabelSpace",
    "LabeledUtterance", "Turn", "GenParams", "HttpBackend", "MockBackend",
    "MockGenConfig", "LoopConfig", "LoopState", "run_weakdap", "PromptSpec",
    "RenderedPrompt", "FilterConfig", "WeakLabeler", "entropy_bits",
    "filter_candidates", "train",
]

__version__ = "0.1.0"
