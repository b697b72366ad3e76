"""Simulated crowd workers and the user-study / feedback harnesses."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".timing": ["ExplanationMode", "TimingParameters", "WorkTimeModel"],
        ".worker": [
            "JudgmentParameters", "SimulatedWorker", "WorkerDecision", "worker_pool",
        ],
        ".study": [
            "QuestionTrial", "StudyConfig", "StudyResult", "UserStudy",
            "run_worktime_comparison",
        ],
        ".feedback": [
            "AnnotationRecord", "FeedbackCollector", "FeedbackConfig", "FeedbackResult",
        ],
    },
)

__all__ = [
    "ExplanationMode",
    "TimingParameters",
    "WorkTimeModel",
    "JudgmentParameters",
    "SimulatedWorker",
    "WorkerDecision",
    "worker_pool",
    "UserStudy",
    "StudyConfig",
    "StudyResult",
    "QuestionTrial",
    "run_worktime_comparison",
    "FeedbackCollector",
    "FeedbackConfig",
    "FeedbackResult",
    "AnnotationRecord",
]
