"""The deployed NL interface: explanations, interactive deployment, retraining."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        ".nl_interface": ["ExplainedCandidate", "InterfaceResponse", "NLInterface"],
        ".deployment": [
            "ChoiceFunction", "DeploymentOutcome", "DeploymentReport",
            "InteractiveDeployment",
        ],
        ".retraining": [
            "RetrainingComparison", "RetrainingConfig", "RetrainingPipeline",
        ],
        ".session": ["InterfaceSession", "SessionTurn"],
        ".online": ["OnlineInteraction", "OnlineLearner", "OnlineReport"],
    },
)

__all__ = [
    "OnlineLearner",
    "OnlineReport",
    "OnlineInteraction",
    "NLInterface",
    "InterfaceResponse",
    "ExplainedCandidate",
    "InteractiveDeployment",
    "DeploymentOutcome",
    "DeploymentReport",
    "ChoiceFunction",
    "RetrainingPipeline",
    "RetrainingConfig",
    "RetrainingComparison",
    "InterfaceSession",
    "SessionTurn",
]
