"""Prediction and postdiction for quantum prepare-transform-measure scenarios.

Solves inference tasks in both directions of time for closed systems, open
systems, and general quantum channels and instruments; builds purifications
and time-reversed tasks; and verifies the symmetry and no-signalling
identities relating them, analytically and by Monte Carlo sampling.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelClassification,
    Instrument,
    QuantumMap,
    adjoint_map,
    amplitude_damping,
    amplitude_damping_instrument,
    apply,
    classify,
    coarse_grain,
    compose_sequential,
    is_trace_preserving,
    make_dephasing,
    make_noisy_operation,
    outcome_probabilities,
    projective_instrument,
    random_cptp_map,
    random_instrument,
    state_update,
)
from .errors import NoActiveReverseError, ScenarioError, UndefinedConditionalError
from .inference import (
    DeterministicEffectReport,
    FourTaskReport,
    InferenceTask,
    NoSignallingReport,
    channel_toward_past_check,
    deterministic_effect_check,
    four_task_check,
    general_prep_purified_check,
    is_inference_symmetric,
    no_signalling_check,
    open_reversal_check,
    postdict_channel,
    postdict_channel_via_purification,
    postdict_open,
    predict_open,
    solve,
    time_reverse,
)
from .linalg import (
    basis_ket,
    basis_projector,
    haar_random_unitary,
    partial_trace,
    tensor,
)
from .purify import (
    Purification,
    purify_instrument,
    rotate_ancilla,
    stinespring,
    verify_purification,
)
from .sampler import (
    CompareReport,
    EnsembleResult,
    compare,
    empirical_conditionals,
    run_ensemble,
)
from .tables import ProbabilityTable
