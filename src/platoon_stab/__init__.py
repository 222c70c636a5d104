"""String-stability toolkit for vehicle platoon controllers.

Models six platoon controllers as second-order spacing-error dynamics,
decides the frequency-domain attenuation criterion analytically, checks it
numerically with a time-domain chain simulator, and monitors logged
controller executions for violations of the stability contract.
"""

from .model import (
    Configuration,
    ControllerSpec,
    ControllerType,
    ErrorModel,
    InvalidPlatoonError,
    PlatoonParams,
    Strategy,
    UnsupportedControllerError,
    controller_spec_from_dict,
    controller_spec_to_dict,
    error_model,
    failed_conjunct,
    is_valid_platoon,
    model_label,
    validate_platoon,
)
from .frequency import (
    FrequencyResponse,
    SingularityError,
    StabilityConstraint,
    SweepResult,
    critical_frequencies,
    frequency_response,
    is_stable_at,
    stability_constraint,
    stable_intervals,
    sweep,
    transfer_function,
    write_sweep_csv,
)
from .simulate import (
    AttenuationReport,
    ChainSeries,
    DegenerateInputError,
    DivergenceError,
    SimConfig,
    StateSeries,
    attenuation_report,
    default_dt,
    simulate_chain,
    simulate_state_space,
    sine_input,
    tabulated_input,
    write_chain_csv,
)
from .monitor import (
    Event,
    Trace,
    TraceParseError,
    Verdict,
    Violation,
    check_p1,
    check_p2,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    run_monitor,
    write_trace,
    write_trace_file,
)

__version__ = "0.1.0"
