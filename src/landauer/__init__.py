"""Reversible-computation toolkit.

Compiles irreversible boolean circuits into ancilla-clean reversible ones,
realizes compression-with-helper as an in-place reversible block map,
evaluates work-value / erasure-cost / computation bounds exactly in bit
units of kT ln2, and runs the verifiable desk-scale experiments built on
them (conservation of work value plus erasure cost, the XOR-copy demon,
weight-imbalance ceilings under conservative circuits, box-condition
correlation proxies).

True description complexity is uncomputable; everywhere this package
needs it, a compressor-family estimator supplies an upper bound and the
result is flagged as an estimate.
"""

__version__ = "0.1.0"

from .bitstring import (
    BitString,
    decode_self_delimiting,
    decode_uint,
    encode_self_delimiting,
    encode_uint,
)
from .circuits import (
    Gate,
    ReversibleCircuit,
    StateTrajectory,
    check_conservative,
    check_injective_bruteforce,
    cnot,
    complexity_drift_report,
    compose,
    fredkin,
    is_toffoli_only,
    normalize_to_toffoli,
    not_gate,
    permutation_table,
    reverse_circuit,
    simulate,
    simulate_trajectory,
    toffoli,
)
from .clausius import (
    WeightCouple,
    clausius_experiment,
    count_class_transitions,
    imbalance_ratio_exact,
    imbalance_tail_exact,
    random_conservative_circuit,
)
from .compress import (
    BOOKMARK8,
    IDENTITY,
    LZ78,
    XOR,
    ComplexityEstimate,
    CompressionCodec,
    decode_with_escape,
    default_family,
    encode_with_escape,
    estimate_complexity,
    get_codec,
)
from .demon import (
    ScenarioResult,
    Tape,
    replay_backward,
    run_erase_then_extract,
    run_extract,
    run_extract_then_erase,
    run_xor_copy_extract,
)
from .irrev import (
    IrreversibleCircuit,
    LogicGate,
    evaluate,
    random_netlist,
    rom_circuit,
    wire_through,
)
from .prbox import (
    CorrelationQuadruple,
    check_pr_condition,
    complexity_rate,
    generate_pr_quadruple,
    pr_report,
)
from .synth import (
    CompiledReversible,
    VerificationReport,
    bennett_compile,
    build_fig1_compressor,
    fig1_block_oracle,
    verify_compiled,
)
from .thermo import (
    BOLTZMANN_K,
    BoundReport,
    EnergyLedger,
    circular_combination_report,
    computation_cost_lower_bound,
    computation_value_lower_bound,
    erasure_cost_interval,
    to_joules,
    wv_ec_identity_check,
    wv_lower_bound,
    wv_report,
    wv_upper_bound,
)
