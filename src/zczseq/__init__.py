"""Construction, exact verification, and QS-CDMA simulation of multiple
zero-correlation-zone sequence sets built from generalized Boolean
functions."""

__version__ = "0.1.0"

from .gbf import (
    GeneralizedBooleanFunction,
    UnimodularSequence,
    QuadraticGraph,
    PathFormReport,
    binvec,
    psi,
    quadratic_graph,
    validate_restricted_path_form,
    parse_gbf_text,
    format_gbf_text,
)
from .correlation import (
    Violation,
    ZczCertificate,
    InterSetReport,
    CccReport,
    SpectrumTable,
    SpectrumCapError,
    accf,
    pccf,
    code_accf,
    verify_ccc,
    verify_zcz,
    verify_inter_zccz,
    certify_family,
    performance_parameter,
    correlation_spectrum,
)
from .construction import (
    HCoeffs,
    seed_polynomial,
    build_seed_function,
    CancellationReport,
    check_seed_cancellation,
    ConstructionParams,
    default_params,
    example1_params,
    path_gbf,
    build_ccc_family,
    MultipleZczFamily,
    build_multiple_zcz,
    ChunkDecompositionReport,
    check_chunk_decomposition,
    export_family,
    load_family,
    LoadedFamily,
)
from .qscdma import (
    SimulationConfig,
    BerPoint,
    UserBerCurve,
    SimulationResult,
    assign_signatures,
    simulate_ber,
    theoretical_bpsk_ber,
    noiseless_statistics,
    find_interference_witness,
    InterferenceWitness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
