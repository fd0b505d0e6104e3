"""Every result record of the package is an immutable typing.NamedTuple."""

import numpy as np
import pytest

from qmaxent.bell import chsh_operator
from qmaxent.entangle import criterion_verdict, scan_region
from qmaxent.inference import (
    escort_weights,
    infer_spectra,
    infer_state,
    lagrange_multipliers,
    mu_factors,
    to_density_matrix,
    validate_constraints,
)
from qmaxent.measures import mutual_entropy
from qmaxent.oracle import maxent_split_oracle
from qmaxent.smallmat import hermitian_eigen
from qmaxent.thermo import free_energy, legendre_report, purification_path_check

C = validate_constraints(2.0, 1.4142136, 6.0)
S = infer_state(C)

RECORDS = {
    "ConstraintSet": lambda: C,
    "EscortWeights": lambda: escort_weights(C),
    "InferredState": lambda: S,
    "SpectrumBatch": lambda: infer_spectra(2.0, [1.0], [6.0]),
    "MuFactors": lambda: mu_factors(S),
    "Multipliers": lambda: lagrange_multipliers(S),
    "Verdict": lambda: criterion_verdict(S),
    "RegionGrid": lambda: scan_region(2.0, 4),
    "ThermoPoint": lambda: free_energy(S),
    "LegendreReport": lambda: legendre_report(C),
    "PurificationPath": lambda: purification_path_check(2.0, 4),
    "MutualEntropyResult": lambda: mutual_entropy(to_density_matrix(S), 2.0),
    "Spectrum": lambda: hermitian_eigen(np.eye(2)),
    "ChshOperators": chsh_operator,
    "OracleResult": lambda: maxent_split_oracle(C),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_set(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert repr(record).startswith(f"{name}({record._fields[0]}=")
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
