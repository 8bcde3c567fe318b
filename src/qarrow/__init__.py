"""qarrow: density-matrix quantum simulation with arrow-style combinators.

The layers, from the ground up:

* :mod:`qarrow.basis`: finite ordered bases and row-major products.
* :mod:`qarrow.vector`: amplitude vectors with unit/bind/tensor/dot.
* :mod:`qarrow.linear`: gates and the linear-operator algebra.
* :mod:`qarrow.density`: density matrices, diagnostics, serialization.
* :mod:`qarrow.superop`: channels with arr / composition / first,
  measurement and the left partial trace.
* :mod:`qarrow.circuits`: worked circuits (Toffoli, teleportation,
  copy/weaken).
* :mod:`qarrow.laws`: numeric suites for the monad and arrow equations.
* :mod:`qarrow.textcircuit`: circuit files parsed to runnable ``proc`` blocks.
* :mod:`qarrow.cli`: the ``qarrow`` command.
"""

from .basis import Basis, BasisMismatchError, bool_basis, label_text, parse_label, product
from .circuits import (
    alice,
    bob,
    copy,
    prepare_teleport_input,
    teleport,
    toffoli_lin,
    toffoli_super,
    weaken,
)
from .density import (
    DensityMatrix,
    DiagnosticsReport,
    diagnostics,
    format_table,
    from_json_dict,
    max_abs_diff,
    pure_density,
    to_json_dict,
    trace,
    zero_density,
)
from .laws import LawReport, SeededGenerator, check_arrow_laws, check_monad_laws, run_all
from .linear import (
    LinearOp,
    adjoint,
    controlled,
    from_rows,
    fun2lin,
    gate,
    identity,
    lin_plus,
    lin_tensor,
    outer,
)
from .linear import compose as compose_lin
from .superop import (
    EqualityReport,
    Superoperator,
    apply,
    arr,
    extensional_equal,
    first,
    identity_arr,
    lin2super,
    max_difference,
    measure,
    parallel,
    permute_arr,
    second,
    trace_left,
)
from .superop import compose as compose_super
from .textcircuit import CircuitError, CircuitIR, initial_density, parse_circuit, route
from .vector import StateVector, bind, dot, named_state, scale, tensor, unit, zero

__version__ = "0.1.0"
