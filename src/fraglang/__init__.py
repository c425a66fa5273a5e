"""fraglang: a workbench for languages composed from independent fragments.

Fragments are declared as polynomial functor shapes, combined by disjoint
sum under a fixed point, and carry their own step rules, typing rules, and
type-preservation transformers; the composed language inherits all three.
"""

from .functor import (
    Atom,
    AtomVal,
    BaseSet,
    FunctorDesc,
    InL,
    InR,
    Pair,
    Payload,
    Prod,
    Rec,
    ShapeError,
    Slot,
    Sum,
    Term,
    UNIT,
    fmap,
    fold,
    valid_term,
    validate_payload,
    validator,
)
from .subobject import (
    ContainsPath,
    Direction,
    MalformedPathError,
    downcast,
    lifter,
    path_target,
    upcast,
)
from .lang import (
    ARRAY,
    FEXPR,
    LIFT_ARRAY,
    LIFT_NAT,
    LIFT_OPTION,
    LIFT_SUM,
    NAT,
    OPTION,
    SUM,
    array_lookup,
    assign,
    enat,
    index,
    is_value,
    lift_array,
    lift_nat,
    lift_option,
    lift_sum,
    nat_value,
    nil,
    none,
    plus,
    some,
    view,
)
from .semantics import (
    ComposedStep,
    FuelExhaustedError,
    Lookup,
    StepI,
    StepL,
    StepR,
    StepV,
    ViaArray,
    ViaSum,
    drive_step,
    trace,
    validate_step,
)
from .typecheck import (
    ComposedTyping,
    LangType,
    LiftWtArray,
    LiftWtNat,
    LiftWtOption,
    LiftWtSum,
    OkIns,
    OkLookup,
    OkNil,
    OkSum,
    infer,
    validate_typing,
)
from .preservation import (
    PreservationHooks,
    SubjectMismatchError,
    preservation_array,
    preservation_sum,
    preserve,
)
from .surface import LiteralLimitError, ParseError, parse, render
from .sexpr import elaborate_step, parse_derivation, render_derivation
from .generate import enumerate_terms, random_term, random_typed_term

__all__ = [name for name in dir() if not name.startswith("_")]
