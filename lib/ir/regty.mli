(** Per-function virtual-register type reconstruction.

    IR operands are untyped; the legality tests and the BE transformations
    need to know when a register holds a pointer to a given record type
    (escaping arguments, [free] of a split type, ...). Types are
    reconstructed from defining instructions in two forward passes (the
    second resolves [Imov] joins whose source is defined later in block
    order). A register moved to from several places (the join of a [?:])
    takes the last move's type, except that a floating type is kept over
    a non-floating one: C's usual arithmetic conversions make such a
    [?:] floating. A call's result takes the callee's return type: a
    defined function's [fret], a builtin's entry in
    {!Slo_minic.Typecheck.builtins}, [long] for anything else. Unknown
    registers report [None].

    This is the one register-type reconstruction: the legality tests,
    dead-store detection, the transformations and both VM engines (for
    register banks) read it. *)

val infer : Ir.program -> Ir.func -> Irty.t option array
(** Indexed by register number. *)

val float_regs : Ir.program -> Ir.func -> bool array
(** The registers {!infer} types as [float] or [double], by register
    number: the VM's float bank. Every other register, typed or not, is
    in the integer bank. *)

val struct_ptr : Irty.t option -> string option
(** [Some s] when the type is a pointer to [struct s]. *)
