(** Dead-code cleanup used by the BE after layout transformations.

    The layout rewrite ({!Transform.apply}) retargets field-access chains
    (through a split's link, through a peeled or pooled anchor global),
    deletes dead stores and moves peeled allocations to their anchor
    stores; that leaves orphaned address computations, casts and loads
    behind, which the rewrite relies on this pass to remove. It removes
    side-effect-free instructions whose destination register is
    never used, iterating to a fixpoint. Loads are treated as removable: a
    dead load has no program-visible effect, and a real compiler would not
    emit it (leaving it would also pollute the simulated cache trace). *)

val cleanup : Ir.func -> int
(** Returns the number of instructions removed. *)
