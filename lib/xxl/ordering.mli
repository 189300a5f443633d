(** Declared ordering properties of the order-sensitive middleware
    algorithms (paper §3.1): the input order each algorithm {e requires}
    and the output order it {e guarantees}, stated once so the physical
    planner ({!Tango_volcano.Physical}), the transformation rules and the
    plan verifier all agree.

    - {!Taggr} needs its input sorted on (G₁..Gₙ, T1) and emits
      (G₁..Gₙ, T1) order ({!taggr_input} / {!taggr_output});
    - {!Dup_elim} needs its input sorted on all attributes
      ({!dup_elim_input}) and preserves that order;
    - coalescing ({!Temporal.coalesce}) needs (non-period attrs, T1)
      ({!coalesce_input}) and preserves it;
    - sort-merge (temporal) join needs each input sorted on its join
      attribute ({!merge_join_input}) and emits the left attribute's order
      when it survives into the output ({!merge_join_output}). *)

open Tango_rel

val taggr_input : Schema.t -> group_by:string list -> Order.t
(** The (G₁..Gₙ, T1) order TAGGR^M requires of its argument (T1 resolved
    against the argument schema's period attributes). *)

val taggr_output : group_by:string list -> Order.t
(** The (G₁..Gₙ, T1) order temporal aggregation produces (output-schema
    attribute names). *)

val dup_elim_input : Schema.t -> Order.t
(** DUPELIM^M requires its input sorted on all attributes. *)

val coalesce_input : Schema.t -> Order.t
(** COALESCE^M requires (non-period attributes, T1) order. *)

val merge_join_input : string -> Order.t
(** Each merge-join input must be sorted ascending on its join attribute. *)

val merge_join_output :
  temporal:bool -> Schema.t -> left_key:string -> Order.t
(** The order a sort-merge (temporal) join guarantees: ascending on the
    left join attribute when it survives into [out_schema].  For temporal
    joins an input {e period} attribute never survives — the output period
    is the intersection — so only kept non-period attributes qualify. *)
