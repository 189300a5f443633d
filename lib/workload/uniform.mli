(** The uniform temporal relation of the paper's §3.3 worked example:
    [n] tuples (100,000 in the paper) with [duration]-day periods (7)
    starting uniformly so that periods fall within 1995–2000. *)

open Tango_rel
open Tango_temporal

val generate : ?n:int -> ?duration:int -> unit -> Relation.t

val actual_overlaps : Relation.t -> a:Chronon.t -> b:Chronon.t -> int
(** Exact number of tuples overlapping [\[a, b)] — ground truth for the
    selectivity experiment. *)
