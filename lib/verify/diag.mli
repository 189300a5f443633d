(** Structured plan-verification diagnostics.

    Every finding of {!Check} and {!Gate} is one of these: a severity, the
    check {e family} that produced it ([schema], [boundary], [ordering] or
    [estimates]), the operator path from the plan root, a message, and
    optionally a fix hint and the transformation rule that introduced the
    problem (when found by the per-rule gate). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  family : string;  (** [schema], [boundary], [ordering] or [estimates] *)
  path : string;  (** ["/"]-separated operator path from the plan root *)
  message : string;
  hint : string option;  (** suggested fix *)
  rule : string option;  (** offending transformation rule, when gated *)
}

val v :
  ?hint:string -> ?rule:string -> severity -> string -> path:string ->
  string -> t
(** [v severity family ~path message] builds a diagnostic. *)

val is_error : t -> bool
val count_errors : t list -> int

val to_string : t -> string

val to_json : t -> Tango_obs.Json.t
(** One JSON object; fields [severity], [family], [path], [message] and,
    when present, [hint] and [rule]. *)
