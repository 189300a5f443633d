(** Synthetic stand-in for the University Information System dataset
    (TIMECENTER CD-1) used by the paper's experiments.

    Deterministic generators matching the published shapes: EMPLOYEE
    (49,972 × 31 attributes, ≈276 B/tuple), POSITION (83,857 × 8
    attributes, ≈80 B/tuple) with the reported time skew (~65 % of periods
    start in 1995 or later), and the eight POSITION size variants. *)

open Tango_rel

val employee_full_cardinality : int
val position_full_cardinality : int
val position_variant_cardinalities : int list

val position_schema : Schema.t
val employee_schema : Schema.t

val position : ?n:int -> ?employees:int -> unit -> Relation.t
(** [n] tuples (default: the full 83,857); EmpID references range over
    [1..employees]. *)

val employee : ?n:int -> unit -> Relation.t

val load :
  ?scale:float ->
  ?histograms:[ `All | `Cols of string list | `None ] ->
  Tango_dbms.Database.t ->
  unit
(** Load a scaled UIS database (POSITION, EMPLOYEE with a clustered EmpID
    index) and ANALYZE everything. *)

val load_sharded :
  ?scale:float ->
  ?histograms:[ `All | `Cols of string list | `None ] ->
  ?roundtrip_spins:int list ->
  shards:int ->
  unit ->
  Tango_dbms.Topology.t
(** Load a scaled UIS database over [shards] in-process backends:
    POSITION range-partitioned on its period start [T1] at the data's
    quantiles; EMPLOYEE (with its clustered EmpID index) replicated to
    every backend.  Backends are named [shard0], [shard1], …;
    [roundtrip_spins] gives each a simulated per-round-trip latency. *)
