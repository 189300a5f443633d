(** A topology: the set of backends a middleware session executes over.

    At most one table is {e range-partitioned} across the backends on a
    numeric (chronon) column — in the UIS workload, POSITION on its period
    start [T1].  Every shard declares a closed-open bound [\[lo, hi)] on
    that column; the slices must be disjoint and cover the data (the
    loaders guarantee this).  All other tables — and every temporary table
    a [TRANSFER^D] creates — are {e replicated} to all backends, so any
    single-shard SQL statement sees a complete copy of everything except
    its slice of the partitioned table.

    A topology is fixed at {!create}: optimized plans bake the partition
    layout in, and no path changes it afterwards. *)

type bounds = {
  lo : int option;  (** inclusive chronon lower bound; [None] = unbounded *)
  hi : int option;  (** exclusive chronon upper bound; [None] = unbounded *)
}

type t

val single : Backend.t -> t
(** The classical one-DBMS architecture: no partitioned table. *)

val create :
  ?partitioned:string * string -> (Backend.t * bounds) list -> t
(** [create ~partitioned:(table, column) shards] — [shards] must be
    non-empty; raises [Invalid_argument] otherwise.  Without
    [partitioned], the first backend is simply the primary and the rest
    hold replicas. *)

val primary : t -> Backend.t
(** The first backend — where unpartitioned work runs. *)

val backends : t -> Backend.t list
val shards : t -> (Backend.t * bounds) list
val shard_count : t -> int

val is_sharded : t -> bool
(** More than one backend {e and} a partitioned table. *)

val partitioned_table : t -> (string * string) option
(** [(table, column)] when a table is partitioned. *)

val find : t -> string -> Backend.t option
(** Backend by name. *)

val quantile_bounds : int array -> int -> bounds list
(** [quantile_bounds values n]: [n] contiguous closed-open bounds
    splitting the (unsorted) chronon sample [values] at its quantiles, so
    skewed data still partitions evenly.  First bound is open below, last
    open above. *)
