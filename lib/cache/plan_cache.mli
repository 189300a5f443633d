(** A fingerprint-keyed LRU cache for optimized plans.

    Keys are derived from the {e normalized SQL text} — whitespace
    collapsed and case folded outside single-quoted literals — so two
    spellings of the same query hit regardless of keyword case, while a
    change to any {e literal} misses.  Entries come in two flavors,
    distinguished by how the caller keys them:

    - {e exact} entries are keyed on the full query text, literals
      included: a cached physical plan carries its literals and must not
      be reused under different ones;
    - {e template} entries are keyed on parameterized text ([$n] markers
      in place of literals — explicit bind variables or the
      auto-parameterizer's output): one entry serves every binding, and
      the stored plan is instantiated at bind time.

    The cache itself is agnostic — it stores what it is given under the
    key it is given — but lookups declare their {!kind} so hits are
    classified (template vs exact) in both per-cache {!stats} and the
    process-wide [cache.*] counters of {!Tango_obs}.

    Invalidation is explicit ({!invalidate_all}) and coarse: statistics
    refreshes (ANALYZE), schema DDL, and adaptive cost-factor refits all
    flush the whole cache, since any of them can change which plan is
    best for {e every} cached query. *)

type 'a t

(** How a lookup's key was built: [Template] = parameterized text with
    [$n] slots; [Exact] = full text, literals included. *)
type kind = Exact | Template

val create : ?capacity:int -> unit -> 'a t
(** LRU cache holding at most [capacity] entries (default 128; a
    capacity below 1 is clamped to 1). *)

val capacity : 'a t -> int

val find : ?kind:kind -> 'a t -> sql:string -> 'a option
(** Look up the plan cached for [sql]; a hit refreshes its LRU position
    and is classified under [kind] (default [Exact]).  Collisions are
    guarded by comparing the stored normalized text. *)

val add : 'a t -> sql:string -> 'a -> unit
(** Insert (or replace) the entry for [sql], evicting the least recently
    used entry when at capacity. *)

val note_replan : 'a t -> sql:string -> unit
(** Record that the sensitivity guard re-optimized under the entry for
    [sql] (a parameter region the generic plan was bad for).  Feeds the
    [replans]/[max_replans] stats the watchdog's parameter-sensitivity
    signal reads.  No-op when the entry is gone. *)

val invalidate_all : ?reason:string -> 'a t -> unit
(** Drop every entry.  [reason] (e.g. ["analyze"], ["ddl"],
    ["cost-refit"]) is recorded for {!stats}. *)

val length : 'a t -> int

(** Per-cache counters since [create]. *)
type stats = {
  hits : int;  (** total: template + exact *)
  template_hits : int;
  exact_hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** number of {!invalidate_all} calls *)
  replans : int;  (** {!note_replan} calls that found their entry *)
  max_replans : int;
      (** high-water replan count of any single entry — an entry
          accumulating these is a parameter-sensitive plan *)
  last_invalidation : string option;  (** reason of the most recent one *)
}

val stats : 'a t -> stats
