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

    Invalidation is explicit ({!invalidate_all}) and coarse: the caller
    flushes the whole cache.  The middleware does so on cost-factor
    changes and refits, on settings that choose plans, and when a lookup
    finds an entry whose plan reads a table that has changed version
    (an append, DDL, index DDL or ANALYZE) since it was planned. *)

type 'a t

(** How a lookup's key was built: [Template] = parameterized text with
    [$n] slots; [Exact] = full text, literals included. *)
type kind = Exact | Template

val create : ?capacity:int -> unit -> 'a t
(** LRU cache holding at most [capacity] entries (default 128; a
    capacity below 1 is clamped to 1). *)

val capacity : 'a t -> int

val find :
  ?kind:kind -> ?current:('a -> bool) -> 'a t -> sql:string -> 'a option
(** Look up the plan cached for [sql]; a hit refreshes its LRU position
    and is classified under [kind] (default [Exact]).  An entry [current]
    rejects (by default none) is not returned and counts as a miss.
    Collisions are guarded by comparing the stored normalized text. *)

val add : 'a t -> sql:string -> 'a -> unit
(** Insert (or replace) the entry for [sql], evicting the least recently
    used entry when at capacity. *)

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
  last_invalidation : string option;  (** reason of the most recent one *)
}

val stats : 'a t -> stats
