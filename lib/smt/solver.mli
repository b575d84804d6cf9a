(** Solver frontend: the STP-shaped interface the rest of SOFT uses.

    A query is a conjunction of boolean expressions.  The pipeline is
    constant short-circuiting, then the sound UNSAT-only interval filter,
    then bit-blasting to the CDCL SAT core with model extraction.
    Results are memoized on the multiset of constraint ids.

    Every query may carry a resource {!budget}; exhausting it yields the
    third outcome [Unknown], which is never cached (a later identical
    query may carry a larger budget).

    All mutable frontend state (memo cache, stats, certify flag, query
    hook, default budget) is {e per-domain}: each domain owns an
    independent solver context, created on first use from the built-in
    defaults.  [check] is therefore safe to call concurrently from
    several domains.  Parallel drivers hand the parent's configuration
    to workers via {!snapshot_config}/{!apply_config} and fold worker
    counters back with {!merge_stats}. *)

type unknown_reason =
  | Out_of_conflicts  (** the conflict budget was exhausted *)
  | Out_of_decisions  (** the decision budget was exhausted *)
  | Out_of_time  (** the per-query wall-clock budget was exhausted *)
  | Proof_failed of string
      (** certify mode: the SAT core answered Unsat but the independent
          DRUP checker rejected its proof — the answer is not trusted *)

type result =
  | Sat of Model.t  (** satisfiable, with a concrete witness *)
  | Unsat
  | Unknown of unknown_reason  (** gave up within the budget *)

exception Solver_error of string * Expr.boolean list
(** Internal soundness violation (e.g. a SAT answer whose model does not
    satisfy the query), carrying the offending query.  A real exception
    rather than an [assert]: asserts vanish under [--release]. *)

val unknown_reason_to_string : unknown_reason -> string

(** {1 Budgets} *)

type budget = {
  b_max_conflicts : int option;  (** CDCL conflicts per query *)
  b_max_decisions : int option;  (** CDCL decisions per query *)
  b_timeout_ms : int option;  (** wall-clock per query, monotonic *)
}

val no_budget : budget
(** No limits; [solve] runs to completion (the pre-budget behaviour). *)

val budget :
  ?max_conflicts:int -> ?max_decisions:int -> ?timeout_ms:int -> unit -> budget

val set_default_budget : budget -> unit
(** Budget applied to queries that pass no explicit [?budget] {e in the
    calling domain}.  The CLI sets this from
    [--budget-ms]/[--max-conflicts] so limits reach every solver call in
    the process; worker domains inherit it via {!apply_config}. *)

val get_default_budget : unit -> budget

(** {1 Certification} *)

val set_certify : bool -> unit
(** When enabled, every query reaching the SAT core logs a DRUP proof;
    an [Unsat] answer is published only if {!Proof.check_derivation}
    accepts the proof, and is downgraded to [Unknown (Proof_failed _)]
    otherwise.  The interval pre-filter is bypassed (its Unsat answers
    carry no proof); constant folding of a literal [false] conjunct is the
    one remaining uncertified Unsat path.  Toggling flushes the memo
    cache: entries from the other regime are not comparable. *)

val certify_enabled : unit -> bool

val set_canon : bool -> unit
(** Enable/disable the α-invariant canonical memo layer (default on) in
    the calling domain.  On an exact-key cache miss the query's cheap
    {!Canon.fingerprint} is probed against an index of cached queries;
    only a fingerprint match triggers full canonicalization
    ({!Canon.of_conds}) to confirm the α-equivalence, so the common
    no-twin miss costs one memoized integer fold.  A confirmed hit
    answers Unsat directly (unsatisfiability transfers across the
    variable bijection) and pre-confirms Sat, whose witness is still
    replayed through the scratch core so published models are
    byte-identical to a fresh solve.  A hit consumes exactly the query-hook
    draw the solve it replaces would have consumed (fired directly on an
    Unsat hit, by the replay on a Sat hit), so fault-injection streams
    stay aligned with a [--no-canon] run.  Under certify a canonical hit is
    counted but {e never} trusted: the query falls through to the
    proof-checked core.  Toggling flushes nothing — canonical reuse
    stays sound either way. *)

val canon_enabled : unit -> bool

val default_canon_threshold : int
(** The measured node-count cutoff below which queries skip the
    canonical memo (64 — see [solver.ml]). *)

val set_canon_threshold : int -> unit
(** Set the cutoff: queries whose summed {!Expr.bool_size} is below it
    bypass the canonical lookup {e and} registration (counted in
    [canon_small_skips]; the cutoff in force is recorded in the
    [canon_threshold_nodes] gauge).  They are cheaper to solve than to
    canonicalize; the exact-key memo cache still serves their repeats.
    Process-wide, not per-domain, so pool workers and their caller
    always agree; [0] disables the skip entirely (tests targeting the
    canonical layer with tiny queries use that). *)

val canon_threshold : unit -> int

val set_query_hook : (unit -> unit) -> unit
(** Install a closure run on every query that reaches the SAT core
    (between deadline anchoring and the search).  Fault injection uses
    this to deliver solver faults and clock jumps; install
    [(fun () -> ())] to remove.  An exception it raises propagates to the
    {!check} caller.  The hook is per-domain: a crosscheck worker
    installing it for a pair's scope never perturbs other domains. *)

(** {1 Cross-domain configuration hand-off} *)

type config = {
  cfg_budget : budget;
  cfg_certify : bool;
  cfg_cache_capacity : int;
  cfg_canon : bool;
}
(** The configurable part of a domain's solver context — what a freshly
    spawned worker domain must inherit to behave like its parent. *)

val snapshot_config : unit -> config
(** The calling domain's current configuration. *)

val apply_config : config -> unit
(** Install [config] into the calling domain's context.  Flushes the
    memo cache iff the certify regime changes (entries from the other
    regime are not comparable), exactly as {!set_certify} does. *)

(** {1 Statistics} *)

type stats = {
  mutable queries : int;
  mutable const_hits : int;  (** answered by constant folding *)
  mutable interval_hits : int;  (** answered by the interval filter *)
  mutable cache_hits : int;
  mutable sat_calls : int;  (** queries reaching the SAT core *)
  mutable sat_results : int;
  mutable unsat_results : int;
  mutable unknown_results : int;  (** queries that exhausted their budget *)
  mutable cache_evictions : int;
      (** bounded (evict-LRU-half) eviction events at capacity *)
  mutable solver_time : float;  (** monotonic seconds inside the SAT core *)
  mutable proofs_checked : int;  (** certify mode: Unsat proofs validated *)
  mutable proofs_failed : int;  (** certify mode: proofs the checker rejected *)
  mutable sessions_opened : int;  (** incremental sessions created *)
  mutable assumption_solves : int;
      (** queries answered by an in-session assumption solve *)
  mutable scratch_fallbacks : int;
      (** session queries re-run from scratch after an in-session Unknown *)
  mutable tiny_session_fallbacks : int;
      (** crosscheck rows solved scratch because they held too few pairs
          for a session's bit-blast prefix to pay for itself *)
  mutable learnt_retained : int;
      (** learnt clauses already in a session's database when an
          assumption solve started — the reuse incrementality buys *)
  mutable canonical_hits : int;
      (** queries answered (or, under certify, pre-confirmed) by the
          α-invariant canonical memo after an exact-key miss *)
  mutable canon_small_skips : int;
      (** queries that bypassed the canonical memo (lookup and
          registration) because their boolean DAG was smaller than the
          node-count cutoff — cheaper to solve than to canonicalize *)
  mutable canon_threshold_nodes : int;
      (** gauge: the node-count cutoff in force when small queries were
          skipped; merged with [max], not [+] *)
  mutable rows_pruned : int;
      (** crosscheck rows skipped wholesale because the row condition is
          unsatisfiable against the other side's common constraint *)
  mutable pairs_skipped_by_pruning : int;
      (** pairwise checks avoided by row pruning and row subsumption *)
  mutable subsumed_groups : int;
      (** row-prune probes avoided because the row's condition is
          subsumed by an already-pruned row's condition *)
  mutable shared_solves : int;
  mutable bases_adopted : int;
  mutable clauses_exported : int;
  mutable clauses_imported : int;
      (** [shared_solves] to [clauses_imported] are retired and always
          0.  They counted the shared blasted base and its learnt-clause
          exchange, both removed; the fields stay only so existing
          readers of the record keep compiling.  Not reset, merged or
          printed. *)
  mutable expr_nodes : int;
      (** gauge: total nodes in the global {!Expr} hash-cons tables at the
          last {!capture_expr_stats}; merged with [max], not [+] *)
}

val stats : unit -> stats
(** The calling domain's counters, cumulative since the domain's first
    solver use or the last {!reset_stats}.  The returned record is live:
    later queries in this domain keep mutating it. *)

val reset_stats : unit -> unit

val merge_stats : into:stats -> stats -> unit
(** [merge_stats ~into src] adds every counter of [src] into [into] —
    except the retired fields, which it skips, and [expr_nodes], a gauge
    over one global table, which merges with [max] so folding several
    workers never double-counts shared nodes.
    Parallel drivers use it to fold worker-domain counters into the
    parent's record after the workers have quiesced; it performs no
    synchronization of its own. *)

val capture_expr_stats : unit -> unit
(** Record the current global {!Expr} hash-cons table size into the
    calling domain's [expr_nodes] gauge.  Called automatically by
    {!pp_stats} and by the crosscheck pool's worker-exit hook. *)

(** {1 Memo cache} *)

val clear_cache : unit -> unit
(** Drop both memo levels — the exact-key table and the canonical
    (α-invariant) fingerprint index.  Benchmarks use this to measure cold costs;
    reproducibility harnesses use it to realign two runs' query streams
    (a surviving canonical entry would let one run skip a SAT-core call,
    and its fault-injection draw, that the other still makes). *)

val cache_len : unit -> int
(** Entries currently in the calling domain's memo table.  The service's
    memory-pressure ladder reads this to report how much cache a shed
    released. *)

val set_cache_capacity : int -> unit
(** Entry count at which bounded eviction triggers (default 65536, per
    memo level); on reaching it the *colder half* of the entries
    (least-recently-used first — a hit moves an entry to the back) is
    discarded, keeping the hot half warm while bounding memory for
    week-long suite runs.
    @raise Invalid_argument on a non-positive capacity. *)

(** {1 Queries} *)

val check :
  ?use_interval:bool -> ?use_cache:bool -> ?budget:budget -> Expr.boolean list -> result
(** [check conds] decides the conjunction of [conds].  [use_interval]
    (default true) enables the interval pre-filter; [use_cache] (default
    true) the memo table; [budget] defaults to {!set_default_budget}'s
    value (initially unlimited).  [Unknown] results are never cached. *)

val check_with :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:budget ->
  core:(budget -> Expr.boolean list -> result) ->
  Expr.boolean list ->
  result
(** {!check} with a pluggable back end: the full frontend pipeline
    (constant folding, memo cache, interval filter, result sanity check
    and caching) runs as usual, and [core budget conds] decides the
    queries that survive it.  [check] is [check_with] over the scratch
    SAT core; {!Session.check} supplies an incremental assumption solve.
    Sharing the front half is what keeps the two modes' query streams —
    and hence their fault-injection draws and memo behaviour —
    identical. *)

val solve_scratch : ?fire_hook:bool -> budget -> Expr.boolean list -> result
(** A raw scratch SAT solve (blast + CDCL + certify-mode proof check) on
    the calling domain's context, bypassing constant folding, the cache
    and the interval filter.  [fire_hook] (default true) controls whether
    the {!set_query_hook} closure runs; the incremental session passes
    [false] when re-deriving a canonical witness so it does not consume a
    fault-injection draw scratch mode would not consume. *)

val run_query_hook : unit -> unit
(** Fire the calling domain's query hook, exactly as a query reaching the
    SAT core would.  The incremental session calls this once per
    assumption solve to keep the fault-injection stream aligned with
    scratch mode. *)

val is_sat :
  ?use_interval:bool -> ?use_cache:bool -> ?budget:budget -> Expr.boolean list -> bool
(** [Unknown] maps to [false]; callers that must distinguish "unsat" from
    "gave up" use {!check}. *)

val get_model :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:budget ->
  Expr.boolean list ->
  Model.t option

val entails : ?budget:budget -> Expr.boolean list -> Expr.boolean -> bool
(** [entails pc c] iff [pc ∧ ¬c] is unsatisfiable.  [Unknown] answers
    [false]: we refuse to certify an entailment we could not prove. *)

val pp_stats : Format.formatter -> unit -> unit
