(** Incremental solving session over one persistent SAT instance.

    A session amortizes a run of queries that share a common [base]
    conjunction (a crosscheck row: every [C_A(i) ∧ C_B(j)] of row [i]
    shares [C_A(i)]).  The base is bit-blasted once as hard clauses; each
    query's remaining conjuncts are guarded by a fresh activation literal
    and decided with a MiniSat-style assumption solve, retaining learnt
    clauses, variable activities and saved phases across the whole run.
    CNF memoization (keyed by hash-consed expr ids) also survives the run,
    so repeated sub-structure is blasted once.

    {!check} answers are byte-for-byte the answers {!Solver.check} gives:
    the frontend pipeline is shared via {!Solver.check_with}, Sat
    witnesses are re-derived canonically from scratch (hook-suppressed),
    and under certify mode every query auto-falls back to the
    proof-checked scratch path — a session never publishes an uncertified
    Unsat.  See [session.ml]'s header for the full argument.

    Sessions are single-domain values: create and use a session on the
    same domain (its counters and query hook are that domain's). *)

type t

val create : Expr.boolean list -> t
(** [create base] opens a session whose every query is assumed to contain
    the conjuncts of [base]; they are asserted as hard clauses once.
    Bumps the calling domain's [sessions_opened] counter. *)

val check :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:Solver.budget ->
  t ->
  Expr.boolean list ->
  Solver.result
(** [check t conds] decides the conjunction of [conds] — which must
    include the session's base (extra occurrences of base conjuncts are
    recognized by expr id and not re-asserted) — on the session instance.
    Options mean exactly what they mean on {!Solver.check}.  [Unknown]
    means the budget bit; callers retry with {!Solver.check} (scratch)
    and should count the fallback in [scratch_fallbacks]. *)

type attribution =
  | Base_refuted
      (** the failed-assumption core was empty: the session's base (plus
          the query's unguarded units) is contradictory on its own, so
          {e every} query of this session is Unsat *)
  | Assumptions_refuted
      (** the conflict used this query's activation guard: the verdict
          implicates the query's own conjuncts, not the base alone *)

val check_attributed :
  ?use_interval:bool ->
  ?use_cache:bool ->
  ?budget:Solver.budget ->
  t ->
  Expr.boolean list ->
  Solver.result * attribution option
(** {!check}, additionally reporting — for an Unsat decided by the
    in-session assumption solve — which side the SAT core's failed-
    assumption set implicates.  The attribution is [None] whenever the
    answer did not come from the assumption solve: frontend
    short-circuits (constant folding, memo/canonical hits, the interval
    filter) and the certify-mode scratch fallback.  The crosscheck's
    row-pruning pass logs it to attribute each pruned row. *)
