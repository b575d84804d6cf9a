(* Incremental crosscheck: MiniSat-style assumption solving in the SAT
   core, the session layer's equivalence with scratch solving, and the
   end-to-end claim — a crosscheck report is byte-identical whether the
   pairs were solved on per-row incremental sessions (the default) or on
   fresh per-pair instances, across randomized pair matrices, chaos
   seeds, certify mode, and worker counts. *)

open Smt
module Runner = Harness.Runner
module Test_spec = Harness.Test_spec
module Chaos = Harness.Chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_clean_world f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.deactivate ();
      Mono.reset_skew ();
      Solver.set_certify false;
      Solver.set_default_budget Solver.no_budget;
      Solver.clear_cache ())
    f

(* --- the SAT core's assumption interface ------------------------------- *)

let test_sat_assumptions () =
  let s = Sat.create () in
  let va = Sat.new_var s and vb = Sat.new_var s in
  let a = 2 * va and b = 2 * vb in
  Sat.add_clause s [ a; b ];
  check_bool "sat under [not a]" true (Sat.solve ~assumptions:[| Sat.lit_neg a |] s = Sat.Sat);
  check_bool "the model respects the assumption" true (not (Sat.model_value s va));
  check_bool "and satisfies the clause through b" true (Sat.model_value s vb);
  (match Sat.solve ~assumptions:[| Sat.lit_neg a; Sat.lit_neg b |] s with
  | Sat.Unsat ->
    let failed = Sat.failed_assumptions s in
    check_bool "failed assumptions reported" true (failed <> []);
    List.iter
      (fun l ->
        check_bool "failed subset drawn from the call's assumptions" true
          (l = Sat.lit_neg a || l = Sat.lit_neg b))
      failed
  | _ -> Alcotest.fail "expected unsat under contradictory assumptions");
  (* unsat-under-assumptions must not poison the instance *)
  check_bool "instance survives an assumption failure" true (Sat.solve s = Sat.Sat);
  (* an assumption contradicted at level 0 is the degenerate failure *)
  Sat.add_clause s [ a ];
  (match Sat.solve ~assumptions:[| Sat.lit_neg a |] s with
  | Sat.Unsat ->
    check_bool "root-level failure names the assumption itself" true
      (Sat.failed_assumptions s = [ Sat.lit_neg a ])
  | _ -> Alcotest.fail "expected unsat against a root-level unit");
  (* an assumption already true at level 0 costs an empty decision level *)
  check_bool "already-true assumptions are free" true
    (Sat.solve ~assumptions:[| a; b |] s = Sat.Sat);
  check_bool "still sat with no assumptions at all" true (Sat.solve s = Sat.Sat)

let test_sat_incremental_growth () =
  (* clauses and variables may arrive between solves; earlier answers must
     not leak into later ones *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  Sat.add_clause s [ (2 * v1) + 1 ];
  check_bool "first solve" true (Sat.solve s = Sat.Sat);
  let v2 = Sat.new_var s in
  Sat.add_clause s [ 2 * v2 ];
  Sat.add_clause s [ (2 * v2) + 1; 2 * v1 ];
  (* v2 ∧ (¬v2 ∨ v1) forces v1, contradicting the first unit: global unsat *)
  check_bool "growing into unsat is detected" true (Sat.solve s = Sat.Unsat);
  check_bool "a globally unsat instance stays unsat" true
    (Sat.solve ~assumptions:[| 2 * v1 |] s = Sat.Unsat)

(* --- the session layer ------------------------------------------------- *)

let vars = lazy (List.map (fun n -> Expr.var ~width:8 ("inc." ^ n)) [ "x"; "y"; "z" ])

let random_cond rng =
  let vars = Lazy.force vars in
  let v = List.nth vars (Random.State.int rng (List.length vars)) in
  let c = Expr.const ~width:8 (Int64.of_int (Random.State.int rng 256)) in
  match Random.State.int rng 4 with
  | 0 -> Expr.ult v c
  | 1 -> Expr.eq v c
  | 2 -> Expr.not_ (Expr.eq v c)
  | _ -> Expr.ult c v

let test_session_matches_scratch_queries () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let rng = Random.State.make [| 42 |] in
      for _ = 1 to 6 do
        let base = Expr.balanced_disj (List.init 3 (fun _ -> random_cond rng)) in
        let session = Session.create [ base ] in
        for _ = 1 to 12 do
          let extra = Expr.balanced_disj (List.init 2 (fun _ -> random_cond rng)) in
          Solver.clear_cache ();
          let r_inc = Session.check session [ base; extra ] in
          Solver.clear_cache ();
          let r_scr = Solver.check [ base; extra ] in
          match (r_inc, r_scr) with
          | Solver.Sat m1, Solver.Sat m2 ->
            check_bool "session publishes the scratch witness" true
              (Model.bindings m1 = Model.bindings m2)
          | Solver.Unsat, Solver.Unsat -> ()
          | _ -> Alcotest.fail "session verdict differs from scratch"
        done
      done)

(* --- crosscheck equivalence ------------------------------------------- *)

(* the one nondeterministic field is wall time; everything else must be
   byte-identical between the two solving modes *)
let canon (o : Soft.Crosscheck.outcome) =
  Format.asprintf "%a" Soft.Crosscheck.pp { o with Soft.Crosscheck.o_check_time = 0.0 }

(* A synthetic grouped run: randomized conditions over a tiny shared
   variable pool, result keys drawn so the two sides overlap on some
   (those pairs are skipped as equal) and differ on the rest. *)
let mk_grouped ~rng ~agent ~key_base n_groups =
  let groups =
    List.init n_groups (fun k ->
        let members = List.init (1 + Random.State.int rng 3) (fun _ -> random_cond rng) in
        let result =
          { Openflow.Trace.trace = [ Printf.sprintf "out:%d" (key_base + k) ]; crash = None }
        in
        {
          Soft.Grouping.g_result = result;
          g_key = Openflow.Trace.result_key result;
          g_cond = Expr.balanced_disj members;
          g_member_conds = members;
          g_path_count = List.length members;
        })
  in
  {
    Soft.Grouping.gr_agent = agent;
    gr_test = "synthetic";
    gr_groups = groups;
    gr_group_time = 0.0;
  }

let test_random_matrices_identical () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      for seed = 1 to 8 do
        let rng = Random.State.make [| seed |] in
        let na = 2 + Random.State.int rng 5 and nb = 2 + Random.State.int rng 5 in
        (* overlapping key ranges: some equal pairs, some crosschecked *)
        let a = mk_grouped ~rng ~agent:"A" ~key_base:0 na in
        let b = mk_grouped ~rng ~agent:"B" ~key_base:(Random.State.int rng 3) nb in
        let run ~incremental ~jobs =
          Solver.clear_cache ();
          Soft.Crosscheck.check ~jobs ~incremental a b
        in
        let scratch = run ~incremental:false ~jobs:1 in
        let msg s = Printf.sprintf "seed %d: %s" seed s in
        Alcotest.(check string)
          (msg "incremental -j1 byte-identical to scratch")
          (canon scratch)
          (canon (run ~incremental:true ~jobs:1));
        Alcotest.(check string)
          (msg "incremental -j4 byte-identical to scratch")
          (canon scratch)
          (canon (run ~incremental:true ~jobs:4))
      done)

let grouped_runs () =
  let spec = Test_spec.packet_out () in
  let run_a = Runner.execute ~max_paths:60 Switches.Reference_switch.agent spec in
  let run_b = Runner.execute ~max_paths:60 Switches.Modified_switch.agent spec in
  (Soft.Grouping.of_run run_a, Soft.Grouping.of_run run_b)

let test_real_runs_identical () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      let run ~incremental ~jobs =
        Solver.clear_cache ();
        Soft.Crosscheck.check ~jobs ~incremental a b
      in
      let scratch = run ~incremental:false ~jobs:1 in
      check_bool "some inconsistencies to disagree about" true
        (Soft.Crosscheck.count scratch > 0);
      Alcotest.(check string) "incremental -j1 identical on real runs" (canon scratch)
        (canon (run ~incremental:true ~jobs:1));
      Alcotest.(check string) "incremental -j4 identical on real runs" (canon scratch)
        (canon (run ~incremental:true ~jobs:4)))

let test_chaos_seeds_identical () =
  (* same chaos plan, same per-query fault stream: at -j1 the two modes
     fire the query hook at the same stream positions, so even the
     degraded reports must match byte for byte across all seeds *)
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      for seed = 1 to 8 do
        let run incremental =
          Solver.clear_cache ();
          Mono.reset_skew ();
          Chaos.install (Chaos.plan ~seed ~rate:0.3 ());
          let o = Soft.Crosscheck.check ~jobs:1 ~incremental a b in
          Chaos.deactivate ();
          Mono.reset_skew ();
          o
        in
        let scratch = run false in
        Alcotest.(check string)
          (Printf.sprintf "chaos seed %d: incremental report identical" seed)
          (canon scratch)
          (canon (run true))
      done)

let test_certify_forces_scratch_and_matches () =
  with_clean_world (fun () ->
      let a, b = grouped_runs () in
      Solver.set_certify true;
      let st = Solver.stats () in
      let sessions0 = st.Solver.sessions_opened in
      let proofs0 = st.Solver.proofs_checked in
      Solver.clear_cache ();
      let o_inc = Soft.Crosscheck.check ~jobs:1 ~incremental:true a b in
      check_int "certify mode opens no sessions" sessions0 st.Solver.sessions_opened;
      check_bool "certify mode still checks proofs" true (st.Solver.proofs_checked > proofs0);
      Solver.clear_cache ();
      let o_scr = Soft.Crosscheck.check ~jobs:1 ~incremental:false a b in
      Alcotest.(check string) "reports identical under certify" (canon o_scr) (canon o_inc))

(* --- the session counters --------------------------------------------- *)

let test_session_counters_and_merge () =
  with_clean_world (fun () ->
      Solver.set_certify false;
      let a, b = grouped_runs () in
      let st = Solver.stats () in
      let sessions0 = st.Solver.sessions_opened in
      let assumes0 = st.Solver.assumption_solves in
      Solver.clear_cache ();
      ignore (Soft.Crosscheck.check ~jobs:4 ~incremental:true a b);
      (* the crosscheck ran on worker domains; worker_exit folded the new
         counters back into this domain's record *)
      check_bool "sessions opened on workers merged back" true
        (st.Solver.sessions_opened > sessions0);
      check_bool "assumption solves merged back" true (st.Solver.assumption_solves > assumes0);
      (* merge_stats folds every new counter *)
      let src =
        {
          Solver.queries = 0;
          const_hits = 0;
          interval_hits = 0;
          cache_hits = 0;
          sat_calls = 0;
          sat_results = 0;
          unsat_results = 0;
          unknown_results = 0;
          cache_evictions = 0;
          solver_time = 0.0;
          proofs_checked = 0;
          proofs_failed = 0;
          sessions_opened = 3;
          assumption_solves = 7;
          scratch_fallbacks = 2;
          tiny_session_fallbacks = 5;
          learnt_retained = 11;
          canonical_hits = 13;
          canon_small_skips = 6;
          canon_threshold_nodes = 64;
          rows_pruned = 2;
          pairs_skipped_by_pruning = 9;
          subsumed_groups = 1;
          (* retired fields: always 0, never merged *)
          shared_solves = 0;
          bases_adopted = 0;
          clauses_exported = 0;
          clauses_imported = 0;
          expr_nodes = 0;
        }
      in
      let s1 = st.Solver.sessions_opened and a1 = st.Solver.assumption_solves in
      let f1 = st.Solver.scratch_fallbacks and l1 = st.Solver.learnt_retained in
      let t1 = st.Solver.tiny_session_fallbacks in
      let c1 = st.Solver.canonical_hits and r1 = st.Solver.rows_pruned in
      let p1 = st.Solver.pairs_skipped_by_pruning and g1 = st.Solver.subsumed_groups in
      let k1 = st.Solver.canon_small_skips in
      Solver.merge_stats ~into:st src;
      check_int "merge adds sessions_opened" (s1 + 3) st.Solver.sessions_opened;
      check_int "merge adds assumption_solves" (a1 + 7) st.Solver.assumption_solves;
      check_int "merge adds scratch_fallbacks" (f1 + 2) st.Solver.scratch_fallbacks;
      check_int "merge adds tiny_session_fallbacks" (t1 + 5) st.Solver.tiny_session_fallbacks;
      check_int "merge adds learnt_retained" (l1 + 11) st.Solver.learnt_retained;
      check_int "merge adds canonical_hits" (c1 + 13) st.Solver.canonical_hits;
      check_int "merge adds rows_pruned" (r1 + 2) st.Solver.rows_pruned;
      check_int "merge adds pairs_skipped_by_pruning" (p1 + 9) st.Solver.pairs_skipped_by_pruning;
      check_int "merge adds subsumed_groups" (g1 + 1) st.Solver.subsumed_groups;
      check_int "merge adds canon_small_skips" (k1 + 6) st.Solver.canon_small_skips;
      check_bool "merge maxes canon_threshold_nodes" true
        (st.Solver.canon_threshold_nodes >= 64))

let suite =
  [
    ("sat solve under assumptions", `Quick, test_sat_assumptions);
    ("sat instance grows between solves", `Quick, test_sat_incremental_growth);
    ("session answers match scratch queries", `Quick, test_session_matches_scratch_queries);
    ("randomized matrices: incremental = scratch", `Quick, test_random_matrices_identical);
    ("real runs: incremental = scratch at -j1/-j4", `Quick, test_real_runs_identical);
    ("chaos seeds: incremental = scratch", `Quick, test_chaos_seeds_identical);
    ("certify mode falls back to scratch", `Quick, test_certify_forces_scratch_and_matches);
    ("session counters fold across domains", `Quick, test_session_counters_and_merge);
  ]
