(* SOFT time-to-verdict benchmark.

     soft_perf --workload W --seed N --seconds S --trace 0|1
               [--work-dir D] [--trace-dir D]

   runs one workload in this process and prints, as its last line, one
   JSON object with the keys correct, attempted, failed and metrics.
   With [--trace 0] the metrics are the end-to-end ones, measured
   untraced; with [--trace 1] they are the per-layer ones, taken from
   the same operations traced: spans, self times, counters, and the
   tracing overhead (the part of a traced verdict_s spent on tracing).
   Spans are kept in memory and written to the trace directory at
   exit.

   The seed reaches the program only as the exploration strategy
   [interleave:SEED]; the service takes no strategy, so on service_suite
   the seed only orders the warm resubmissions.  Every workload is a
   closed loop with one request outstanding.

   Two internal modes re-invoke this executable: [phase1] runs one
   agent's Phase 1 and save for the split workflow, one child at a time;
   [setup] performs one cold set-up and prints the wall-clock time at
   which its first layer call would start.  setup_s is the median, over
   fresh child processes, of that time minus the moment just before the
   child was spawned, so it counts the runtime's start and every linked
   library's initialisation.

   Outputs are checked after timing: replay validation of every reported
   inconsistency on the compare workloads, report byte-identity on the
   service.  Every violation is counted in [failed]; [correct] is false
   only when a check could not be made or the run's repeated verdicts
   disagree. *)

module P = Perfkit
module S = Smt.Solver
module Runner = Harness.Runner
module Serialize = Harness.Serialize
module Grouping = Soft.Grouping
module Crosscheck = Soft.Crosscheck
module Validate = Soft.Validate
module Service = Soft.Service

let now = Unix.gettimeofday

(* --- workloads ---------------------------------------------------------- *)

type kind = In_process | Split | J2 | Service_suite

type workload = {
  w_name : string;
  w_kind : kind;
  w_test : string;  (** the compare workloads' test *)
  w_max_paths : int;
}

let workloads =
  [
    { w_name = "eth_flow_mod"; w_kind = In_process; w_test = "eth_flow_mod"; w_max_paths = 4000 };
    { w_name = "packet_out_split"; w_kind = Split; w_test = "packet_out"; w_max_paths = 4000 };
    { w_name = "packet_out_j2"; w_kind = J2; w_test = "packet_out"; w_max_paths = 4000 };
    { w_name = "service_suite"; w_kind = Service_suite; w_test = ""; w_max_paths = 4000 };
  ]

let service_tests =
  [ "stats_request"; "set_config"; "cs_flow_mods"; "concrete"; "short_symb"; "packet_out" ]

let service_jobs = [| ("ref", "ovs"); ("ref", "modified") |]

(* p90 needs at least 100 samples; the count is fixed, not timed, because
   every warm job adds WAL records that the reopens then replay. *)
let warm_jobs = 120

let reopens = 7
let setup_samples = 41

let agents =
  [
    ("ref", Switches.Reference_switch.agent);
    ("ovs", Switches.Open_vswitch.agent);
    ("modified", Switches.Modified_switch.agent);
  ]

let agent name = List.assoc name agents

let spec_of id =
  match Harness.Test_spec.by_id id with Some s -> s | None -> invalid_arg ("unknown test " ^ id)

(* --- metric names ------------------------------------------------------- *)

let end_to_end = [ ("setup_s", "s"); ("verdict_s", "s"); ("peak_rss_mb", "MiB") ]

let self_layers =
  [ "bench"; "child"; "runner"; "serialize"; "grouping"; "crosscheck"; "pipeline"; "validate"; "service" ]

let per_layer =
  [
    ("phase1_s", "s"); ("check_s", "s"); ("failed_share", "ratio"); ("ops_attempted", "count");
    ("ops_failed", "count"); ("warm_job_p50_s", "s"); ("warm_job_p90_s", "s");
    ("warm_job_samples", "count"); ("recover_s", "s"); ("runner.a.execute_s", "s");
    ("runner.b.execute_s", "s"); ("runner.paths", "count"); ("runner.forks", "count");
    ("runner.aborted", "count"); ("runner.sat_calls", "count"); ("runner.cache_hits", "count");
    ("runner.interval_hits", "count"); ("runner.sat_s", "s"); ("runner.alloc_mw", "Mword");
    ("serialize.write_s", "s"); ("serialize.load_s", "s"); ("serialize.run_mb", "MiB");
    ("grouping.s", "s"); ("grouping.groups_a", "count"); ("grouping.groups_b", "count");
    ("grouping.pairs", "count"); ("crosscheck.s", "s"); ("crosscheck.pairs_per_s", "1/s");
    ("crosscheck.pairs_checked", "count"); ("crosscheck.pairs_equal", "count");
    ("crosscheck.undecided", "count"); ("crosscheck.rows_pruned", "count");
    ("crosscheck.pairs_skipped_by_pruning", "count"); ("crosscheck.subsumed_groups", "count");
    ("crosscheck.sat_calls", "count"); ("crosscheck.assumption_solves", "count");
    ("crosscheck.shared_solves", "count"); ("crosscheck.sessions_opened", "count");
    ("crosscheck.scratch_fallbacks", "count"); ("crosscheck.tiny_session_fallbacks", "count");
    ("crosscheck.cache_hits", "count"); ("crosscheck.canonical_hits", "count");
    ("crosscheck.memo_hit_rate", "ratio"); ("crosscheck.sat_s", "s");
    ("crosscheck.alloc_mw", "Mword"); ("crosscheck.bases_adopted", "count");
    ("crosscheck.clauses_exported", "count"); ("crosscheck.clauses_imported", "count");
    ("validate.s", "s"); ("validate.confirmed", "count"); ("validate.refuted", "count");
    ("validate.replay_failed", "count"); ("service.open_s", "s"); ("service.submit_s", "s");
    ("service.warm_serve_s", "s"); ("service.cold_sat_calls", "count");
    ("service.warm_sat_calls", "count"); ("service.replayed_records", "count");
    ("service.wal_records", "count"); ("service.store_entries", "count");
    ("service.warm_alloc_mw", "Mword");
  ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) self_layers
  @ [ ("trace.overhead_s", "s"); ("trace.spans", "count") ]

(* --- layer accounting --------------------------------------------------- *)

(* One operation's context.  A traced operation records spans and fills
   [c_vals], keyed by per-layer metric name; an untraced one does
   neither. *)
type ctx = { c_job : string; c_rec : P.recorder; c_vals : (string, float) Hashtbl.t option }

let set c name v = Option.iter (fun t -> Hashtbl.replace t name v) c.c_vals

let bump c name v =
  Option.iter
    (fun t -> Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name)))
    c.c_vals

let copy_stats () =
  let s = S.stats () in
  { s with S.queries = s.S.queries }

let diff_stats (a : S.stats) (b : S.stats) =
  {
    b with
    S.queries = b.queries - a.queries;
    const_hits = b.const_hits - a.const_hits;
    interval_hits = b.interval_hits - a.interval_hits;
    cache_hits = b.cache_hits - a.cache_hits;
    sat_calls = b.sat_calls - a.sat_calls;
    solver_time = b.solver_time -. a.solver_time;
    sessions_opened = b.sessions_opened - a.sessions_opened;
    assumption_solves = b.assumption_solves - a.assumption_solves;
    scratch_fallbacks = b.scratch_fallbacks - a.scratch_fallbacks;
    tiny_session_fallbacks = b.tiny_session_fallbacks - a.tiny_session_fallbacks;
    canonical_hits = b.canonical_hits - a.canonical_hits;
    rows_pruned = b.rows_pruned - a.rows_pruned;
    pairs_skipped_by_pruning = b.pairs_skipped_by_pruning - a.pairs_skipped_by_pruning;
    subsumed_groups = b.subsumed_groups - a.subsumed_groups;
    shared_solves = b.shared_solves - a.shared_solves;
    bases_adopted = b.bases_adopted - a.bases_adopted;
    clauses_exported = b.clauses_exported - a.clauses_exported;
    clauses_imported = b.clauses_imported - a.clauses_imported;
  }

type delta = { d_s : float; d_st : S.stats; d_mw : float }

(* A call into one layer: a span when traced; always its wall time, its
   solver-stats delta and its minor-heap allocation in Mwords.  A traced
   call also charges everything but [f] itself to trace.overhead_s, so
   the overhead is measured where it is spent rather than as the
   difference of two separate operations, which run-to-run noise
   swamps. *)
let layer c name f =
  let t_in = now () in
  let st0 = copy_stats () and mw0 = Gc.minor_words () and t0 = now () in
  let r, f_s =
    match c.c_vals with
    | None -> (f (), 0.0)
    | Some _ ->
      P.with_span c.c_rec ~job:c.c_job name (fun () ->
        let t = now () in
        let r = f () in
        (r, now () -. t))
  in
  let d = { d_s = now () -. t0; d_st = diff_stats st0 (copy_stats ()); d_mw = (Gc.minor_words () -. mw0) /. 1e6 } in
  bump c "trace.overhead_s" (now () -. t_in -. f_s);
  (r, d)

let runner_counters = [ "paths"; "forks"; "aborted"; "sat_calls"; "cache_hits"; "interval_hits" ]

let engine_counters (st : Symexec.Engine.run_stats) =
  [
    st.path_count; st.forks; st.aborted; st.solver_sat_calls; st.solver_cache_hits;
    st.solver_interval_hits;
  ]

let record_runner c which (run : Runner.run) d =
  set c (Printf.sprintf "runner.%s.execute_s" which) d.d_s;
  List.iter2
    (fun k v -> bump c ("runner." ^ k) (float_of_int v))
    runner_counters (engine_counters run.run_stats);
  bump c "runner.sat_s" d.d_st.S.solver_time;
  bump c "runner.alloc_mw" d.d_mw

let record_grouping c (ga : Grouping.grouped) (gb : Grouping.grouped) s =
  let na = List.length ga.gr_groups and nb = List.length gb.gr_groups in
  set c "grouping.s" s;
  set c "grouping.groups_a" (float_of_int na);
  set c "grouping.groups_b" (float_of_int nb);
  set c "grouping.pairs" (float_of_int (na * nb))

let record_crosscheck c (o : Crosscheck.outcome) s (st : S.stats) mw =
  let f name v = set c ("crosscheck." ^ name) (float_of_int v) in
  set c "crosscheck.s" s;
  set c "crosscheck.pairs_per_s" (float_of_int o.o_pairs_checked /. s);
  f "pairs_checked" o.o_pairs_checked;
  f "pairs_equal" o.o_pairs_equal;
  f "undecided" (Crosscheck.undecided_count o);
  f "rows_pruned" st.rows_pruned;
  f "pairs_skipped_by_pruning" st.pairs_skipped_by_pruning;
  f "subsumed_groups" st.subsumed_groups;
  f "sat_calls" st.sat_calls;
  f "assumption_solves" st.assumption_solves;
  f "shared_solves" st.shared_solves;
  f "sessions_opened" st.sessions_opened;
  f "scratch_fallbacks" st.scratch_fallbacks;
  f "tiny_session_fallbacks" st.tiny_session_fallbacks;
  f "cache_hits" st.cache_hits;
  f "canonical_hits" st.canonical_hits;
  f "bases_adopted" st.bases_adopted;
  f "clauses_exported" st.clauses_exported;
  f "clauses_imported" st.clauses_imported;
  (* exact-cache and canonical lookups happen after constant folding and
     the interval filter *)
  let lookups = st.queries - st.const_hits - st.interval_hits in
  set c "crosscheck.memo_hit_rate"
    (if lookups > 0 then float_of_int (st.cache_hits + st.canonical_hits) /. float_of_int lookups
     else 0.0);
  set c "crosscheck.sat_s" st.solver_time;
  set c "crosscheck.alloc_mw" mw

(* --- child processes ---------------------------------------------------- *)

(* Run this executable with [args] and wait for it; its stdout lines, or
   an error when it did not exit 0. *)
let run_child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> Ok (List.filter (( <> ) "") (String.split_on_char '\n' out))
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "child '%s' ended with status %d" (String.concat " " args) n)

(* Child output: "key value" lines and "span NAME START END" lines. *)
let parse_child lines =
  List.fold_left
    (fun (vals, spans) l ->
      match String.split_on_char ' ' l with
      | [ "span"; n; s; e ] -> (vals, (n, float_of_string s, float_of_string e) :: spans)
      | [ k; v ] -> ((k, float_of_string v) :: vals, spans)
      | _ -> failwith ("unexpected child output: " ^ l))
    ([], []) lines

let print_kv k v = Printf.printf "%s %s\n" k (P.json_number v)

(* [phase1] mode: one vendor's Phase 1 and save, as in the paper's §2.4. *)
let phase1_child ~agent_name ~test ~max_paths ~seed ~out =
  let c = { c_job = agent_name; c_rec = P.recorder (); c_vals = Some (Hashtbl.create 1) } in
  let run, d =
    layer c "runner.execute" (fun () ->
      Runner.execute ~max_paths ~strategy:(Symexec.Strategy.Interleave seed) (agent agent_name)
        (spec_of test))
  in
  let (), dw = layer c "serialize.save" (fun () -> Serialize.save out (Serialize.of_run run)) in
  print_kv "execute_s" d.d_s;
  print_kv "write_s" dw.d_s;
  print_kv "run_mb" (float_of_int (Unix.stat out).st_size /. 1048576.0);
  List.iter2 (fun k v -> print_kv k (float_of_int v)) runner_counters (engine_counters run.run_stats);
  print_kv "sat_s" d.d_st.S.solver_time;
  print_kv "alloc_mw" d.d_mw;
  print_kv "hwm_mb" (P.vm_hwm_mb ());
  List.iter
    (fun sp ->
      Printf.printf "span %s %s %s\n" sp.P.sp_name (P.json_number sp.sp_start)
        (P.json_number sp.sp_end))
    (P.spans c.c_rec)

(* --- files -------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p

let fresh_dir =
  let n = ref 0 in
  fun work ->
    incr n;
    let d = Filename.concat work (Printf.sprintf "svc-%d" !n) in
    rm_rf d;
    d

(* --- operations --------------------------------------------------------- *)

type env = { e_w : workload; e_seed : int; e_work : string }

(* One operation's outcome as the benchmark loop sees it. *)
type op = {
  o_verdict_s : float;
  o_report : string;  (** byte-stable verdict, compared across the run's ops *)
  o_outcome : Crosscheck.outcome option;  (** compare workloads: validated after timing *)
  o_attempted : int;
  o_failed : int;  (** service: units failed; compare: 0, validation adds its count *)
  o_hwm_mb : float;  (** peak RSS of the op's child processes, in MiB *)
  o_broken : string list;  (** checks that could not be made *)
}

let compare_op verdict (o : Crosscheck.outcome) hwm =
  {
    o_verdict_s = verdict;
    o_report = Crosscheck.render_stable o;
    o_outcome = Some o;
    o_attempted = o.o_pairs_checked;
    o_failed = 0;
    o_hwm_mb = hwm;
    o_broken = [];
  }

let strategy e = Symexec.Strategy.Interleave e.e_seed

(* eth_flow_mod: Runner.execute A, then B, then grouping and the
   crosscheck at one job — the calls Pipeline.compare_runs makes. *)
let op_in_process e c =
  let spec = spec_of e.e_w.w_test in
  let t0 = now () in
  let exec which name =
    let r, d =
      layer c "runner.execute" (fun () ->
        Runner.execute ~max_paths:e.e_w.w_max_paths ~strategy:(strategy e) (agent name) spec)
    in
    record_runner c which r d;
    (r, d.d_s)
  in
  let run_a, ea = exec "a" "ref" in
  let run_b, eb = exec "b" "ovs" in
  let (ga, gb), dg =
    layer c "grouping.of_run" (fun () -> (Grouping.of_run run_a, Grouping.of_run run_b))
  in
  let o, dc = layer c "crosscheck.check" (fun () -> Crosscheck.check ~jobs:1 ga gb) in
  let verdict = now () -. t0 in
  record_grouping c ga gb dg.d_s;
  record_crosscheck c o dc.d_s dc.d_st dc.d_mw;
  set c "phase1_s" (ea +. eb);
  set c "check_s" (dg.d_s +. dc.d_s);
  compare_op verdict o 0.0

(* packet_out_split: each vendor's Phase 1 in its own process, then the
   checker loads, groups and crosschecks the saved runs. *)
let op_split e c =
  let t0 = now () in
  let child which name =
    let out = Filename.concat e.e_work (name ^ ".run") in
    let res, _ =
      layer c "child.phase1" (fun () ->
        let r =
          run_child
            [ "phase1"; "--agent"; name; "--test"; e.e_w.w_test; "--max-paths";
              string_of_int e.e_w.w_max_paths; "--seed"; string_of_int e.e_seed; "--out"; out ]
        in
        Result.map parse_child r)
    in
    Result.map
      (fun (vals, spans) ->
        let v k = List.assoc k vals in
        if c.c_vals <> None then begin
          (* the child's spans nest under this process's child span *)
          let parent = P.last c.c_rec in
          List.iter (fun (n, s, t) -> P.add c.c_rec ~parent ~job:name n s t) spans
        end;
        set c (Printf.sprintf "runner.%s.execute_s" which) (v "execute_s");
        List.iter (fun k -> bump c ("runner." ^ k) (v k)) (runner_counters @ [ "sat_s"; "alloc_mw" ]);
        bump c "serialize.write_s" (v "write_s");
        bump c "serialize.run_mb" (v "run_mb");
        (out, v "execute_s", v "hwm_mb"))
      res
  in
  match child "a" "ref" with
  | Error m -> Error m
  | Ok (fa, ea, ha) -> (
    match child "b" "ovs" with
    | Error m -> Error m
    | Ok (fb, eb, hb) ->
      let (sa, sb), dl = layer c "serialize.load" (fun () -> (Serialize.load fa, Serialize.load fb)) in
      let (ga, gb), dg =
        layer c "grouping.of_saved" (fun () -> (Grouping.of_saved sa, Grouping.of_saved sb))
      in
      let o, dc = layer c "crosscheck.check" (fun () -> Crosscheck.check ~jobs:1 ga gb) in
      let verdict = now () -. t0 in
      set c "serialize.load_s" dl.d_s;
      record_grouping c ga gb dg.d_s;
      record_crosscheck c o dc.d_s dc.d_st dc.d_mw;
      set c "phase1_s" (ea +. eb);
      set c "check_s" (dl.d_s +. dg.d_s +. dc.d_s);
      Ok (compare_op verdict o (Float.max ha hb)))

(* packet_out_j2: the whole compare in one call at two jobs.  Phase 1 runs
   concurrently on pool domains inside it, so the layer split comes from
   the library's own timings and engine counters, and solver time and
   allocation stay whole-call figures under crosscheck.*. *)
let op_j2 e c =
  let t0 = now () in
  let cmp, d =
    layer c "pipeline.compare_agents" (fun () ->
      Soft.Pipeline.compare_agents ~max_paths:e.e_w.w_max_paths ~strategy:(strategy e) ~jobs:2
        (agent "ref") (agent "ovs") (spec_of e.e_w.w_test))
  in
  let verdict = now () -. t0 in
  let o = cmp.c_outcome in
  let ra = cmp.c_run_a.run_stats and rb = cmp.c_run_b.run_stats in
  let group_s = cmp.c_grouped_a.gr_group_time +. cmp.c_grouped_b.gr_group_time in
  set c "runner.a.execute_s" ra.wall_time;
  set c "runner.b.execute_s" rb.wall_time;
  List.iter
    (fun st ->
      List.iter2 (fun k v -> bump c ("runner." ^ k) (float_of_int v)) runner_counters (engine_counters st))
    [ ra; rb ];
  let st =
    {
      d.d_st with
      S.sat_calls = d.d_st.S.sat_calls - ra.solver_sat_calls - rb.solver_sat_calls;
      cache_hits = d.d_st.S.cache_hits - ra.solver_cache_hits - rb.solver_cache_hits;
    }
  in
  record_grouping c cmp.c_grouped_a cmp.c_grouped_b group_s;
  record_crosscheck c o o.o_check_time st d.d_mw;
  set c "phase1_s" (d.d_s -. o.o_check_time -. group_s);
  set c "check_s" (o.o_check_time +. group_s);
  compare_op verdict o 0.0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Per-test sections of a service job report, without the header lines
   that name the job. *)
let report_sections report =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"== test " l -> go ([ l ] :: acc) rest
    | l :: rest -> (
      match acc with cur :: older -> go ((l :: cur) :: older) rest | [] -> go [] rest)
  in
  List.map (fun ls -> String.concat "\n" (List.rev ls)) (go [] (String.split_on_char '\n' report))

(* Units of a job report that fail against the cold report of the same
   job kind: a differing section, or one that settled as quarantined or
   lost; a missing report fails every unit. *)
let bad_units ~cold got =
  let n = List.length service_tests in
  match got with
  | None -> n
  | Some r ->
    let g = report_sections r and c = report_sections cold in
    if List.length g <> n || List.length c <> n then n
    else
      List.fold_left2
        (fun acc a b ->
          let bad =
            a <> b
            || List.exists (contains a) [ ": quarantined ("; "verdict payload lost"; "unit not settled" ]
          in
          if bad then acc + 1 else acc)
        0 g c

let service_config e =
  Service.config ~max_paths:e.e_w.w_max_paths ~on_warning:prerr_endline ~agents ()

let submit c dir k =
  let a, b = service_jobs.(k) in
  match layer c "service.submit" (fun () -> Service.submit dir ~agent_a:a ~agent_b:b ~tests:service_tests) with
  | Ok id, d -> (id, d.d_s)
  | Error (`Backpressure n), _ -> failwith (Printf.sprintf "service refused a job at queue depth %d" n)

(* service_suite: a fresh service directory, both jobs drained cold, the
   same jobs resubmitted warm one at a time, then repeated recoveries. *)
let op_service e c =
  let dir = fresh_dir e.e_work and cfg = service_config e in
  let t, d_open = layer c "service.open_service" (fun () -> Service.open_service cfg dir) in
  set c "service.open_s" d_open.d_s;
  let sat0 = (S.stats ()).sat_calls in
  let t0 = now () in
  let cold = Array.mapi (fun k _ -> submit c dir k) service_jobs in
  let (), _ = layer c "service.serve" (fun () -> Service.serve ~once:true t) in
  let verdict = now () -. t0 in
  set c "service.cold_sat_calls" (float_of_int ((S.stats ()).sat_calls - sat0));
  let cold_reports = Array.map (fun (id, _) -> Service.report dir id) cold in
  let cold_text k = Option.value ~default:"" cold_reports.(k) in
  let attempted = ref 0 and failed = ref 0 in
  let units n bad =
    attempted := !attempted + n;
    failed := !failed + bad
  in
  Array.iteri (fun k r -> units (List.length service_tests) (bad_units ~cold:(cold_text k) r)) cold_reports;
  (* warm: resubmissions answered from the store, in a seeded order *)
  let rng = Random.State.make [| e.e_seed |] in
  let order = Array.init warm_jobs (fun i -> i mod Array.length service_jobs) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let sat1 = (S.stats ()).sat_calls and mw1 = Gc.minor_words () in
  let jobs = ref [] and submits = ref (Array.to_list (Array.map snd cold)) and serves = ref [] in
  Array.iter
    (fun k ->
      let t1 = now () in
      let id, ds = submit c dir k in
      let (), dv = layer c "service.serve" (fun () -> Service.serve ~once:true t) in
      jobs := (now () -. t1) :: !jobs;
      submits := ds :: !submits;
      serves := dv.d_s :: !serves;
      units (List.length service_tests) (bad_units ~cold:(cold_text k) (Service.report dir id)))
    order;
  let warm_sat = (S.stats ()).sat_calls - sat1 in
  set c "service.warm_sat_calls" (float_of_int warm_sat);
  set c "service.warm_alloc_mw" ((Gc.minor_words () -. mw1) /. 1e6);
  set c "service.submit_s" (P.median !submits);
  set c "service.warm_serve_s" (P.median !serves);
  set c "warm_job_p50_s" (P.median !jobs);
  set c "warm_job_p90_s" (Option.value ~default:0.0 (P.tail_percentile 90.0 !jobs));
  set c "warm_job_samples" (float_of_int (List.length !jobs));
  Service.close t;
  (* recovery: the cold jobs' reports are removed before each reopen, so
     open_service must rebuild them from the WAL and the store *)
  let reopen_s = ref [] in
  for _ = 1 to reopens do
    Array.iter
      (fun (id, _) ->
        let p = Filename.concat (Filename.concat dir "reports") (id ^ ".report") in
        if Sys.file_exists p then Sys.remove p)
      cold;
    let t', d = layer c "service.open_service" (fun () -> Service.open_service cfg dir) in
    reopen_s := d.d_s :: !reopen_s;
    set c "service.replayed_records" (float_of_int (Service.replayed_records t'));
    Array.iteri
      (fun k (id, _) ->
        let got = Service.report dir id in
        let bad = if got = cold_reports.(k) then bad_units ~cold:(cold_text k) got else List.length service_tests in
        units (List.length service_tests) bad)
      cold;
    Service.close t'
  done;
  set c "recover_s" (P.median !reopen_s);
  let st = Service.status dir in
  set c "service.wal_records" (float_of_int st.ss_wal_records);
  set c "service.store_entries" (float_of_int st.ss_store_entries);
  let broken =
    (if warm_sat <> 0 then [ Printf.sprintf "%d SAT calls on the warm path" warm_sat ] else [])
    @ (if st.ss_units_quarantined + st.ss_verdicts_lost <> 0 then [ "quarantined or lost units" ] else [])
  in
  rm_rf dir;
  {
    o_verdict_s = verdict;
    o_report =
      String.concat "\n" (List.concat_map (fun k -> report_sections (cold_text k)) (List.init (Array.length cold) Fun.id));
    o_outcome = None;
    o_attempted = !attempted;
    o_failed = !failed;
    o_hwm_mb = 0.0;
    o_broken = broken;
  }

let run_op e c =
  match e.e_w.w_kind with
  | In_process -> Ok (op_in_process e c)
  | Split -> op_split e c
  | J2 -> Ok (op_j2 e c)
  | Service_suite -> Ok (op_service e c)

(* --- set-up ------------------------------------------------------------- *)

(* What a fresh benchmark process does after parsing its arguments and
   before its first layer call. *)
let setup e =
  match e.e_w.w_kind with
  | Service_suite ->
    let dir = fresh_dir e.e_work in
    Service.close (Service.open_service (service_config e) dir);
    rm_rf dir
  | In_process | Split | J2 ->
    ignore (agent "ref", agent "ovs", spec_of e.e_w.w_test);
    S.clear_cache ()

(* One cold set-up in a fresh process: from just before the spawn to the
   child's wall clock at the point of its first layer call.  Like the
   spans, this assumes the wall clock is shared across processes. *)
let cold_setup_s e =
  let t0 = now () in
  match
    run_child [ "setup"; "--workload"; e.e_w.w_name; "--seed"; string_of_int e.e_seed; "--work-dir"; e.e_work ]
  with
  | Ok lines -> List.assoc "ready" (fst (parse_child lines)) -. t0
  | Error m -> failwith m

(* --- the benchmark loop ------------------------------------------------- *)

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let write_trace ~dir e spans self =
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" e.e_w.w_name e.e_seed) in
  Out_channel.with_open_text path (fun oc ->
    Printf.fprintf oc
      "{\"workload\": %s, \"seed\": %d, \"max_paths\": %d, \"nproc\": %d, \"ocaml\": %s,\n\"self_s\": {%s},\n\"spans\": %s}\n"
      (P.json_string e.e_w.w_name) e.e_seed e.e_w.w_max_paths (Domain.recommended_domain_count ())
      (P.json_string Sys.ocaml_version)
      (String.concat ", " (List.map (fun (n, v) -> P.json_string n ^ ": " ^ P.json_number v) self))
      (P.spans_json spans))

let drive e ~seconds ~trace ~trace_dir =
  let setups = List.init setup_samples (fun _ -> cold_setup_s e) in
  setup e;
  let recorder = P.recorder () in
  (* Timed operations, closed loop, until [seconds] have passed.  Peak
     memory is taken after the first one: later operations in this process
     reuse its heap, so their peak would depend on how many ran. *)
  let t_start = now () and hwm = ref 0.0 in
  let rec loop i acc =
    let c =
      {
        c_job = Printf.sprintf "%s/op%d" e.e_w.w_name i;
        c_rec = recorder;
        c_vals = (if trace then Some (Hashtbl.create 64) else None);
      }
    in
    S.clear_cache ();
    let r = if trace then fst (layer c "bench.op" (fun () -> run_op e c)) else run_op e c in
    (match r with
     | Ok o ->
       if i = 0 then hwm := Float.max (P.vm_hwm_mb ()) o.o_hwm_mb;
       Printf.eprintf "%s: verdict %.3f s\n%!" c.c_job o.o_verdict_s
     | Error m -> Printf.eprintf "%s: %s\n%!" c.c_job m);
    let acc = (r, c) :: acc in
    if now () -. t_start >= seconds then List.rev acc else loop (i + 1) acc
  in
  let results = loop 0 [] in
  let ops = List.filter_map (fun (r, c) -> Result.to_option r |> Option.map (fun o -> (o, c))) results in
  if ops = [] then failwith "no operation completed";
  let errors = List.filter_map (fun (r, _) -> match r with Error m -> Some m | Ok _ -> None) results in
  (* output checks, untimed *)
  let vctx = { c_job = e.e_w.w_name ^ "/validate"; c_rec = recorder; c_vals = (if trace then Some (Hashtbl.create 8) else None) } in
  let per_op_failed =
    match List.rev ops with
    | ({ o_outcome = Some o; _ }, _) :: _ ->
      let v, d =
        layer vctx "validate.validate" (fun () ->
          Validate.validate ~max_paths:e.e_w.w_max_paths (agent "ref") (agent "ovs") (spec_of e.e_w.w_test) o)
      in
      set vctx "validate.s" d.d_s;
      set vctx "validate.confirmed" (float_of_int v.vs_confirmed);
      set vctx "validate.refuted" (float_of_int v.vs_refuted);
      set vctx "validate.replay_failed" (float_of_int v.vs_failed);
      Crosscheck.undecided_count o + v.vs_refuted + v.vs_failed
    | _ -> 0
  in
  (* The counts describe the run's verdict once, not once per repetition:
     how many operations fit in [seconds] depends on the machine's speed,
     and the counts must not.  Every repetition has to reproduce the
     verdict byte for byte (checked below), and the worst repetition's
     failures are the ones counted. *)
  let attempted = List.fold_left (fun a (o, _) -> max a o.o_attempted) 0 ops in
  let failed = per_op_failed + List.fold_left (fun a (o, _) -> max a o.o_failed) 0 ops in
  let reports = List.sort_uniq compare (List.map (fun (o, _) -> o.o_report) ops) in
  let broken =
    errors
    @ List.concat_map (fun (o, _) -> o.o_broken) ops
    @
    match reports with
    | a :: b :: _ ->
      let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
      let rec first = function
        | x :: xs, y :: ys -> if x = y then first (xs, ys) else Printf.sprintf "%S vs %S" x y
        | _ -> "lengths differ"
      in
      [ "the run's repeated verdicts differ: " ^ first (la, lb) ]
    | _ -> []
  in
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) broken;
  let correct = broken = [] in
  let metrics =
    if not trace then
      let v =
        [
          ("setup_s", P.median setups);
          ("verdict_s", P.median (List.map (fun (o, _) -> o.o_verdict_s) ops));
          ("peak_rss_mb", !hwm);
        ]
      in
      List.map (fun (n, u) -> (n, u, List.assoc n v)) end_to_end
    else begin
      let spans = P.spans recorder in
      (* per operation, except validation, which runs once *)
      let n = float_of_int (List.length ops) and by_name = P.self_by_name spans in
      let self =
        List.map
          (fun l ->
            let s =
              List.fold_left (fun a (name, v) -> if layer_of name = l then a +. v else a) 0.0 by_name
            in
            (l ^ ".self_s", if l = "validate" then s else s /. n))
          self_layers
      in
      write_trace ~dir:trace_dir e spans self;
      let value name =
        let tables =
          if String.starts_with ~prefix:"validate." name then Option.to_list vctx.c_vals
          else List.filter_map (fun (_, c) -> c.c_vals) ops
        in
        match List.filter_map (fun t -> Hashtbl.find_opt t name) tables with
        | [] -> 0.0
        | vs -> P.median vs
      in
      let extra =
        [
          ("failed_share", P.failed_share ~attempted ~failed);
          ("ops_attempted", float_of_int attempted);
          ("ops_failed", float_of_int failed);
          ("trace.spans", float_of_int (List.length spans));
        ]
        @ self
      in
      List.map
        (fun (name, u) ->
          (name, u, match List.assoc_opt name extra with Some v -> v | None -> value name))
        per_layer
    end
  in
  print_endline (P.result_line ~correct ~attempted:(max 1 attempted) ~failed metrics)

(* --- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: soft_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--work-dir D] [--trace-dir D]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, opts =
    match args with
    | ("phase1" | "setup") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let opt k d = Option.value ~default:d (List.assoc_opt k opts) in
  let int_opt k d = match int_of_string_opt (opt k (string_of_int d)) with Some n -> n | None -> usage () in
  let work = opt "--work-dir" (Filename.concat ".bench_build" "perfbench-work") in
  match mode with
  | "phase1" ->
    phase1_child ~agent_name:(opt "--agent" "ref") ~test:(opt "--test" "packet_out")
      ~max_paths:(int_opt "--max-paths" 4000) ~seed:(int_opt "--seed" 42) ~out:(opt "--out" "phase1.run")
  | _ -> (
    let name = opt "--workload" "" in
    match List.find_opt (fun w -> w.w_name = name) workloads with
    | None ->
      prerr_endline ("unknown workload '" ^ name ^ "'");
      usage ()
    | Some w ->
      let work = Filename.concat work (Printf.sprintf "%s-%d" w.w_name (Unix.getpid ())) in
      mkdir_p work;
      let e = { e_w = w; e_seed = int_opt "--seed" 42; e_work = work } in
      Fun.protect
        ~finally:(fun () -> rm_rf work)
        (fun () ->
          if mode = "setup" then begin
            setup e;
            print_kv "ready" (now ())
          end
          else
            drive e
              ~seconds:(float_of_int (int_opt "--seconds" 10))
              ~trace:(int_opt "--trace" 0 = 1)
              ~trace_dir:(opt "--trace-dir" (Filename.concat ".bench_build" "perfbench-traces"))))
