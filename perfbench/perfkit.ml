(* Pure helpers of the time-to-verdict benchmark: order statistics,
   in-memory spans with self time, metric-name rules, the failure share,
   and the result line the benchmark prints last.  Nothing here touches
   the SOFT libraries, so the unit tests exercise it directly. *)

(* --- order statistics --------------------------------------------------- *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  if xs = [] then invalid_arg "Perfkit.percentile: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Perfkit.percentile: p outside (0, 100]";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The sample-count rule: a tail percentile is reported only when at
   least ten samples lie beyond it, so p90 needs 100 samples and p99
   needs 1000. *)
let tail_percentile p xs =
  let n = float_of_int (List.length xs) in
  if n *. (100.0 -. p) /. 100.0 < 10.0 then None else Some (percentile p xs)

let median xs =
  if xs = [] then invalid_arg "Perfkit.median: no samples";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- failures ----------------------------------------------------------- *)

let failed_share ~attempted ~failed =
  if attempted < 1 then invalid_arg "Perfkit.failed_share: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Perfkit.failed_share: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted

(* --- metric names ------------------------------------------------------- *)

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* --- spans -------------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int option;
  sp_job : string;  (** workload or job identifier shared by related spans *)
  sp_start : float;  (** wall-clock seconds; comparable across processes *)
  sp_end : float;
}

(* Total length of the union of [(start, end)] intervals. *)
let covered intervals =
  let rec go acc cur = function
    | [] -> (match cur with Some (s, e) -> acc +. (e -. s) | None -> acc)
    | (s, e) :: rest -> (
      match cur with
      | None -> go acc (Some (s, e)) rest
      | Some (cs, ce) when s <= ce -> go acc (Some (cs, Float.max ce e)) rest
      | Some (cs, ce) -> go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0.0 None (List.sort compare intervals)

(* A span's self time: its duration minus the part of it that its direct
   children cover (children may overlap, so their union is taken). *)
let self_time spans sp =
  let clip c = (Float.max c.sp_start sp.sp_start, Float.min c.sp_end sp.sp_end) in
  let kids =
    List.filter_map
      (fun c ->
        if c.sp_parent = Some sp.sp_id then
          let s, e = clip c in
          if e > s then Some (s, e) else None
        else None)
      spans
  in
  (sp.sp_end -. sp.sp_start) -. covered kids

(* Self time summed per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let t = self_time spans sp in
      match Hashtbl.find_opt tbl sp.sp_name with
      | Some v -> Hashtbl.replace tbl sp.sp_name (v +. t)
      | None ->
        order := sp.sp_name :: !order;
        Hashtbl.replace tbl sp.sp_name t)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* The recorder: spans are kept in memory and written out at exit. *)
type recorder = {
  mutable r_spans : span list;  (** newest first *)
  mutable r_next : int;
  mutable r_stack : int list;  (** open spans, innermost first *)
}

let recorder () = { r_spans = []; r_next = 0; r_stack = [] }

(* Record a span timed elsewhere, such as in a child process. *)
let add r ~parent ~job name start stop =
  let id = r.r_next in
  r.r_next <- id + 1;
  r.r_spans <-
    { sp_id = id; sp_name = name; sp_parent = Some parent; sp_job = job; sp_start = start; sp_end = stop }
    :: r.r_spans

(* Time [f] as a span nested under the innermost open span.  The span's
   id is reserved before [f] runs so that the spans [f] opens can name it
   as their parent. *)
let with_span r ~job name f =
  let id = r.r_next in
  r.r_next <- id + 1;
  let parent = List.nth_opt r.r_stack 0 in
  r.r_stack <- id :: r.r_stack;
  let start = Unix.gettimeofday () in
  let finish () =
    r.r_stack <- List.tl r.r_stack;
    r.r_spans <-
      { sp_id = id; sp_name = name; sp_parent = parent; sp_job = job; sp_start = start;
        sp_end = Unix.gettimeofday () }
      :: r.r_spans
  in
  Fun.protect ~finally:finish f

let spans r = List.rev r.r_spans

(* Id of the most recently closed span. *)
let last r = match r.r_spans with sp :: _ -> sp.sp_id | [] -> invalid_arg "Perfkit.last: no spans"

(* --- JSON output -------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured; JSON has no NaN or infinity, so those are a
   benchmark bug, not a value. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Perfkit.json_number: not finite";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let spans_json spans =
  let one sp =
    Printf.sprintf "{\"id\":%d,\"name\":%s,\"parent\":%s,\"job\":%s,\"start\":%s,\"end\":%s}"
      sp.sp_id (json_string sp.sp_name)
      (match sp.sp_parent with Some p -> string_of_int p | None -> "null")
      (json_string sp.sp_job) (json_number sp.sp_start) (json_number sp.sp_end)
  in
  "[" ^ String.concat ",\n" (List.map one spans) ^ "]"

(* The benchmark's last line.  [metrics] is [(name, unit, value)]. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun (n, _, _) ->
      if not (valid_name n) then invalid_arg ("Perfkit.result_line: bad metric name " ^ n))
    metrics;
  let m =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v)
          (json_string u))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

(* --- process memory ----------------------------------------------------- *)

(* Peak resident set (VmHWM) of this process in MiB; 0 when /proc is
   unavailable. *)
let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)
