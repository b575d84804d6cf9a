(* Unit tests of the benchmark's own arithmetic. *)

module P = Perfkit

let feq = Alcotest.float 1e-9
let span id ?parent name s e = { P.sp_id = id; sp_name = name; sp_parent = parent; sp_job = "j"; sp_start = s; sp_end = e }

let percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (P.percentile 50.0 xs);
  Alcotest.check feq "p90 of 1..100" 90.0 (P.percentile 90.0 xs);
  Alcotest.check feq "p100 is the max" 100.0 (P.percentile 100.0 xs);
  Alcotest.check feq "one sample" 7.0 (P.percentile 90.0 [ 7.0 ]);
  Alcotest.check feq "median, even count" 2.5 (P.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "median, odd count" 3.0 (P.median [ 5.0; 3.0; 1.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Perfkit.percentile: no samples") (fun () ->
    ignore (P.percentile 50.0 []))

let sample_count_rule () =
  let n k = List.init k float_of_int in
  let some = Alcotest.(option feq) in
  Alcotest.check some "p90 needs 100 samples" None (P.tail_percentile 90.0 (n 99));
  Alcotest.check some "p90 at 100 samples" (Some 89.0) (P.tail_percentile 90.0 (n 100));
  Alcotest.check some "p99 needs 1000 samples" None (P.tail_percentile 99.0 (n 999));
  Alcotest.check some "p99 at 1000 samples" (Some 989.0) (P.tail_percentile 99.0 (n 1000));
  Alcotest.check some "p50 needs 20 samples" None (P.tail_percentile 50.0 (n 19))

let self_time () =
  (* root [0,10] > a [1,4] > a1 [2,3]; root > b [3,6] overlapping a;
     root > c [9,12] running past the root's end *)
  let spans =
    [
      span 0 "bench.op" 0.0 10.0;
      span 1 ~parent:0 "runner.execute" 1.0 4.0;
      span 2 ~parent:1 "serialize.save" 2.0 3.0;
      span 3 ~parent:0 "runner.execute" 3.0 6.0;
      span 4 ~parent:0 "crosscheck.check" 9.0 12.0;
    ]
  in
  let self id = P.self_time spans (List.nth spans id) in
  Alcotest.check feq "root minus the union of its children" 4.0 (self 0);
  Alcotest.check feq "grandchild only counts against its parent" 2.0 (self 1);
  Alcotest.check feq "leaf" 1.0 (self 2);
  Alcotest.check feq "overlapping sibling" 3.0 (self 3);
  Alcotest.check
    Alcotest.(list (pair string feq))
    "summed per name, first-seen order"
    [ ("bench.op", 4.0); ("runner.execute", 5.0); ("serialize.save", 1.0); ("crosscheck.check", 3.0) ]
    (P.self_by_name spans)

let recorder_nesting () =
  let r = P.recorder () in
  P.with_span r ~job:"w" "bench.op" (fun () ->
    P.with_span r ~job:"w" "runner.execute" (fun () -> ());
    P.add r ~parent:(P.last r) ~job:"w" "serialize.save" 0.0 0.0);
  match P.spans r with
  | [ inner; imported; outer ] ->
    Alcotest.(check (option int)) "outer is a root" None outer.P.sp_parent;
    Alcotest.(check (option int)) "inner nests in outer" (Some outer.sp_id) inner.sp_parent;
    Alcotest.(check (option int)) "imported span nests in inner" (Some inner.sp_id) imported.sp_parent;
    Alcotest.(check bool) "outer covers inner" true
      (outer.sp_start <= inner.sp_start && inner.sp_end <= outer.sp_end)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (P.valid_name n))
    [ "verdict_s"; "crosscheck.pairs_per_s"; "runner.a.execute_s"; "0x-1"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (P.valid_name n))
    [ ""; ".hidden"; "_x"; "-x"; "a b"; "a/b"; "ms%"; "é"; String.make 65 'a' ];
  Alcotest.check_raises "result line refuses a bad name"
    (Invalid_argument "Perfkit.result_line: bad metric name a b") (fun () ->
    ignore (P.result_line ~correct:true ~attempted:1 ~failed:0 [ ("a b", "s", 1.0) ]))

let failed_share () =
  Alcotest.check feq "refuted share" (14.0 /. 11329.0) (P.failed_share ~attempted:11329 ~failed:14);
  Alcotest.check feq "nothing failed" 0.0 (P.failed_share ~attempted:1 ~failed:0);
  Alcotest.check feq "everything failed" 1.0 (P.failed_share ~attempted:5 ~failed:5);
  List.iter
    (fun (a, f) ->
      match P.failed_share ~attempted:a ~failed:f with
      | _ -> Alcotest.failf "accepted attempted=%d failed=%d" a f
      | exception Invalid_argument _ -> ())
    [ (0, 0); (3, 4); (3, -1) ]

let result_line () =
  Alcotest.(check string)
    "exact digits, integral values without a fraction"
    "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"verdict_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}, \"runner.paths\": {\"value\": 4000, \"unit\": \"count\"}}}"
    (P.result_line ~correct:false ~attempted:3 ~failed:1
       [ ("verdict_s", "s", 0.1); ("runner.paths", "count", 4000.0) ])

let () =
  Alcotest.run "perfkit"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick percentiles;
          Alcotest.test_case "sample-count rule" `Quick sample_count_rule;
          Alcotest.test_case "failed_share" `Quick failed_share;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with nested spans" `Quick self_time;
          Alcotest.test_case "recorder nesting" `Quick recorder_nesting;
        ] );
      ( "output",
        [
          Alcotest.test_case "metric names" `Quick names;
          Alcotest.test_case "result line" `Quick result_line;
        ] );
    ]
