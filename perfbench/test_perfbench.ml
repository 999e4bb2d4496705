(* Tests for the benchmark's own arithmetic: the tail-percentile rule, span
   self time, the host slowdown over an interval, and the result-line JSON
   round trip. *)

open Perfbench

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_rank () =
  (* 0.99 * 1000 is not exactly 990 in floating point; the integer rank is *)
  Alcotest.(check int) "p99 rank of 1000" 990 (Stats.rank 99 1000);
  Alcotest.(check int) "p90 rank of 100" 90 (Stats.rank 90 100);
  Alcotest.(check int) "p50 rank of 7" 4 (Stats.rank 50 7);
  Alcotest.(check int) "rank never below 1" 1 (Stats.rank 1 10)

let test_percentile () =
  let s = samples 1000 in
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Stats.percentile 99 s);
  Alcotest.(check (float 0.)) "median of 1..1000" 500. (Stats.median s);
  Alcotest.(check (float 0.)) "median of 1..7" 4. (Stats.median (samples 7));
  Alcotest.(check (float 0.)) "p100 is the max" 1000. (Stats.percentile 100 s)

let test_tail_rule () =
  let check n expected = Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected (Stats.tail_percentile n) in
  check 1000 (Some 99);
  check 999 (Some 90);
  check 5000 (Some 99);
  check 100 (Some 90);
  check 99 None;
  check 0 None;
  (* whichever percentile is chosen keeps at least ten samples beyond it *)
  for n = 1 to 3000 do
    match Stats.tail_percentile n with
    | Some p -> if Stats.beyond p n < 10 then Alcotest.failf "n=%d p%d keeps %d" n p (Stats.beyond p n)
    | None -> if n >= 100 then Alcotest.failf "n=%d has no tail" n
  done

let test_block_tail () =
  (* 300 samples 1..100 three times, with a burst of 1000s in the middle block *)
  let s = Array.init 300 (fun i -> if i >= 100 && i < 150 then 1000. else float_of_int (1 + (i mod 100))) in
  Alcotest.(check (option (triple int int (float 0.)))) "median block p90" (Some (90, 3, 90.)) (Stats.block_tail ~block:100 s);
  Alcotest.(check (option (triple int int (float 0.)))) "leftovers dropped" (Some (90, 1, 90.))
    (Stats.block_tail ~block:100 (Array.sub s 0 199 |> Array.mapi (fun i v -> if i < 100 then v else 0.)));
  Alcotest.(check (option (triple int int (float 0.)))) "p99 blocks" (Some (99, 1, 990.))
    (Stats.block_tail ~block:1000 (Array.init 1000 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (option (triple int int (float 0.)))) "too short" None (Stats.block_tail ~block:100 (Array.make 99 1.));
  Alcotest.(check (option (triple int int (float 0.)))) "block too small for a tail" None
    (Stats.block_tail ~block:50 (Array.make 500 1.))

let span name start stop parent = { Span.name; start; stop; parent }

let test_self_time () =
  let spans =
    [
      span "trial" 0. 10. (-1);
      span "a" 1. 3. 0;
      span "b" 2. 5. 0 (* overlaps a: [1,5] is covered once *);
      span "c" 9. 12. 0 (* clipped to the parent's end *);
      span "a" 3.5 4. 2 (* grandchild: counts against b, not trial *);
    ]
  in
  let selfs = List.map (fun ((s : Span.span), v) -> (s.Span.name, v)) (Span.self_times spans) in
  Alcotest.(check (list (pair string (float 1e-9))))
    "self times"
    [ ("trial", 5.); ("a", 2.); ("b", 2.5); ("c", 3.); ("a", 0.5) ]
    selfs;
  Alcotest.(check (list (pair string (float 1e-9))))
    "by name"
    [ ("trial", 5.); ("a", 2.5); ("b", 2.5); ("c", 3.) ]
    (Span.self_by_name spans);
  Alcotest.(check (float 1e-9)) "unattributed" 2. (Span.unattributed ~lo:(-1.) ~hi:11. spans)

let test_recorder () =
  let t = Span.create () in
  let v = Span.with_ t "outer" (fun () -> Span.with_ t "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  (try Span.with_ t "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Span.with_ t "after" ignore;
  let parents = List.map (fun (s : Span.span) -> (s.Span.name, s.Span.parent)) (Span.spans t) in
  Alcotest.(check (list (pair string int)))
    "tree survives an exception"
    [ ("outer", -1); ("inner", 0); ("raises", -1); ("after", -1) ]
    parents;
  (* more spans than the initial capacity *)
  for _ = 1 to 1000 do Span.with_ t "x" ignore done;
  Alcotest.(check int) "all recorded" 1004 (List.length (Span.spans t))

let test_json_round_trip () =
  let line =
    Json.result_line ~correct:true ~attempted:1200 ~failed:0
      [ ("trials_per_s", 1234.5678901234567, "1/s"); ("setup_s", 0.1, "s"); ("count", 3., "count");
        ("tiny", 1e-300, "ms"); ("name \"quoted\"\n", -2.5e10, "%") ]
  in
  let text = Json.to_string line in
  Alcotest.(check bool) "single line" false (String.contains text '\n');
  (match Json.parse text with
  | Ok back -> Alcotest.(check bool) "round trip" true (back = line)
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "integral float keeps a point" "3.0" (Json.float_repr 3.);
  (match Json.parse "{\"a\": [1, 2.5, true, null, \"\\u0041\"]}" with
  | Ok v ->
    Alcotest.(check bool) "parse" true
      (v = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null; Json.Str "A" ]) ])
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "trailing garbage rejected" true (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "truncated rejected" true (Result.is_error (Json.parse "{\"a\": [1,"));
  Alcotest.check_raises "non-finite refused" (Invalid_argument "Json.float_repr: non-finite number")
    (fun () -> ignore (Json.float_repr Float.nan))

let test_slowdown_over () =
  Alcotest.(check int) "one sample of reach either side" 1 Hostspeed.reach;
  (* sample i runs over [2i, 2i + 1], its two slices at factor.(i) times nominal *)
  let factor = [| 1.; 1.; 2.; 4.; 4.; 8. |] in
  let tl =
    Array.mapi
      (fun i f ->
        let at = 2. *. float_of_int i in
        { Hostspeed.at; until = at +. 1.; times = [ f *. Hostspeed.nominal_slice_s; f *. Hostspeed.nominal_slice_s ] })
      factor
  in
  let check name expected lo hi = Alcotest.(check (float 1e-9)) name expected (Hostspeed.slowdown_over tl lo hi) in
  check "between samples 2 and 3, with 1 and 4" 3. 5. 6.;
  check "an even count takes the midpoint" 1.5 3. 4.;
  check "a sample inside the interval counts" 4. 5.5 7.5;
  check "before every sample: the first two" 1. (-1.) (-0.5);
  check "after every sample: the last two" 6. 12. 13.;
  Alcotest.check_raises "no samples" (Invalid_argument "Hostspeed.slowdown_over: no samples") (fun () ->
      ignore (Hostspeed.slowdown_over [||] 0. 1.))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule keeps ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "median block tail" `Quick test_block_tail;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time minus children" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("json", [ Alcotest.test_case "result line round trip" `Quick test_json_round_trip ]);
      ("hostspeed", [ Alcotest.test_case "slowdown over an interval" `Quick test_slowdown_over ]);
    ]
