(* Tests for the native-codegen substrate: the {!Druzhba_pipeline.Emit} →
   `ocamlfind ocamlopt -shared` → Dynlink chain behind
   {!Druzhba_dsim.Native_substrate}.

   The load-bearing property is the cross-substrate one: for random
   programs at every optimization level, the Dynlinked emitted module is
   bit-identical to the interpreter and the closure compiler — sequential,
   batched, under fault overlays, and at the exact tick a budget runs dry.
   The rest covers the machinery around that property: the
   content-addressed build cache (memo hit, disk hit, corrupted-artifact
   recovery, failed-exec accounting), block packs (one exec per campaign
   block, same report as lone builds, fallback to a lone build),
   emitted-source determinism (what makes the cache sound), and graceful
   degradation when the toolchain is absent.

   On a machine without ocamlfind/natdynlink the whole binary degrades to
   a single passing test that prints the probe's reason — the same
   structured skip the campaign and bench layers perform. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
module Emit = Druzhba_pipeline.Emit
module Oracle = Druzhba_campaign.Oracle
module Campaign = Druzhba_campaign.Campaign

let stateful_pool = [| "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" |]
let stateless_pool = [| "stateless_full"; "stateless_arith"; "stateless_rel"; "stateless_mux" |]

(* A small random program, same draw shape as the campaign generator. *)
let draw_program seed =
  let prng = Prng.create seed in
  let depth = 1 + Prng.int prng 2 in
  let width = 1 + Prng.int prng 2 in
  let bits = [| 8; 16; 32 |].(Prng.int prng 3) in
  let stateful = stateful_pool.(Prng.int prng (Array.length stateful_pool)) in
  let stateless = stateless_pool.(Prng.int prng (Array.length stateless_pool)) in
  let desc =
    Dgen.generate
      (Dgen.config ~depth ~width ~bits ())
      ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
  in
  let mc = Fuzz.random_mc prng desc in
  (desc, mc, width, bits)

let native_exn d ~mc =
  match Native_substrate.create d ~mc with
  | Ok packed -> packed
  | Error reason -> Alcotest.failf "native substrate creation failed: %s" reason

(* Runs [sub] and returns everything observable: the trace rows, the final
   state, and — when a budget is given — whether it exhausted, where the
   trace stopped, and the fuel left.  [batch] is the lane count of a
   batched run. *)
let observe ?faults ?fuel ?batch ~inputs ~width sub =
  let buf = Trace.Buffer.create ~width ~capacity:(List.length inputs) in
  let budget = Option.map Budget.ticks fuel in
  let exhausted =
    match
      match batch with
      | Some batch -> Substrate.run_batch_into ?budget ?faults ~batch sub ~inputs buf
      | None -> Substrate.run_into ?budget ?faults sub ~inputs buf
    with
    | () -> false
    | exception Budget.Exhausted -> true
  in
  let rows = List.init (Trace.Buffer.length buf) (Trace.Buffer.row buf) in
  (rows, Substrate.current_state sub, exhausted, Option.map Budget.remaining budget)

(* Lane counts for the batched runs, one drawn per seed: 1 is the one-lane
   case of {!Batch.run} and 64 exceeds the 40 inputs. *)
let batch_pool = [| 1; 3; 16; 64 |]

let qcheck_cross_substrate =
  QCheck.Test.make ~name:"native is bit-identical to Engine and Compiled" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let desc, mc, width, bits = draw_program seed in
      let inputs = Traffic.phvs (Traffic.create ~seed:(Prng.derive seed 1) ~width ~bits) 40 in
      let batch =
        batch_pool.(Prng.int (Prng.create (Prng.derive seed 4)) (Array.length batch_pool))
      in
      List.for_all
        (fun level ->
          let d = Optimizer.apply ~level ~mc desc in
          let faults =
            Faults.generate ~seed:(Prng.derive seed 2) ~desc:d ~n_inputs:40 ~count:3 ()
          in
          let fuel = 5 + Prng.int (Prng.create (Prng.derive seed 3)) 60 in
          List.for_all
            (fun (faults, fuel, batched) ->
              let batch = if batched then Some batch else None in
              let run sub = observe ?faults ?fuel ?batch ~inputs ~width sub in
              let native = run (native_exn d ~mc) in
              let engine = run (Substrate.of_engine ~label:"interpreter" d ~mc) in
              let compiled = run (Substrate.of_compiled (Compile.compile d ~mc)) in
              if native = engine && native = compiled then true
              else
                QCheck.Test.fail_reportf
                  "seed %d, level %s, faults=%b fuel=%s batch=%s: native diverges" seed
                  (Optimizer.level_name level) (Option.is_some faults)
                  (match fuel with Some f -> string_of_int f | None -> "-")
                  (match batch with Some b -> string_of_int b | None -> "-"))
            [
              (None, None, false);
              (None, None, true);
              (Some faults, None, false);
              (Some faults, None, true);
              (None, Some fuel, false);
              (Some faults, Some fuel, true);
            ])
        [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ])

(* --- Build cache ------------------------------------------------------------- *)

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "druzhba-native-test-%d" (Unix.getpid ()))
  in
  let rec remove_tree path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  remove_tree dir;
  Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" dir;
  Native_substrate.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" "";
      Native_substrate.clear_memo ();
      remove_tree dir)
    (fun () -> f dir)

let rec find_cmxs dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun e ->
         let path = Filename.concat dir e in
         if Sys.is_directory path then find_cmxs path
         else if Filename.check_suffix path ".cmxs" then [ path ]
         else [])

let cache_fixture () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ~bits:8 ())
      ~stateful:(Atoms.find_exn "raw") ~stateless:(Atoms.find_exn "stateless_mux")
  in
  (desc, Fuzz.random_mc (Prng.create 424242) desc)

let test_cache_hit_miss () =
  with_temp_cache_dir (fun _dir ->
      let desc, mc = cache_fixture () in
      let s0 = Native_substrate.stats () in
      ignore (native_exn desc ~mc);
      let s1 = Native_substrate.stats () in
      Alcotest.(check int) "fresh dir: one compile"
        (s0.Native_substrate.st_compiles + 1)
        s1.Native_substrate.st_compiles;
      ignore (native_exn desc ~mc);
      let s2 = Native_substrate.stats () in
      Alcotest.(check int) "second create: memo hit"
        (s1.Native_substrate.st_memo_hits + 1)
        s2.Native_substrate.st_memo_hits;
      Alcotest.(check int) "second create: no compile" s1.Native_substrate.st_compiles
        s2.Native_substrate.st_compiles;
      Native_substrate.clear_memo ();
      ignore (native_exn desc ~mc);
      let s3 = Native_substrate.stats () in
      Alcotest.(check int) "after clear_memo: disk cache hit"
        (s2.Native_substrate.st_cache_hits + 1)
        s3.Native_substrate.st_cache_hits;
      Alcotest.(check int) "after clear_memo: still no compile" s2.Native_substrate.st_compiles
        s3.Native_substrate.st_compiles)

(* The torn-write scenario: a killed process left a garbage `.cmxs` at the
   content-addressed path, and a fresh process must evict and rebuild it
   rather than propagate the Dynlink error.  The corrupt artifact is
   pre-seeded at {!Native_substrate.artifact_path} for a key this process
   has never loaded — corrupting an already-loaded path would be masked by
   the dynamic loader's handle cache (dlopen serves the old mapping for a
   known path), which is exactly not the scenario recovery exists for. *)
let test_corrupted_cmxs_recovery () =
  with_temp_cache_dir (fun dir ->
      let desc =
        Dgen.generate
          (Dgen.config ~depth:1 ~width:2 ~bits:16 ())
          ~stateful:(Atoms.find_exn "sub") ~stateless:(Atoms.find_exn "stateless_rel")
      in
      let mc = Fuzz.random_mc (Prng.create 777777) desc in
      Unix.mkdir dir 0o755;
      let cmxs = Native_substrate.artifact_path desc ~mc in
      let oc = open_out_bin cmxs in
      output_string oc "this is not a shared object";
      close_out oc;
      let s0 = Native_substrate.stats () in
      let packed = native_exn desc ~mc in
      let s1 = Native_substrate.stats () in
      Alcotest.(check int) "the corrupt artifact is found in the cache"
        (s0.Native_substrate.st_cache_hits + 1)
        s1.Native_substrate.st_cache_hits;
      Alcotest.(check int) "recovery recompiles once"
        (s0.Native_substrate.st_compiles + 1)
        s1.Native_substrate.st_compiles;
      (match find_cmxs dir with
      | [ rebuilt ] ->
        Alcotest.(check string) "rebuilt at the same content address" cmxs rebuilt
      | files -> Alcotest.failf "expected exactly one cached .cmxs, found %d" (List.length files));
      (* and the recovered module actually runs *)
      let inputs = Traffic.phvs (Traffic.create ~seed:5 ~width:2 ~bits:16) 8 in
      let buf = Trace.Buffer.create ~width:2 ~capacity:8 in
      Substrate.run_into packed ~inputs buf;
      Alcotest.(check int) "recovered module simulates" 8 (Trace.Buffer.length buf))

(* A failed ocamlopt exec publishes nothing, so it must not count as a
   compile: [st_compiles] equals the `.cmxs` files a cache gains, which the
   benchmark checks.  Garbage cmis make discovery succeed and every exec
   fail.  A failed pack falls back to a lone build, and its members are
   built alone from then on rather than retrying the pack. *)
let test_failed_exec_not_counted () =
  with_temp_cache_dir (fun dir ->
      let include_dir = dir ^ "-include" in
      Unix.mkdir include_dir 0o755;
      List.iter
        (fun cmi ->
          Out_channel.with_open_bin (Filename.concat include_dir cmi) (fun oc ->
              Out_channel.output_string oc "not a cmi"))
        [ "druzhba_dsim.cmi"; "druzhba_dsim__Native_abi.cmi" ];
      let saved = Option.value (Sys.getenv_opt "DRUZHBA_NATIVE_INCLUDE") ~default:"" in
      Unix.putenv "DRUZHBA_NATIVE_INCLUDE" include_dir;
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "DRUZHBA_NATIVE_INCLUDE" saved;
          Array.iter (fun f -> Sys.remove (Filename.concat include_dir f)) (Sys.readdir include_dir);
          Unix.rmdir include_dir)
        (fun () ->
          let failed_execs ?build_with (desc, mc) =
            let s0 = Native_substrate.stats () in
            (match Native_substrate.create ?build_with desc ~mc with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "create must fail against garbage cmis");
            let s1 = Native_substrate.stats () in
            Alcotest.(check int) "no compile counted" s0.Native_substrate.st_compiles
              s1.Native_substrate.st_compiles;
            s1.Native_substrate.st_failed - s0.Native_substrate.st_failed
          in
          Alcotest.(check int) "a lone build: one failed exec" 1 (failed_execs (cache_fixture ()));
          let programs =
            List.map (fun seed -> let desc, mc, _, _ = draw_program seed in (desc, mc)) [ 31; 32 ]
          in
          let build_with () = programs in
          Alcotest.(check int) "a failed pack, then the lone build" 2
            (failed_execs ~build_with (List.hd programs));
          Alcotest.(check int) "a failed pack's member is built alone" 1
            (failed_execs ~build_with (List.nth programs 1))))

(* --- Block packs ------------------------------------------------------------- *)

let compiles () = (Native_substrate.stats ()).Native_substrate.st_compiles

let simulates packed ~width ~bits =
  let inputs = Traffic.phvs (Traffic.create ~seed:5 ~width ~bits) 8 in
  let buf = Trace.Buffer.create ~width ~capacity:8 in
  Substrate.run_into packed ~inputs buf;
  Alcotest.(check int) "the module simulates" 8 (Trace.Buffer.length buf)

let native_campaign ~jobs ~checkpoint_every =
  Campaign.to_json
    (Campaign.run
       (Campaign.config ~trials:40 ~jobs ~substrate:"native" ~phvs:20 ~checkpoint_every ()))

(* A campaign block builds every native program in one ocamlopt exec at any
   job count, and the report is byte-identical to one-trial blocks, where
   every program is built alone. *)
let test_one_exec_per_block () =
  let lone = with_temp_cache_dir (fun _ -> native_campaign ~jobs:1 ~checkpoint_every:1) in
  List.iter
    (fun jobs ->
      with_temp_cache_dir (fun dir ->
          let c0 = compiles () in
          let json = native_campaign ~jobs ~checkpoint_every:64 in
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: one compile" jobs)
            (c0 + 1) (compiles ());
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: one .cmxs" jobs)
            1
            (List.length (find_cmxs dir));
          Alcotest.(check string) (Printf.sprintf "jobs %d: same report as lone builds" jobs) lone json))
    [ 1; 2 ]

let test_pack_fallbacks () =
  let desc, mc, width, bits = draw_program 11 in
  with_temp_cache_dir (fun dir ->
      let c0 = compiles () in
      (match Native_substrate.create ~build_with:(fun () -> failwith "boom") desc ~mc with
      | Ok packed -> simulates packed ~width ~bits
      | Error e -> Alcotest.failf "a raising build_with must fall back to a lone build: %s" e);
      Alcotest.(check int) "one lone compile" (c0 + 1) (compiles ());
      Alcotest.(check (list string)) "the lone artifact"
        [ Native_substrate.artifact_path desc ~mc ]
        (find_cmxs dir));
  with_temp_cache_dir (fun dir ->
      ignore (Native_substrate.create ~build_with:(fun () -> [ (desc, mc) ]) desc ~mc);
      Alcotest.(check (list string)) "a build_with of the requester alone builds it alone"
        [ Native_substrate.artifact_path desc ~mc ]
        (find_cmxs dir))

let test_pack_disk_hit () =
  let programs = List.map (fun seed -> let desc, mc, _, _ = draw_program seed in (desc, mc)) [ 21; 22; 23 ] in
  let desc, mc = List.hd programs in
  let build_with () = programs in
  with_temp_cache_dir (fun dir ->
      let s0 = Native_substrate.stats () in
      ignore (Native_substrate.create ~build_with desc ~mc);
      let s1 = Native_substrate.stats () in
      Alcotest.(check int) "one compile for the pack"
        (s0.Native_substrate.st_compiles + 1)
        s1.Native_substrate.st_compiles;
      Alcotest.(check bool) "the artifact is a pack" true
        (match find_cmxs dir with
         | [ pack ] -> pack <> Native_substrate.artifact_path desc ~mc
         | _ -> false);
      List.iter
        (fun (d, mc) ->
          match Native_substrate.create d ~mc with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "pack member: %s" e)
        programs;
      let s2 = Native_substrate.stats () in
      Alcotest.(check int) "every member is memoized"
        (s1.Native_substrate.st_memo_hits + List.length programs)
        s2.Native_substrate.st_memo_hits;
      Native_substrate.clear_memo ();
      ignore (Native_substrate.create ~build_with desc ~mc);
      let s3 = Native_substrate.stats () in
      Alcotest.(check int) "after clear_memo: disk hit on the pack"
        (s2.Native_substrate.st_cache_hits + 1)
        s3.Native_substrate.st_cache_hits;
      Alcotest.(check int) "after clear_memo: no compile" s2.Native_substrate.st_compiles
        s3.Native_substrate.st_compiles)

(* --- Emitted-source determinism ---------------------------------------------- *)

(* Byte-identical source for equal inputs is what makes the
   content-addressed cache sound: equal (description, machine code) must
   map to equal keys, including across independently reconstructed
   values. *)
let test_emitted_source_deterministic () =
  let source seed =
    let desc, mc, _, _ = draw_program seed in
    Emit.native_source desc ~mc
  in
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces byte-identically" seed)
        (source seed) (source seed))
    [ 0; 17; 4242 ];
  Alcotest.(check bool) "different programs emit different source" true
    (source 0 <> source 17)

(* --- Degradation ------------------------------------------------------------- *)

let test_disable_env () =
  Unix.putenv "DRUZHBA_NATIVE_DISABLE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DRUZHBA_NATIVE_DISABLE" "")
    (fun () ->
      (match Native_substrate.available () with
      | Error reason ->
        Alcotest.(check bool) "reason names the switch" true
          (let sub = "DRUZHBA_NATIVE_DISABLE" in
           let n = String.length sub and m = String.length reason in
           let rec at i = i + n <= m && (String.sub reason i n = sub || at (i + 1)) in
           at 0)
      | Ok () -> Alcotest.fail "expected unavailability under DRUZHBA_NATIVE_DISABLE");
      let desc, mc = cache_fixture () in
      match Native_substrate.create desc ~mc with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "create must refuse, not Dynlink, when disabled")

let available_suites =
  [
    ( "cross-substrate",
      [ QCheck_alcotest.to_alcotest ~long:false qcheck_cross_substrate ] );
    ( "build cache",
      [
        Alcotest.test_case "memo and disk hits" `Quick test_cache_hit_miss;
        Alcotest.test_case "corrupted cmxs recovery" `Quick test_corrupted_cmxs_recovery;
        Alcotest.test_case "failed exec is not a compile" `Quick test_failed_exec_not_counted;
      ] );
    ( "block packs",
      [
        Alcotest.test_case "one exec per block, same report" `Quick test_one_exec_per_block;
        Alcotest.test_case "raising or lone build_with builds alone" `Quick test_pack_fallbacks;
        Alcotest.test_case "pack disk hit after clear_memo" `Quick test_pack_disk_hit;
      ] );
    ( "emitter",
      [ Alcotest.test_case "source determinism" `Quick test_emitted_source_deterministic ] );
    ( "degradation",
      [ Alcotest.test_case "DRUZHBA_NATIVE_DISABLE refuses" `Quick test_disable_env ] );
  ]

let () =
  match Native_substrate.available () with
  | Ok () -> Alcotest.run "native" available_suites
  | Error reason ->
    (* structured skip: the suite passes, the reason is visible in the log *)
    Alcotest.run "native"
      [
        ( "toolchain",
          [
            Alcotest.test_case
              (Printf.sprintf "skipped: native toolchain unavailable (%s)" reason)
              `Quick
              (fun () -> ());
          ] );
      ]
