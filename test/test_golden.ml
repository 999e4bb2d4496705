(* Golden-trace regression fixtures.

   For every Table-1 program we commit the expected output trace + final
   state (test/golden/<name>.trace) of a fixed-seed simulation.  The test
   replays each program and diffs against the fixture, so a semantic
   regression anywhere in the stack — frontend, codegen, optimizer, either
   execution backend — fails loudly with the program named.

   Two layers of checking per benchmark:
   1. the reference configuration (interpreter, unoptimized description)
      must render byte-identically to the committed fixture;
   2. all six (backend x optimization level) configurations must produce a
      trace equal to the reference — the committed fixture therefore pins
      every configuration.

   A third layer pins whole campaign reports: for each substrate selector
   (rmt, drmt, all, native) a small fault-mode campaign must render
   byte-identically to test/golden/campaign_<selector>.json at --jobs 1 and
   2.  These are the behaviour contract of every campaign refactor.  The
   native report is compared without its "notes" field, both with the
   native toolchain (when the host has it) and under
   DRUZHBA_NATIVE_DISABLE=1, where the interpreter stands in for the
   emitted module: the two runs must differ only in that note.  Under the
   same switch, Table 1 on the native backend must refuse with the probe's
   reason before any build is attempted.

   Regenerating after an *intended* semantic change:

     GOLDEN_UPDATE=$PWD/test/golden dune exec test/test_golden.exe

   which rewrites the fixtures in the source tree instead of checking. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Spec = Druzhba_spec.Spec
module Codegen = Druzhba_compiler.Codegen
module Oracle = Druzhba_campaign.Oracle
module Campaign = Druzhba_campaign.Campaign
module Report = Druzhba_campaign.Report
module Native_substrate = Druzhba_dsim.Native_substrate
module Backends = Druzhba_dsim.Backends
module Table1 = Druzhba_experiments.Table1
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module P4 = Druzhba_drmt.P4
module Entries = Druzhba_drmt.Entries

let golden_seed = 0x601d
let golden_phvs = 10

let reference_trace (bm : Spec.benchmark) =
  let compiled = Spec.compile_exn bm in
  let desc = compiled.Codegen.c_desc in
  let mc = compiled.Codegen.c_mc in
  let init = compiled.Codegen.c_layout.Codegen.l_init in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:golden_seed ~width:bm.Spec.bm_width ~bits:32) golden_phvs
  in
  (compiled, Engine.run ~init desc ~mc ~inputs, inputs)

let render (bm : Spec.benchmark) (trace : Trace.t) =
  Fmt.str "# golden trace: %s (%dx%d, seed %d, %d PHVs)@.%a@." bm.Spec.bm_name bm.Spec.bm_depth
    bm.Spec.bm_width golden_seed golden_phvs Trace.pp trace

let fixture_path bm = Filename.concat "golden" (bm.Spec.bm_name ^ ".trace")

(* --- dRMT fixture ---------------------------------------------------------------- *)

(* One committed fixture for the dRMT substrate: an exact + lpm + ternary
   pipeline with register side effects, replayed through both the sequential
   reference and the event-driven scheduler.  The fixture pins the sequential
   semantics; the event run must additionally equal the reference, so a
   regression in either the scheduler or the P4 interpreter fails loudly. *)

let drmt_name = "drmt_router"

let drmt_p4 =
  {|
header eth {
  dst : 48;
  etype : 16;
}
header ip {
  ttl : 8;
  src : 32;
  dst : 32;
}

action bridge(port) {
  meta.egress = port;
  reg.bridged = reg.bridged + 1;
}
action route(port) {
  meta.egress = port;
  ip.ttl = ip.ttl - 1;
  reg.routed = reg.routed + 1;
}
action toss() {
  drop;
  reg.tossed = reg.tossed + 1;
}
action audit() {
  reg.audited = reg.audited + 1;
}

table bridge_tbl {
  key : eth.dst;
  match : exact;
  actions : { bridge };
  default : bridge 1;
}
table route_tbl {
  key : ip.dst;
  match : lpm;
  actions : { route, toss };
  default : toss;
}
table audit_tbl {
  key : ip.src;
  match : ternary;
  actions : { audit, toss };
  default : audit;
}

control {
  apply bridge_tbl;
  apply route_tbl;
  apply audit_tbl;
}
|}

let drmt_entries_src =
  {|
# two learned MACs
entry bridge_tbl exact 51966 bridge 4
entry bridge_tbl exact 47806 bridge 6

# a /16 nested in a /8 over a catch-all: longest prefix must win, and the
# /0 keeps the field-mutating route action live on random traffic
entry route_tbl lpm 3232235520/8  route 2
entry route_tbl lpm 3232301056/16 route 8
entry route_tbl lpm 0/0 route 3

# sources with low byte 7 are tossed by the audit stage
entry audit_tbl ternary 7&255 toss
|}

let drmt_substrate mode =
  let p = P4.parse drmt_p4 in
  let entries =
    match Entries.parse drmt_entries_src with
    | Ok e -> e
    | Error msg -> failwith ("drmt golden entries: " ^ msg)
  in
  Drmt_substrate.create ~mode ~entries p

let run_substrate packed ~inputs =
  let buf =
    Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:(max 1 (List.length inputs))
  in
  Substrate.run_into packed ~inputs buf;
  {
    Trace.inputs;
    outputs = Trace.Buffer.contents buf;
    final_state = Substrate.current_state packed;
  }

let drmt_reference_trace () =
  let sub = drmt_substrate Drmt_substrate.Sequential in
  let inputs = Drmt_substrate.traffic ~seed:golden_seed sub golden_phvs in
  (run_substrate (Drmt_substrate.pack sub) ~inputs, inputs)

let drmt_render (trace : Trace.t) =
  Fmt.str "# golden trace: %s (dRMT, seed %d, %d PHVs)@.%a@." drmt_name golden_seed golden_phvs
    Trace.pp trace

let drmt_fixture_path = Filename.concat "golden" (drmt_name ^ ".trace")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- Campaign report fixtures ---------------------------------------------------- *)

let campaign_selectors = [ "rmt"; "drmt"; "all"; "native" ]
let campaign_fixture_name selector = "campaign_" ^ selector ^ ".json"

(* The report as [campaign --report] writes it, minus the native notes. *)
let campaign_report ~jobs selector =
  let cfg =
    Campaign.config ~trials:24 ~jobs ~substrate:selector ~phvs:20
      ~faults:(Campaign.fault_config ~runs:2 ()) ()
  in
  let json = Campaign.to_json (Campaign.run cfg) in
  let json =
    if selector <> "native" then json
    else
      match Report.parse json with
      | Ok (Report.Obj fields) -> Report.to_string (Report.Obj (List.remove_assoc "notes" fields))
      | _ -> failwith "campaign report does not parse"
  in
  json ^ "\n"

let with_native_disabled f =
  let saved = Option.value (Sys.getenv_opt "DRUZHBA_NATIVE_DISABLE") ~default:"" in
  Unix.putenv "DRUZHBA_NATIVE_DISABLE" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "DRUZHBA_NATIVE_DISABLE" saved) f

(* --- Regeneration mode --------------------------------------------------------- *)

let update_fixtures dir =
  List.iter
    (fun (bm : Spec.benchmark) ->
      let _, trace, _ = reference_trace bm in
      let path = Filename.concat dir (bm.Spec.bm_name ^ ".trace") in
      let oc = open_out_bin path in
      output_string oc (render bm trace);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    Spec.all;
  let trace, _ = drmt_reference_trace () in
  let path = Filename.concat dir (drmt_name ^ ".trace") in
  let oc = open_out_bin path in
  output_string oc (drmt_render trace);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun selector ->
      let path = Filename.concat dir (campaign_fixture_name selector) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (campaign_report ~jobs:1 selector));
      Printf.printf "wrote %s\n" path)
    campaign_selectors

(* --- Checks ---------------------------------------------------------------------- *)

let test_fixture_matches (bm : Spec.benchmark) () =
  let _, trace, _ = reference_trace bm in
  let expected = read_file (fixture_path bm) in
  Alcotest.(check string) (bm.Spec.bm_name ^ " matches its golden trace") expected
    (render bm trace)

let test_all_configs_match (bm : Spec.benchmark) () =
  let compiled, reference, inputs = reference_trace bm in
  let desc = compiled.Codegen.c_desc in
  let mc = compiled.Codegen.c_mc in
  let init = compiled.Codegen.c_layout.Codegen.l_init in
  List.iter
    (fun level ->
      let optimized = Optimizer.apply ~level ~mc desc in
      let closure = Compile.compile optimized ~mc in
      List.iter
        (fun (backend_name, trace) ->
          if not (Trace.equal reference trace) then
            match Oracle.diff_traces ~reference ~actual:trace with
            | Some (kind, expected, actual) ->
              let where =
                match kind with
                | `Output (i, c) -> Printf.sprintf "output phv %d container %d" i c
                | `State (alu, slot) -> Printf.sprintf "state %s[%d]" alu slot
                | `Shape -> "trace shape"
              in
              Alcotest.failf "%s: %s@%s diverges from golden reference at %s (%d vs %d)"
                bm.Spec.bm_name backend_name (Optimizer.level_name level) where expected actual
            | None -> Alcotest.failf "%s: traces differ only in inputs?" bm.Spec.bm_name)
        [
          ("interpreter", Engine.run ~init optimized ~mc ~inputs);
          ("closures", Compiled.run_compiled ~init closure ~inputs);
        ])
    Oracle.all_levels

let test_drmt_fixture_matches () =
  let trace, _ = drmt_reference_trace () in
  let expected = read_file drmt_fixture_path in
  Alcotest.(check string) (drmt_name ^ " matches its golden trace") expected (drmt_render trace)

let test_campaign_fixture_matches selector () =
  let expected = read_file (Filename.concat "golden" (campaign_fixture_name selector)) in
  let check env =
    List.iter
      (fun jobs ->
        Alcotest.(check string)
          (Printf.sprintf "%s campaign%s, --jobs %d" selector env jobs)
          expected (campaign_report ~jobs selector))
      [ 1; 2 ]
  in
  if selector <> "native" then check ""
  else begin
    if Native_substrate.available () = Ok () then check " with the toolchain";
    with_native_disabled (fun () -> check " under DRUZHBA_NATIVE_DISABLE=1")
  end

(* No ocamlopt exec, failed or not, and no cache lookup: the build
   counters do not move. *)
let test_table1_native_disabled () =
  with_native_disabled (fun () ->
      let before = Native_substrate.stats () in
      (match Table1.run ~phvs:10 ~backend:Backends.Native () with
      | Ok _ -> Alcotest.fail "table1 ran the native backend under DRUZHBA_NATIVE_DISABLE=1"
      | Error msg ->
        Alcotest.(check string) "the probe's reason"
          "backend native unavailable: disabled via DRUZHBA_NATIVE_DISABLE" msg);
      Alcotest.(check bool) "no build attempted" true (Native_substrate.stats () = before))

let test_drmt_event_matches_reference () =
  let reference, inputs = drmt_reference_trace () in
  let event = run_substrate (Drmt_substrate.pack (drmt_substrate Drmt_substrate.Event)) ~inputs in
  if not (Trace.equal reference event) then
    match Oracle.diff_traces ~reference ~actual:event with
    | Some (kind, expected, actual) ->
      let where =
        match kind with
        | `Output (i, c) -> Printf.sprintf "output phv %d container %d" i c
        | `State (reg, slot) -> Printf.sprintf "register %s[%d]" reg slot
        | `Shape -> "trace shape"
      in
      Alcotest.failf "%s: event substrate diverges from sequential reference at %s (%d vs %d)"
        drmt_name where expected actual
    | None -> Alcotest.failf "%s: traces differ only in inputs?" drmt_name

let () =
  match Sys.getenv_opt "GOLDEN_UPDATE" with
  | Some dir -> update_fixtures dir
  | None ->
    Alcotest.run "golden"
      [
        ( "fixtures",
          List.map
            (fun (bm : Spec.benchmark) ->
              Alcotest.test_case bm.Spec.bm_name `Quick (test_fixture_matches bm))
            Spec.all
          @ [ Alcotest.test_case drmt_name `Quick test_drmt_fixture_matches ] );
        ( "all configurations",
          List.map
            (fun (bm : Spec.benchmark) ->
              Alcotest.test_case bm.Spec.bm_name `Quick (test_all_configs_match bm))
            Spec.all
          @ [
              Alcotest.test_case (drmt_name ^ " event=sequential") `Quick
                test_drmt_event_matches_reference;
            ] );
        ( "campaign reports",
          List.map
            (fun selector ->
              Alcotest.test_case selector `Quick (test_campaign_fixture_matches selector))
            campaign_selectors );
        ( "native unavailable",
          [ Alcotest.test_case "table1 refuses native" `Quick test_table1_native_disabled ] );
      ]
