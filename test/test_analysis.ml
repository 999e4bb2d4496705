(* Tests for the dataflow-analysis library and its consumers.

   Fixtures follow the case-study method (§5.2): seed a defect of a known
   class into a known-good pipeline — an out-of-range selector, a dead ALU,
   a write-only state slot — and assert the matching lint rule (and only an
   appropriate severity) fires and names the defect.  The dead_elim checks
   are the optimizer-side consumer: sizes must never grow, must strictly
   shrink somewhere on Table 1, and traces must be byte-identical at every
   optimization level. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

(* --- fixtures ---------------------------------------------------------------- *)

(* Smallest interesting pipeline: one stage, one container, one ALU of each
   kind.  Its single output mux has four arms: stateless output (0),
   stateful output (1), stateful new state (2), passthrough (3). *)
let small_desc ?(stateless = "stateless_mux") () =
  Dgen.generate
    (Dgen.config ~depth:1 ~width:1 ())
    ~stateful:(Atoms.find_exn "raw") ~stateless:(Atoms.find_exn stateless)

let mux0 = Names.output_mux ~stage:0 ~container:0

let seeded_mc ?(seed = 7) desc pairs =
  let mc = Fuzz.random_mc (Prng.create seed) desc in
  List.iter (fun (name, v) -> Machine_code.set mc name v) pairs;
  mc

let rules findings = List.map (fun f -> f.Lint.f_rule) findings

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let find_rule rule findings =
  List.filter (fun f -> f.Lint.f_rule = rule) findings

(* --- dataflow: intervals ------------------------------------------------------ *)

let test_intervals () =
  let open Dataflow in
  Alcotest.(check bool) "add" true (abs_binop 32 Ir.Add (Iv (1, 2)) (Iv (3, 4)) = Iv (4, 6));
  Alcotest.(check bool) "lt definite" true (abs_binop 32 Ir.Lt (Iv (0, 1)) (Iv (5, 5)) = Iv (1, 1));
  Alcotest.(check bool) "eq unknown" true (abs_binop 32 Ir.Eq (Iv (0, 3)) (Iv (2, 2)) = Iv (0, 1));
  Alcotest.(check bool) "join" true (join (Iv (1, 2)) (Iv (5, 6)) = Iv (1, 6));
  Alcotest.(check bool) "join top" true (join Top (Iv (1, 2)) = Top);
  (* subtraction can wrap below zero: must widen, not produce a lying range *)
  Alcotest.(check bool) "sub widens" true (abs_binop 8 Ir.Sub (Iv (0, 1)) (Iv (2, 2)) = full 8)

(* --- dataflow: liveness ------------------------------------------------------- *)

let test_liveness_passthrough () =
  let desc = small_desc () in
  (* passthrough: the container's incoming value; no ALU output is selected *)
  let mc = seeded_mc desc [ (mux0, Names.Select.passthrough ~width:1) ] in
  let lv = Dataflow.liveness ~mc desc in
  Alcotest.(check bool) "stateless dead" false lv.Dataflow.lv_stateless.(0).(0);
  Alcotest.(check bool) "stateful dead" false lv.Dataflow.lv_stateful.(0).(0)

let test_liveness_selected () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.stateful_output ~width:1 0) ] in
  let lv = Dataflow.liveness ~mc desc in
  Alcotest.(check bool) "stateless dead" false lv.Dataflow.lv_stateless.(0).(0);
  Alcotest.(check bool) "stateful live" true lv.Dataflow.lv_stateful.(0).(0)

let test_liveness_without_mc_is_conservative () =
  let desc = small_desc () in
  let lv = Dataflow.liveness desc in
  Alcotest.(check bool) "stateless live" true lv.Dataflow.lv_stateless.(0).(0);
  Alcotest.(check bool) "stateful live" true lv.Dataflow.lv_stateful.(0).(0)

(* --- dataflow: provenance ----------------------------------------------------- *)

let test_provenance_passthrough () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.passthrough ~width:1) ] in
  let pv = Dataflow.provenance ~mc desc in
  let nodes = Dataflow.slice pv (Dataflow.output_node pv 0) in
  Alcotest.(check bool) "reaches the input container" true
    (List.mem (Dataflow.Ncontainer (0, 0)) nodes);
  Alcotest.(check bool) "flows through no ALU" true
    (not (List.exists (function Dataflow.Nalu _ -> true | _ -> false) nodes))

let test_provenance_stateful () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.stateful_output ~width:1 0) ] in
  let pv = Dataflow.provenance ~mc desc in
  let nodes = Dataflow.slice pv (Dataflow.output_node pv 0) in
  let alu = Names.stateful_alu ~stage:0 ~alu:0 in
  Alcotest.(check bool) "names the stateful ALU" true (List.mem (Dataflow.Nalu alu) nodes);
  Alcotest.(check bool) "names its state slot" true (List.mem (Dataflow.Nstate (alu, 0)) nodes);
  Alcotest.(check bool) "names the mux control" true (List.mem (Dataflow.Ncontrol mux0) nodes)

(* --- lint: seeded defects ----------------------------------------------------- *)

let test_lint_out_of_range_selector () =
  let desc = small_desc () in
  (* mux selector domain is [0, 4) at width 1; 99 falls through to passthrough *)
  let mc = seeded_mc desc [ (mux0, 99) ] in
  let findings = Lint.check ~mc desc in
  Alcotest.(check bool) "is an error" true (Lint.has_errors findings);
  match find_rule "selector-out-of-range" findings with
  | [ f ] ->
    Alcotest.(check string) "names the pair" mux0 f.Lint.f_subject;
    Alcotest.(check bool) "severity error" true (f.Lint.f_severity = Lint.Error)
  | fs -> Alcotest.failf "expected one selector-out-of-range finding, got %d" (List.length fs)

let test_lint_dead_alu () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.passthrough ~width:1) ] in
  let findings = Lint.check ~mc desc in
  (* a dead ALU is a smell, not a broken program *)
  Alcotest.(check bool) "no errors" false (Lint.has_errors findings);
  let dead = find_rule "dead-alu" findings in
  let subjects = List.map (fun f -> f.Lint.f_subject) dead in
  Alcotest.(check bool) "names the stateless ALU" true
    (List.mem (Names.stateless_alu ~stage:0 ~alu:0) subjects);
  Alcotest.(check bool) "names the stateful ALU" true
    (List.mem (Names.stateful_alu ~stage:0 ~alu:0) subjects)

let test_lint_missing_pair () =
  let desc = small_desc () in
  let mc = seeded_mc desc [] in
  Machine_code.remove mc mux0;
  let findings = Lint.check ~mc desc in
  Alcotest.(check bool) "is an error" true (Lint.has_errors findings);
  Alcotest.(check bool) "missing-pair fires" true (List.mem "missing-pair" (rules findings))

let test_lint_unknown_pair () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ ("totally_bogus_knob", 1) ] in
  let findings = Lint.check ~mc desc in
  match find_rule "unknown-pair" findings with
  | [ f ] ->
    Alcotest.(check string) "names the pair" "totally_bogus_knob" f.Lint.f_subject;
    Alcotest.(check bool) "warning only" true (f.Lint.f_severity = Lint.Warning)
  | fs -> Alcotest.failf "expected one unknown-pair finding, got %d" (List.length fs)

let test_lint_duplicate_pair () =
  let desc = small_desc () in
  let sel = Names.Select.passthrough ~width:1 in
  (* duplicates only survive in the raw pair list; the table keeps the last *)
  let pairs = [ (mux0, 99); (mux0, sel) ] in
  let mc = seeded_mc desc [ (mux0, sel) ] in
  let findings = Lint.check ~mc ~pairs desc in
  (match find_rule "duplicate-pair" findings with
  | [ f ] ->
    Alcotest.(check string) "names the pair" mux0 f.Lint.f_subject;
    Alcotest.(check bool) "severity error" true (f.Lint.f_severity = Lint.Error)
  | fs -> Alcotest.failf "expected one duplicate-pair finding, got %d" (List.length fs));
  (* a clean pair list stays silent *)
  let findings = Lint.check ~mc ~pairs:[ (mux0, sel) ] desc in
  Alcotest.(check (list string)) "no duplicate-pair on clean list" []
    (rules (find_rule "duplicate-pair" findings))

let test_lint_unreachable_branch () =
  (* stateless_full dispatches on its [opcode] hole; pinning it to the
     fallback value makes every guarded branch unreachable *)
  let desc = small_desc ~stateless:"stateless_full" () in
  let opcode =
    Names.slot ~alu_prefix:(Names.stateless_alu ~stage:0 ~alu:0) ~slot_name:"opcode"
  in
  let mc = seeded_mc desc [ (opcode, 5); (mux0, Names.Select.stateless_output ~width:1 0) ] in
  let findings = Lint.check ~mc desc in
  let unreachable = find_rule "unreachable-branch" findings in
  Alcotest.(check bool) "fires on the pinned dispatch" true (List.length unreachable >= 1);
  Alcotest.(check bool) "warning only" true
    (List.for_all (fun f -> f.Lint.f_severity = Lint.Warning) unreachable)

let write_only_src =
  {|
type : stateful
state variables : {state_0, state_1}
hole variables : {}
packet fields : {pkt_0}
state_0 = state_0 + pkt_0;
state_1 = pkt_0;
|}

let test_lint_write_only_state () =
  let stateful = Alu_dsl.Parser.parse ~name:"write_only" write_only_src in
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ())
      ~stateful ~stateless:(Atoms.find_exn "stateless_mux")
  in
  let mc = seeded_mc desc [ (mux0, Names.Select.stateful_output ~width:1 0) ] in
  let findings = Lint.check ~mc desc in
  match find_rule "write-only-state" findings with
  | [ f ] ->
    Alcotest.(check string) "names the ALU" (Names.stateful_alu ~stage:0 ~alu:0) f.Lint.f_subject;
    Alcotest.(check bool) "mentions slot 1" true (contains ~sub:"slot 1" f.Lint.f_message)
  | fs -> Alcotest.failf "expected one write-only-state finding, got %d" (List.length fs)

let test_lint_helper_call_errors () =
  let desc = small_desc () in
  let bad_alu (a : Ir.alu) calls = { a with Ir.a_default_output = calls } in
  let retarget mk =
    let stages =
      Array.map
        (fun st ->
          { st with Ir.s_stateless = Array.map (fun a -> bad_alu a mk) st.Ir.s_stateless })
        desc.Ir.d_stages
    in
    { desc with Ir.d_stages = stages }
  in
  (* unknown helper *)
  let findings = Lint.check (retarget (Ir.Call ("no_such_helper", []))) in
  Alcotest.(check bool) "unknown-helper is an error" true (Lint.has_errors findings);
  Alcotest.(check bool) "unknown-helper fires" true (List.mem "unknown-helper" (rules findings));
  (* arity mismatch against a real helper *)
  let some_helper =
    Hashtbl.fold (fun name (h : Ir.helper) acc ->
        match acc with Some _ -> acc | None -> if h.Ir.h_params <> [] then Some name else acc)
      desc.Ir.d_helpers None
    |> Option.get
  in
  let findings = Lint.check (retarget (Ir.Call (some_helper, []))) in
  Alcotest.(check bool) "helper-arity is an error" true (Lint.has_errors findings);
  Alcotest.(check bool) "helper-arity fires" true (List.mem "helper-arity" (rules findings))

let unused_decl_src =
  {|
type : stateless
state variables : {}
hole variables : {spare_hole}
packet fields : {pkt_0, pkt_1}
return pkt_0;
|}

let test_lint_unused_decls () =
  let unused = Alu_dsl.Analysis.unused_decls (Alu_dsl.Parser.parse ~name:"lazy" unused_decl_src) in
  Alcotest.(check (list string)) "unused hole + field" [ "spare_hole"; "pkt_1" ] unused;
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ())
      ~stateful:(Atoms.find_exn "raw")
      ~stateless:(Alu_dsl.Parser.parse ~name:"lazy" unused_decl_src)
  in
  let findings = Lint.check desc in
  Alcotest.(check bool) "unused-decl fires" true (List.mem "unused-decl" (rules findings))

(* emitted-module-size: the native emitter lowers [If] by continuation
   duplication, so a run of N sequential ifs costs ~2^N emitted nodes.  A
   16-if ALU blows past the threshold; every Table-1 program stays under it
   (their largest stage is ~2.9k nodes against a 50k threshold). *)
let test_lint_emitted_module_size () =
  let explosive_src =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      "type : stateful\n\
       state variables : {state_0}\n\
       hole variables : {}\n\
       packet fields : {pkt_0, pkt_1}\n";
    for _ = 1 to 16 do
      Buffer.add_string b
        "if (rel_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))) {\n\
        \  state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());\n\
         }\n"
    done;
    Buffer.contents b
  in
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ())
      ~stateful:(Alu_dsl.Parser.parse ~name:"explosive" explosive_src)
      ~stateless:(Atoms.find_exn "stateless_mux")
  in
  let findings = find_rule "emitted-module-size" (Lint.check desc) in
  (match findings with
  | [ f ] ->
    Alcotest.(check string) "names the stage" "stage 0" f.Lint.f_subject;
    Alcotest.(check bool) "warning only" true (f.Lint.f_severity = Lint.Warning)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* sane pipelines stay silent *)
  Alcotest.(check int) "small pipeline is under threshold" 0
    (List.length (find_rule "emitted-module-size" (Lint.check (small_desc ()))));
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let desc = compiled.Compiler.Codegen.c_desc in
      Alcotest.(check int)
        (bm.Spec.bm_name ^ " is under threshold")
        0
        (List.length (find_rule "emitted-module-size" (Lint.check desc))))
    Spec.all

(* --- lint: dRMT table-dependency DAG rules ------------------------------------ *)

module P4 = Druzhba_drmt.P4
module Dag = Druzhba_drmt.Dag
module Scheduler = Druzhba_drmt.Scheduler

let two_table_p4 () =
  P4.parse
    {|
header h { a : 8; b : 8; }
action set_a(v) { h.a = v; }
action set_b(v) { h.b = v; }
table ta { key : h.a; match : exact; actions : { set_a }; default : set_a 1; }
table tb { key : h.b; match : exact; actions : { set_b }; default : set_b 2; }
control { apply ta; apply tb; }
|}

let test_lint_p4_clean () =
  Alcotest.(check (list string)) "no findings" [] (rules (Lint.check_p4 (two_table_p4 ())))

let test_lint_p4_cyclic_dag () =
  (* [Dag.build] never produces a back edge, so seed one by hand: ta's match
     depends on its own action — unschedulable in any order *)
  let p = two_table_p4 () in
  let dag = Dag.build p in
  let back = { Dag.e_from = Dag.Action "ta"; e_to = Dag.Match "ta"; e_latency = 2 } in
  let dag = { dag with Dag.edges = back :: dag.Dag.edges } in
  match Lint.check_p4 ~dag p with
  | [ f ] ->
    Alcotest.(check string) "rule" "cyclic-dag" f.Lint.f_rule;
    Alcotest.(check bool) "error severity" true (f.Lint.f_severity = Lint.Error);
    (* the witness covers the cycle and everything stuck behind it: tb's
       nodes can never be scheduled either *)
    Alcotest.(check string) "names the stuck tables" "ta, tb" f.Lint.f_subject;
    Alcotest.(check bool) "message says cyclic" true (contains ~sub:"cyclic" f.Lint.f_message)
  | fs -> Alcotest.failf "expected one cyclic-dag finding, got %d" (List.length fs)

let test_lint_p4_unschedulable_dag () =
  (* 2 match nodes, P * match_capacity = 1: line rate is impossible and the
     finding names the table past the capacity horizon *)
  let p = two_table_p4 () in
  let cfg = Scheduler.config ~processors:1 ~match_capacity:1 ~action_capacity:32 () in
  (match Lint.check_p4 ~cfg p with
  | [ f ] ->
    Alcotest.(check string) "rule" "unschedulable-dag" f.Lint.f_rule;
    Alcotest.(check bool) "error severity" true (f.Lint.f_severity = Lint.Error);
    Alcotest.(check string) "names the table beyond the horizon" "tb" f.Lint.f_subject
  | fs -> Alcotest.failf "expected one unschedulable-dag finding, got %d" (List.length fs));
  (* the default config fits the program comfortably *)
  Alcotest.(check (list string)) "feasible by default" [] (rules (Lint.check_p4 p))

(* --- lint: clean baselines ---------------------------------------------------- *)

let test_lint_benchmarks_error_free () =
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let findings =
        Lint.check ~mc:compiled.Compiler.Codegen.c_mc compiled.Compiler.Codegen.c_desc
      in
      Alcotest.(check bool) (bm.Spec.bm_name ^ " has no lint errors") false
        (Lint.has_errors findings))
    Spec.all

let test_lint_json_shape () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, 99) ] in
  let json = Lint.report_to_json ~tool:"lint" [ Lint.target ~name:"small" (Lint.check ~mc desc) ] in
  Alcotest.(check bool) "mentions the rule" true
    (contains ~sub:{|"rule":"selector-out-of-range"|} json)

(* --- dead_elim ---------------------------------------------------------------- *)

let test_dead_elim_neutralizes () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.passthrough ~width:1) ] in
  let scc = Optimizer.scc_propagate ~mc desc in
  let pruned = Optimizer.dead_elim ~mc scc in
  Alcotest.(check bool) "strictly smaller" true (Ir.size pruned < Ir.size scc);
  let inputs = Traffic.phvs (Traffic.create ~seed:3 ~width:1 ~bits:32) 100 in
  let a = Engine.run scc ~mc ~inputs and b = Engine.run pruned ~mc ~inputs in
  Alcotest.(check bool) "outputs agree" true (a.Trace.outputs = b.Trace.outputs);
  (* default keeps dead stateful updates: final state is observable *)
  Alcotest.(check bool) "state agrees" true (a.Trace.final_state = b.Trace.final_state)

let test_dead_elim_benchmarks () =
  let shrunk = ref [] in
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let mc = compiled.Compiler.Codegen.c_mc in
      let desc = compiled.Compiler.Codegen.c_desc in
      let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
      let scc = Optimizer.scc_propagate ~mc desc in
      let pruned = Optimizer.dead_elim ~mc scc in
      Alcotest.(check bool) (bm.Spec.bm_name ^ ": never grows") true
        (Ir.size pruned <= Ir.size scc);
      if Ir.size pruned < Ir.size scc then shrunk := bm.Spec.bm_name :: !shrunk;
      let inputs =
        Traffic.phvs (Traffic.create ~seed:0xA11 ~width:bm.Spec.bm_width ~bits:32) 200
      in
      let base = Engine.run ~init desc ~mc ~inputs in
      List.iter
        (fun level ->
          let t = Engine.run ~init (Optimizer.apply ~level ~mc desc) ~mc ~inputs in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %s: outputs agree" bm.Spec.bm_name (Optimizer.level_name level))
            true
            (t.Trace.outputs = base.Trace.outputs);
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %s: final state agrees" bm.Spec.bm_name
               (Optimizer.level_name level))
            true
            (t.Trace.final_state = base.Trace.final_state))
        [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ])
    Spec.all;
  Alcotest.(check bool) "dead_elim shrinks at least one Table-1 program" true (!shrunk <> [])

(* --- triage ------------------------------------------------------------------- *)

let test_triage_slices () =
  let desc = small_desc () in
  let mc = seeded_mc desc [ (mux0, Names.Select.stateful_output ~width:1 0) ] in
  let t = Verify.triage ~desc ~mc (`Output 0) in
  Alcotest.(check (list string)) "one ALU implicated"
    [ Names.stateful_alu ~stage:0 ~alu:0 ]
    t.Verify.tr_alus;
  Alcotest.(check bool) "mux control implicated" true (List.mem mux0 t.Verify.tr_controls)

let () =
  Alcotest.run "analysis"
    [
      ( "dataflow",
        [
          Alcotest.test_case "interval arithmetic" `Quick test_intervals;
          Alcotest.test_case "liveness: passthrough kills both ALUs" `Quick
            test_liveness_passthrough;
          Alcotest.test_case "liveness: selected ALU lives" `Quick test_liveness_selected;
          Alcotest.test_case "liveness: no mc means all live" `Quick
            test_liveness_without_mc_is_conservative;
          Alcotest.test_case "provenance: passthrough slice" `Quick test_provenance_passthrough;
          Alcotest.test_case "provenance: stateful slice" `Quick test_provenance_stateful;
        ] );
      ( "lint",
        [
          Alcotest.test_case "out-of-range selector" `Quick test_lint_out_of_range_selector;
          Alcotest.test_case "dead ALU" `Quick test_lint_dead_alu;
          Alcotest.test_case "missing pair" `Quick test_lint_missing_pair;
          Alcotest.test_case "unknown pair" `Quick test_lint_unknown_pair;
          Alcotest.test_case "duplicate pair" `Quick test_lint_duplicate_pair;
          Alcotest.test_case "unreachable branch" `Quick test_lint_unreachable_branch;
          Alcotest.test_case "write-only state slot" `Quick test_lint_write_only_state;
          Alcotest.test_case "helper-call errors" `Quick test_lint_helper_call_errors;
          Alcotest.test_case "unused declarations" `Quick test_lint_unused_decls;
          Alcotest.test_case "emitted-module-size" `Quick test_lint_emitted_module_size;
          Alcotest.test_case "p4: clean program" `Quick test_lint_p4_clean;
          Alcotest.test_case "p4: cyclic dag" `Quick test_lint_p4_cyclic_dag;
          Alcotest.test_case "p4: unschedulable dag" `Quick test_lint_p4_unschedulable_dag;
          Alcotest.test_case "Table-1 benchmarks are error-free" `Slow
            test_lint_benchmarks_error_free;
          Alcotest.test_case "json output" `Quick test_lint_json_shape;
        ] );
      ( "dead_elim",
        [
          Alcotest.test_case "neutralizes dead ALUs" `Quick test_dead_elim_neutralizes;
          Alcotest.test_case "Table-1 sizes and traces" `Slow test_dead_elim_benchmarks;
        ] );
      ( "triage",
        [ Alcotest.test_case "output slice" `Quick test_triage_slices ] );
    ]
