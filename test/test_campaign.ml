(* Tests for the multicore campaign stack: splittable seeding, the domain
   runner, the cross-backend differential oracle, counterexample shrinking,
   and JSON report determinism across job counts. *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Names = Druzhba_pipeline.Names
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Phv = Druzhba_dsim.Phv
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Verify = Druzhba_fuzz.Verify
module Runner = Druzhba_campaign.Runner
module Oracle = Druzhba_campaign.Oracle
module Shrink = Druzhba_campaign.Shrink
module Campaign = Druzhba_campaign.Campaign

(* --- Prng.derive -------------------------------------------------------------- *)

let test_derive_deterministic () =
  Alcotest.(check int) "pure function" (Prng.derive 42 7) (Prng.derive 42 7);
  let a = Prng.derive 42 7 in
  let g = Prng.create 42 in
  ignore (Prng.next_int64 g);
  ignore (Prng.next_int64 g);
  Alcotest.(check int) "independent of stream position" a (Prng.derive 42 7)

let test_derive_distinct () =
  let seeds = List.init 100 (fun i -> Prng.derive 0xD52ba i) in
  let sorted = List.sort_uniq compare seeds in
  Alcotest.(check int) "100 distinct seeds" 100 (List.length sorted);
  Alcotest.(check bool) "non-negative" true (List.for_all (fun s -> s >= 0) seeds);
  Alcotest.(check bool)
    "different masters differ" true
    (Prng.derive 1 0 <> Prng.derive 2 0)

(* --- Runner -------------------------------------------------------------------- *)

let test_runner_matches_sequential () =
  let f i = (i * 31) mod 97 in
  let seq = Runner.parallel_init ~jobs:1 50 f in
  let par = Runner.parallel_init ~jobs:3 50 f in
  Alcotest.(check (list int)) "same results" (Array.to_list seq) (Array.to_list par);
  Alcotest.(check (list int)) "empty" [] (Array.to_list (Runner.parallel_init ~jobs:4 0 f))

let test_runner_parallel_map_order () =
  let items = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "order preserved"
    (List.map String.uppercase_ascii items)
    (Runner.parallel_map ~jobs:2 String.uppercase_ascii items)

(* --- Differential oracle --------------------------------------------------------- *)

(* The single-trial form of the campaign's oracle: for random well-formed
   machine code on random small pipelines, the interpreter and the
   closure-compiled backend produce identical traces at all three
   optimization levels. *)
let qcheck_backends_agree =
  QCheck.Test.make ~name:"Engine and Compiled agree at all levels on random mc" ~count:40
    QCheck.(int_range 0 10_000)
    (fun index ->
      let cfg = Campaign.config ~trials:1 ~phvs:40 ~shrink:false () in
      let trial, _ = Campaign.run_trial ~cfg index in
      match trial.Campaign.t_outcome with
      | Campaign.Finished (Oracle.Agree { configs; _ }) -> configs = 6
      | o -> QCheck.Test.fail_reportf "trial %d (seed %d): %a" index trial.Campaign.t_seed
               Campaign.pp_outcome o)

let accumulator () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ~bits:8 ())
      ~stateful:(Atoms.find_exn "raw") ~stateless:(Atoms.find_exn "stateless_full")
  in
  let mc = Machine_code.empty () in
  List.iter (fun (name, _) -> Machine_code.set mc name 0) (Ir.control_domains desc);
  Array.iter
    (fun (st : Ir.stage) ->
      Array.iter
        (fun name -> Machine_code.set mc name (Names.Select.passthrough ~width:desc.Ir.d_width))
        st.Ir.s_output_muxes)
    desc.Ir.d_stages;
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_output ~width:1 0);
  (desc, mc)

let test_oracle_agrees_on_accumulator () =
  let desc, mc = accumulator () in
  let inputs = Traffic.phvs (Traffic.create ~seed:11 ~width:1 ~bits:8) 64 in
  match Oracle.check ~desc ~mc ~inputs () with
  | Oracle.Agree { configs; phvs } ->
    Alcotest.(check int) "six configurations" 6 configs;
    Alcotest.(check int) "all phvs" 64 phvs
  | o -> Alcotest.failf "expected agreement, got %a" Oracle.pp_outcome o

let test_oracle_invalid_mc () =
  let desc, mc = accumulator () in
  Machine_code.remove mc (Names.output_mux ~stage:0 ~container:0);
  let inputs = Traffic.phvs (Traffic.create ~seed:11 ~width:1 ~bits:8) 8 in
  match Oracle.check ~desc ~mc ~inputs () with
  | Oracle.Invalid_mc (Machine_code.Missing_pair name :: _) ->
    Alcotest.(check string) "names the pair" (Names.output_mux ~stage:0 ~container:0) name
  | o -> Alcotest.failf "expected invalid mc, got %a" Oracle.pp_outcome o

let test_diff_traces_detects () =
  let mk outputs state =
    { Trace.inputs = [ [| 0 |]; [| 1 |] ]; outputs; final_state = [ ("alu", state) ] }
  in
  let reference = mk [ [| 1 |]; [| 2 |] ] [| 5 |] in
  Alcotest.(check bool)
    "equal traces have no diff" true
    (Oracle.diff_traces ~reference ~actual:(mk [ [| 1 |]; [| 2 |] ] [| 5 |]) = None);
  (match Oracle.diff_traces ~reference ~actual:(mk [ [| 1 |]; [| 9 |] ] [| 5 |]) with
  | Some (`Output (1, 0), 2, 9) -> ()
  | _ -> Alcotest.fail "output divergence not localized");
  (match Oracle.diff_traces ~reference ~actual:(mk [ [| 1 |]; [| 2 |] ] [| 6 |]) with
  | Some (`State ("alu", 0), 5, 6) -> ()
  | _ -> Alcotest.fail "state divergence not localized");
  match Oracle.diff_traces ~reference ~actual:(mk [ [| 1 |] ] [| 5 |]) with
  | Some (`Shape, _, _) -> ()
  | _ -> Alcotest.fail "shape divergence not detected"

(* Two configurations on the same backend at the same level run the same
   program and can never disagree: each list's entries must differ in
   (backend, level). *)
let test_configs_can_disagree () =
  List.iter
    (fun (name, configs) ->
      let keys = List.map (fun c -> (c.Oracle.cf_backend, c.Oracle.cf_level)) configs in
      Alcotest.(check int)
        (name ^ ": distinct (backend, level) pairs")
        (List.length keys)
        (List.length (List.sort_uniq compare keys)))
    [
      ("rmt_configs", Oracle.rmt_configs);
      ("native_configs", Oracle.native_configs);
      ("native_fallback_configs", Oracle.native_fallback_configs);
    ]

(* --- Shrinking -------------------------------------------------------------------- *)

(* A real failing configuration: the accumulator pipeline against a spec
   that wrongly claims the pipeline echoes its input.  The repro predicate
   re-runs the interpreter and replays the spec, exactly like a fuzz trial. *)
let shrink_scenario () =
  let desc, mc = accumulator () in
  let spec =
    {
      Fuzz.spec_init = (fun () -> [||]);
      spec_step = (fun _ phv -> Array.copy phv) (* wrong: pipeline outputs old state *);
    }
  in
  let repro ~inputs ~mc =
    inputs <> []
    &&
    let trace = Engine.run desc ~mc ~inputs in
    Fuzz.compare_traces ~observed:[ 0 ] ~spec ~state_layout:[] ~trace () <> None
  in
  (desc, mc, repro)

let test_shrink_reproduces_and_is_smaller () =
  let _, mc, repro = shrink_scenario () in
  let inputs = Traffic.phvs (Traffic.create ~seed:77 ~width:1 ~bits:8) 40 in
  Alcotest.(check bool) "original reproduces" true (repro ~inputs ~mc);
  let r = Shrink.minimize ~repro ~inputs ~mc () in
  Alcotest.(check bool)
    "shrunk still reproduces" true
    (repro ~inputs:r.Shrink.sh_inputs ~mc:r.Shrink.sh_mc);
  Alcotest.(check bool)
    "no more PHVs than original" true
    (List.length r.Shrink.sh_inputs <= List.length inputs);
  Alcotest.(check bool)
    "no more pairs than original" true
    (Machine_code.cardinal r.Shrink.sh_mc <= Machine_code.cardinal mc);
  (* the accumulator mismatches on the very first nonzero input *)
  Alcotest.(check bool)
    "trace shrunk aggressively" true
    (List.length r.Shrink.sh_inputs <= 2);
  List.iter
    (fun name ->
      Alcotest.(check bool) "essential pair exists in mc" true (Machine_code.mem mc name))
    r.Shrink.sh_essential

let test_shrink_respects_budget () =
  let _, mc, repro = shrink_scenario () in
  let inputs = Traffic.phvs (Traffic.create ~seed:77 ~width:1 ~bits:8) 40 in
  let r = Shrink.minimize ~max_probes:5 ~repro ~inputs ~mc () in
  Alcotest.(check bool) "probe budget honored" true (r.Shrink.sh_probes <= 5);
  Alcotest.(check bool)
    "still reproduces at tiny budget" true
    (repro ~inputs:r.Shrink.sh_inputs ~mc:r.Shrink.sh_mc)

(* --- Verify: budget exhaustion stays honest ----------------------------------------- *)

let test_verify_inconclusive_on_compiled_benchmark () =
  let bm = Druzhba_spec.Spec.find_exn "sampling" in
  let compiled = Druzhba_spec.Spec.compile_exn ~bits:4 bm in
  let module Codegen = Druzhba_compiler.Codegen in
  let module Testing = Druzhba_compiler.Testing in
  match
    Verify.exhaustive_check ~max_states:2 ~desc:compiled.Codegen.c_desc ~mc:compiled.Codegen.c_mc
      ~spec:(Testing.spec_of compiled) ~observed:(Testing.observed compiled)
      ~state_layout:(Testing.state_layout compiled)
      ~init:compiled.Codegen.c_layout.Codegen.l_init ()
  with
  | Verify.Inconclusive { explored } ->
    Alcotest.(check bool) "reports explored states" true (explored >= 2)
  | r -> Alcotest.failf "expected inconclusive, got %a" Verify.pp_result r

(* --- Mismatch seed reporting --------------------------------------------------------- *)

let test_mismatch_records_seed () =
  let desc, mc = accumulator () in
  let spec =
    { Fuzz.spec_init = (fun () -> [||]); spec_step = (fun _ phv -> Array.copy phv) }
  in
  let seed = 98765 in
  match
    Fuzz.run_equivalence ~seed ~desc ~mc ~spec ~observed:[ 0 ] ~state_layout:[] ~n:50 ()
  with
  | Fuzz.Mismatch mm ->
    Alcotest.(check int) "seed recorded" seed mm.Fuzz.mm_seed;
    let message = Fmt.str "%a" Fuzz.pp_outcome (Fuzz.Mismatch mm) in
    let mentions_seed =
      let needle = Printf.sprintf "seed %d" seed in
      let n = String.length needle and m = String.length message in
      let rec scan i = i + n <= m && (String.sub message i n = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) "message mentions the seed" true mentions_seed
  | o -> Alcotest.failf "expected mismatch, got %a" Fuzz.pp_outcome o

(* --- Campaign end to end -------------------------------------------------------------- *)

let test_campaign_reports_identical_across_jobs () =
  let report jobs =
    Campaign.to_json (Campaign.run (Campaign.config ~trials:10 ~jobs ~phvs:25 ()))
  in
  let j1 = report 1 and j2 = report 2 and j4 = report 4 in
  Alcotest.(check string) "jobs 1 = jobs 2" j1 j2;
  Alcotest.(check string) "jobs 1 = jobs 4" j1 j4

let test_campaign_counts () =
  let r = Campaign.run (Campaign.config ~trials:8 ~jobs:2 ~phvs:20 ()) in
  Alcotest.(check int) "all trials accounted for" 8
    (r.Campaign.r_agree + r.Campaign.r_divergent + r.Campaign.r_invalid + r.Campaign.r_crashed
   + r.Campaign.r_timeout);
  Alcotest.(check int) "trials in index order" 8 (List.length r.Campaign.r_trials);
  List.iteri
    (fun i t -> Alcotest.(check int) "index" i t.Campaign.t_index)
    r.Campaign.r_trials;
  (* our own backends agree with each other *)
  Alcotest.(check int) "no divergence in a healthy simulator" 0 r.Campaign.r_divergent

(* Coverage and sabotage-pass modes never reach a native trial (the corpus
   stores no native material, the planted pass never reaches the emitted
   module), so a selection with native trials refuses them rather than
   silently running without them. *)
let test_config_refuses_native_modes () =
  let refuses what make =
    match make () with
    | exception Invalid_argument _ -> ()
    | (_ : Campaign.config) -> Alcotest.failf "config accepted %s" what
  in
  refuses "native + coverage" (fun () -> Campaign.config ~substrate:"native" ~coverage:true ());
  refuses "native + sabotage-pass" (fun () ->
      Campaign.config ~substrate:"native" ~sabotage_pass:true ());
  ignore (Campaign.config ~substrate:"all" ~coverage:true ~sabotage_pass:true ());
  ignore (Campaign.config ~substrate:"native" ())

(* --- Robustness: crash containment, watchdog, breaker, resume, faults ------- *)

(* Injected crashes must become structured records, identical across job
   counts — the acceptance bar for the campaign's crash containment. *)
let test_crash_containment_determinism () =
  let hook i = if i mod 5 = 3 then failwith (Printf.sprintf "chaos at trial %d" i) in
  let report jobs =
    Campaign.to_json (Campaign.run (Campaign.config ~trials:10 ~jobs ~phvs:15 ~hook ()))
  in
  let j1 = report 1 and j2 = report 2 and j4 = report 4 in
  Alcotest.(check string) "jobs 1 = jobs 2" j1 j2;
  Alcotest.(check string) "jobs 1 = jobs 4" j1 j4;
  let r = Campaign.run (Campaign.config ~trials:10 ~phvs:15 ~hook ()) in
  Alcotest.(check int) "both injected crashes recorded" 2 r.Campaign.r_crashed;
  List.iter
    (fun t ->
      match t.Campaign.t_outcome with
      | Campaign.Crashed { cr_exn; _ } ->
        Alcotest.(check bool) "crash only where injected" true (t.Campaign.t_index mod 5 = 3);
        Alcotest.(check bool) "exception text captured" true
          (String.length cr_exn > 0)
      | _ -> Alcotest.(check bool) "no spurious crash" true (t.Campaign.t_index mod 5 <> 3))
    r.Campaign.r_trials

(* A starvation-level fuel budget must turn every trial into a replayable
   [Timed_out], not hang or crash the campaign. *)
let test_watchdog_timeout () =
  let r = Campaign.run (Campaign.config ~trials:4 ~jobs:2 ~phvs:30 ~fuel:5 ()) in
  Alcotest.(check int) "every trial timed out" 4 r.Campaign.r_timeout;
  List.iter
    (fun t ->
      match t.Campaign.t_outcome with
      | Campaign.Timed_out { to_fuel } -> Alcotest.(check int) "budget recorded" 5 to_fuel
      | _ -> Alcotest.fail "expected a timeout outcome")
    r.Campaign.r_trials;
  (* and the timeout report is still jobs-independent *)
  let j1 = Campaign.to_json (Campaign.run (Campaign.config ~trials:4 ~jobs:1 ~phvs:30 ~fuel:5 ())) in
  Alcotest.(check string) "timeouts deterministic across jobs" j1 (Campaign.to_json r)

(* The circuit breaker cuts at the Nth failing *index*, so the partial
   report is identical whatever the job count. *)
let test_max_failures_cutoff () =
  let hook i = if i >= 2 then failwith "boom" in
  let mk jobs =
    Campaign.config ~trials:20 ~jobs ~phvs:10 ~max_failures:3 ~checkpoint_every:4 ~hook ()
  in
  let r1 = Campaign.run (mk 1) and r4 = Campaign.run (mk 4) in
  Alcotest.(check string) "cutoff independent of jobs" (Campaign.to_json r1) (Campaign.to_json r4);
  (match r1.Campaign.r_stopped_after with
  | Some i -> Alcotest.(check int) "third failure is trial 4" 4 i
  | None -> Alcotest.fail "breaker did not fire");
  Alcotest.(check int) "report trimmed at the cutoff" 5 (List.length r1.Campaign.r_trials)

(* Kill-and-resume: a run aborted mid-campaign (checkpoint on disk) resumed
   under a different job count must reproduce the uninterrupted report byte
   for byte — including the crash records it had already collected. *)
let test_checkpoint_resume_byte_identical () =
  let tmp = Filename.temp_file "druzhba-ck" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let hook i = if i mod 7 = 3 then failwith "chaos" in
      let mk jobs = Campaign.config ~trials:12 ~jobs ~phvs:15 ~checkpoint_every:4 ~hook () in
      let expected = Campaign.to_json (Campaign.run (mk 2)) in
      (match Campaign.run_resumable ~checkpoint:tmp ~stop_after:8 (mk 2) with
      | None -> ()
      | Some _ -> Alcotest.fail "stop_after should abort the campaign");
      (match Campaign.run_resumable ~checkpoint:tmp ~resume:true (mk 1) with
      | Some r ->
        Alcotest.(check string) "resumed = uninterrupted" expected (Campaign.to_json r)
      | None -> Alcotest.fail "resume did not run to completion");
      (* a resume under a different configuration must be refused *)
      match
        Campaign.run_resumable ~checkpoint:tmp ~resume:true
          (Campaign.config ~trials:13 ~phvs:15 ~checkpoint_every:4 ~hook ())
      with
      | exception Campaign.Resume_error _ -> ()
      | _ -> Alcotest.fail "mismatched checkpoint signature accepted")

(* Fault-injection mode on a healthy simulator: substrates agree under
   faults, fault-free replays stay pristine, and the whole fault campaign
   is deterministic across job counts. *)
let test_faults_mode () =
  let mk jobs =
    Campaign.config ~trials:6 ~jobs ~phvs:20 ~faults:(Campaign.fault_config ~runs:4 ()) ()
  in
  let r = Campaign.run (mk 2) in
  Alcotest.(check int) "no fault-flagged trials" 0 r.Campaign.r_fault_flagged;
  List.iter
    (fun t ->
      match t.Campaign.t_faults with
      | Some fs ->
        Alcotest.(check int) "all scenarios ran" 4 fs.Campaign.fs_runs;
        Alcotest.(check int) "substrates agree under faults" 0 fs.Campaign.fs_substrate_mismatch;
        Alcotest.(check bool) "fault-free replay is clean" true fs.Campaign.fs_replay_ok
      | None -> Alcotest.fail "fault stats missing on an agreeing trial")
    r.Campaign.r_trials;
  Alcotest.(check string) "fault campaign deterministic across jobs"
    (Campaign.to_json (Campaign.run (mk 1)))
    (Campaign.to_json r)

(* --- dRMT as a differential-testing target --------------------------------------- *)

(* A healthy dRMT stack: the event-driven schedule agrees with the
   sequential P4 reference on every generated trial, and the report is
   byte-identical whatever the job count. *)
let test_drmt_campaign_agrees_across_jobs () =
  let mk jobs = Campaign.config ~trials:10 ~jobs ~substrate:"drmt" ~phvs:30 () in
  let r = Campaign.run (mk 2) in
  Alcotest.(check int) "no divergence in a healthy dRMT model" 0 r.Campaign.r_divergent;
  Alcotest.(check int) "all agree" 10 r.Campaign.r_agree;
  List.iter
    (fun t ->
      (match t.Campaign.t_params with
      | Campaign.Drmt_params _ -> ()
      | Campaign.Rmt_params _ | Campaign.Native_params _ ->
        Alcotest.fail "expected dRMT params on a dRMT campaign");
      match t.Campaign.t_outcome with
      | Campaign.Finished (Oracle.Agree { configs; _ }) ->
        Alcotest.(check int) "two configurations: event vs sequential" 2 configs
      | o -> Alcotest.failf "trial %d: %a" t.Campaign.t_index Campaign.pp_outcome o)
    r.Campaign.r_trials;
  Alcotest.(check string) "dRMT report identical across jobs"
    (Campaign.to_json (Campaign.run (mk 1)))
    (Campaign.to_json r)

(* Under [--substrate all] trials alternate family by index, so resume and
   sharding stay deterministic. *)
let test_all_selector_alternates () =
  let r = Campaign.run (Campaign.config ~trials:6 ~substrate:"all" ~phvs:15 ()) in
  List.iter
    (fun t ->
      match (t.Campaign.t_index mod 2, t.Campaign.t_params) with
      | 0, Campaign.Rmt_params _ | 1, Campaign.Drmt_params _ -> ()
      | _ -> Alcotest.failf "trial %d: wrong family" t.Campaign.t_index)
    r.Campaign.r_trials;
  Alcotest.(check int) "all six agree" 6 r.Campaign.r_agree

(* The acceptance bar for dRMT as a first-class target: an injected
   semantic divergence (mutated table entries and defaults on the
   event-driven candidate only) MUST surface as a campaign failure, with a
   shrunk counterexample, and must replay from the recorded seed alone. *)
let test_drmt_sabotage_is_caught () =
  let sabotage i = i = 1 in
  let cfg = Campaign.config ~trials:3 ~substrate:"drmt" ~phvs:25 ~sabotage () in
  let r = Campaign.run cfg in
  Alcotest.(check int) "exactly the sabotaged trial diverges" 1 r.Campaign.r_divergent;
  Alcotest.(check int) "the other trials agree" 2 r.Campaign.r_agree;
  let bad = List.nth r.Campaign.r_trials 1 in
  (match bad.Campaign.t_outcome with
  | Campaign.Finished (Oracle.Divergence d) ->
    Alcotest.(check string) "the event-driven candidate is named" "drmt@event"
      d.Oracle.dv_config
  | o -> Alcotest.failf "expected divergence, got %a" Campaign.pp_outcome o);
  (match bad.Campaign.t_shrunk with
  | Some s ->
    Alcotest.(check bool) "counterexample shrunk to few packets" true
      (List.length s.Shrink.sh_inputs <= 25)
  | None -> Alcotest.fail "divergent trial was not shrunk");
  (* replayability: re-running the trial from its index reproduces the
     exact divergence — the seed in the report is all a human needs *)
  let again, _ = Campaign.run_trial ~cfg 1 in
  Alcotest.(check int) "derived seed is stable" bad.Campaign.t_seed again.Campaign.t_seed;
  match (bad.Campaign.t_outcome, again.Campaign.t_outcome) with
  | Campaign.Finished (Oracle.Divergence a), Campaign.Finished (Oracle.Divergence b) ->
    Alcotest.(check bool) "replay reproduces the same divergence" true (a = b)
  | _ -> Alcotest.fail "replay did not reproduce the divergence"

(* Fault injection on the dRMT pair: input-path faults (flips + drops) keep
   the event and sequential substrates in lock-step, and the fault-free
   replay stays pristine. *)
let test_drmt_faults_mode () =
  let mk jobs =
    Campaign.config ~trials:5 ~jobs ~substrate:"drmt" ~phvs:20
      ~faults:(Campaign.fault_config ~runs:3 ()) ()
  in
  let r = Campaign.run (mk 2) in
  Alcotest.(check int) "no fault-flagged dRMT trials" 0 r.Campaign.r_fault_flagged;
  List.iter
    (fun t ->
      match t.Campaign.t_faults with
      | Some fs ->
        Alcotest.(check int) "all scenarios ran" 3 fs.Campaign.fs_runs;
        Alcotest.(check int) "event = sequential under faults" 0
          fs.Campaign.fs_substrate_mismatch;
        Alcotest.(check bool) "fault-free replay is clean" true fs.Campaign.fs_replay_ok
      | None -> Alcotest.fail "fault stats missing on an agreeing dRMT trial")
    r.Campaign.r_trials;
  Alcotest.(check string) "dRMT fault campaign deterministic across jobs"
    (Campaign.to_json (Campaign.run (mk 1)))
    (Campaign.to_json r)

(* JSON round-trip across the substrate families: params and divergences
   keyed by config label survive serialization (checkpoint format v2). *)
let test_mixed_checkpoint_resume () =
  let tmp = Filename.temp_file "druzhba-drmt-ck" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let mk jobs =
        Campaign.config ~trials:10 ~jobs ~substrate:"all" ~phvs:15 ~checkpoint_every:3 ()
      in
      let expected = Campaign.to_json (Campaign.run (mk 1)) in
      (match Campaign.run_resumable ~checkpoint:tmp ~stop_after:6 (mk 1) with
      | None -> ()
      | Some _ -> Alcotest.fail "stop_after should abort the campaign");
      (match Campaign.run_resumable ~checkpoint:tmp ~resume:true (mk 2) with
      | Some r ->
        Alcotest.(check string) "resumed mixed campaign = uninterrupted" expected
          (Campaign.to_json r)
      | None -> Alcotest.fail "resume did not complete");
      (* a checkpoint from one substrate family must not resume another *)
      match
        Campaign.run_resumable ~checkpoint:tmp ~resume:true
          (Campaign.config ~trials:10 ~substrate:"rmt" ~phvs:15 ~checkpoint_every:3 ())
      with
      | exception Campaign.Resume_error _ -> ()
      | _ -> Alcotest.fail "substrate-mismatched checkpoint accepted")

let () =
  Alcotest.run "campaign"
    [
      ( "prng",
        [
          Alcotest.test_case "derive is deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "derive is well-spread" `Quick test_derive_distinct;
        ] );
      ( "runner",
        [
          Alcotest.test_case "parallel = sequential" `Quick test_runner_matches_sequential;
          Alcotest.test_case "parallel_map keeps order" `Quick test_runner_parallel_map_order;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "agrees on the accumulator" `Quick test_oracle_agrees_on_accumulator;
          Alcotest.test_case "rejects invalid mc" `Quick test_oracle_invalid_mc;
          Alcotest.test_case "diff localizes divergences" `Quick test_diff_traces_detects;
          Alcotest.test_case "configurations can disagree" `Quick test_configs_can_disagree;
          QCheck_alcotest.to_alcotest qcheck_backends_agree;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "reproduces and is smaller" `Quick
            test_shrink_reproduces_and_is_smaller;
          Alcotest.test_case "honors the probe budget" `Quick test_shrink_respects_budget;
        ] );
      ( "verify",
        [
          Alcotest.test_case "inconclusive on compiled benchmark" `Quick
            test_verify_inconclusive_on_compiled_benchmark;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "mismatch records its seed" `Quick test_mismatch_records_seed ] );
      ( "campaign",
        [
          Alcotest.test_case "JSON identical across job counts" `Quick
            test_campaign_reports_identical_across_jobs;
          Alcotest.test_case "summary counts" `Quick test_campaign_counts;
          Alcotest.test_case "native refuses coverage and sabotage-pass" `Quick
            test_config_refuses_native_modes;
        ] );
      ( "drmt substrate",
        [
          Alcotest.test_case "healthy dRMT campaign agrees across jobs" `Quick
            test_drmt_campaign_agrees_across_jobs;
          Alcotest.test_case "`All alternates families by index" `Quick
            test_all_selector_alternates;
          Alcotest.test_case "injected divergence is caught and replayable" `Quick
            test_drmt_sabotage_is_caught;
          Alcotest.test_case "input-path fault injection stays in lock-step" `Quick
            test_drmt_faults_mode;
          Alcotest.test_case "mixed-family checkpoint resume" `Quick
            test_mixed_checkpoint_resume;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "crash containment is deterministic" `Quick
            test_crash_containment_determinism;
          Alcotest.test_case "watchdog times trials out" `Quick test_watchdog_timeout;
          Alcotest.test_case "circuit breaker cuts deterministically" `Quick
            test_max_failures_cutoff;
          Alcotest.test_case "kill + resume is byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "fault injection on a healthy simulator" `Quick test_faults_mode;
        ] );
    ]
