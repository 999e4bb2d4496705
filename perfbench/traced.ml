(* The traced run: re-drives a campaign's trials through the layers' public
   functions, with one span around each call.

   This mirrors [Campaign.run_resumable] and its trial bodies for the
   configurations the workloads use (jobs 1, no fuel, no faults, no circuit
   breaker), and rebuilds the campaign report from what it computed, so the
   caller can demand that the traced report is byte-identical to the
   untraced one.  Span names are the per-layer metric names without their
   ".ms" suffix; README.md maps each to the end-to-end metric it moves.

   Two spans measure slightly more work than the untraced path does:
   "emit" times a separate [Emit.native_source] of the description that
   [Native_substrate.create] (inside "native.create") emits again, and
   both end up in the tracing overhead. *)

open Perfbench
module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Compile = Druzhba_pipeline.Compile
module Emit = Druzhba_pipeline.Emit
module Optimizer = Druzhba_optimizer.Optimizer
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Native_substrate = Druzhba_dsim.Native_substrate
module Scheduler = Druzhba_drmt.Scheduler
module Campaign = Druzhba_campaign.Campaign
module Oracle = Druzhba_campaign.Oracle
module Shrink = Druzhba_campaign.Shrink
module Sabotage = Druzhba_campaign.Sabotage
module Coverage = Druzhba_campaign.Coverage
module Corpus = Druzhba_campaign.Corpus
module Checkpoint = Druzhba_campaign.Checkpoint
module Runner = Druzhba_campaign.Runner

(* Counts kept at the same boundaries as the spans. *)
type counts = {
  mutable shrink_probes : int;
  mutable shrink_repros : int;
  mutable mutate_attempts : int;
  mutable mutate_applied : int;
  mutable checkpoint_saves : int;
  mutable emit_bytes : int;
  mutable ir_size_scc_inline : int; (* summed over oracle checks *)
  mutable ir_samples : int;
  mutable native_keys : string list; (* distinct content keys emitted *)
}

let counts () =
  { shrink_probes = 0; shrink_repros = 0; mutate_attempts = 0; mutate_applied = 0;
    checkpoint_saves = 0; emit_bytes = 0; ir_size_scc_inline = 0; ir_samples = 0; native_keys = [] }

type ctx = { sp : Span.t; n : counts; cfg : Campaign.config }

let span ctx name f = Span.with_ ctx.sp name f

let level_key = function
  | Optimizer.Unoptimized -> "unopt"
  | Optimizer.Scc -> "scc"
  | Optimizer.Scc_inline -> "scc_inline"

(* "closures@scc+inline" -> "run.closures.scc_inline" *)
let run_span label =
  let backend, level =
    match String.index_opt label '@' with
    | Some i -> (String.sub label 0 i, String.sub label (i + 1) (String.length label - i - 1))
    | None -> (label, "")
  in
  let level =
    match level with
    | "unoptimized" -> "unopt"
    | "scc+inline" | "scc-inline" -> "scc_inline"
    | l -> l
  in
  "run." ^ String.map (fun c -> if c = '-' then '_' else c) backend ^ "." ^ level

(* The IR size after scc+inline, under a span of the benchmark's own so
   that the walk is not charged to any layer. *)
let note_ir_size ctx level desc =
  if level = Optimizer.Scc_inline then
    span ctx "bench.ir_size" (fun () ->
        ctx.n.ir_size_scc_inline <- ctx.n.ir_size_scc_inline + Ir.size desc;
        ctx.n.ir_samples <- ctx.n.ir_samples + 1)

(* --- Oracle ----------------------------------------------------------------- *)

(* [Oracle.diff_substrates] with a span around every run and every diff. *)
let diff_substrates ctx ~batch ~substrates ~inputs : Oracle.outcome =
  match substrates with
  | [] | [ _ ] -> invalid_arg "Traced.diff_substrates: need a reference and a candidate"
  | reference :: candidates ->
    let capacity = List.length inputs in
    let ref_buf, act_buf =
      span ctx "oracle.diff" (fun () ->
          let w = Substrate.width reference in
          (Trace.Buffer.create ~width:w ~capacity, Trace.Buffer.create ~width:w ~capacity))
    in
    let run sub buf =
      span ctx (run_span (Substrate.name sub)) (fun () ->
          Substrate.run_batch_into ~batch sub ~inputs buf;
          Substrate.current_state sub)
    in
    let ref_state = run reference ref_buf in
    let rec judge = function
      | [] -> Oracle.Agree { configs = 1 + List.length candidates; phvs = capacity }
      | sub :: rest -> (
        let act_state = run sub act_buf in
        match span ctx "oracle.diff" (fun () -> Oracle.diff_runs ~ref_buf ~ref_state ~act_buf ~act_state) with
        | None -> judge rest
        | Some (dv_kind, dv_expected, dv_actual) ->
          Oracle.Divergence { dv_config = Substrate.name sub; dv_kind; dv_expected; dv_actual })
    in
    judge candidates

let validate ctx ~desc ~mc =
  span ctx "machine_code.validate" (fun () -> Machine_code.validate ~domains:(Ir.control_domains desc) mc)

let engine ctx ~label desc ~mc = span ctx "substrate.create" (fun () -> Substrate.of_engine ~label desc ~mc)

let closures ctx ~level ~label desc ~mc =
  let compiled = span ctx ("compile." ^ level_key level) (fun () -> Compile.compile desc ~mc) in
  span ctx "substrate.create" (fun () -> Substrate.of_compiled ~label compiled)

(* [Oracle.check]: validation, then the six RMT configurations of
   [Oracle.rmt_substrates], all built before any of them runs. *)
let rmt_check ctx ?transform ~desc ~mc ~inputs () =
  match validate ctx ~desc ~mc with
  | Error violations -> Oracle.Invalid_mc violations
  | Ok () ->
    let reference = engine ctx ~label:"interpreter@unoptimized" desc ~mc in
    let candidates =
      List.concat_map
        (fun level ->
          let name = Optimizer.level_name level in
          let optimized =
            span ctx ("optimizer." ^ level_key level) (fun () ->
                let d = Optimizer.apply ~level ~mc desc in
                match transform with Some f -> f level d | None -> d)
          in
          note_ir_size ctx level optimized;
          let interp =
            if level = Optimizer.Unoptimized then []
            else [ engine ctx ~label:("interpreter@" ^ name) optimized ~mc ]
          in
          interp @ [ closures ctx ~level ~label:("closures@" ^ name) optimized ~mc ])
        Oracle.all_levels
    in
    diff_substrates ctx ~batch:ctx.cfg.Campaign.c_batch ~substrates:(reference :: candidates) ~inputs

(* [Oracle.check_native], falling back like the campaign does when the
   toolchain is unavailable. *)
let native_check ctx ~desc ~mc ~inputs =
  match validate ctx ~desc ~mc with
  | Error violations -> Oracle.Invalid_mc violations
  | Ok () ->
    let level = Oracle.native_level in
    let optimized = span ctx ("optimizer." ^ level_key level) (fun () -> Optimizer.apply ~level ~mc desc) in
    note_ir_size ctx level optimized;
    let source = span ctx "emit" (fun () -> Emit.native_source optimized ~mc) in
    ctx.n.emit_bytes <- ctx.n.emit_bytes + String.length source;
    let key = Native_substrate.content_key source in
    if not (List.mem key ctx.n.native_keys) then ctx.n.native_keys <- key :: ctx.n.native_keys;
    let native =
      match
        span ctx "native.create" (fun () -> Native_substrate.create ~label:"native@scc-inline" optimized ~mc)
      with
      | Ok native -> native
      | Error _ -> closures ctx ~level ~label:"native-fallback@scc-inline" optimized ~mc
    in
    let substrates =
      [ engine ctx ~label:"interpreter@unoptimized" desc ~mc;
        closures ctx ~level ~label:"closures@scc-inline" optimized ~mc; native ]
    in
    diff_substrates ctx ~batch:ctx.cfg.Campaign.c_batch ~substrates ~inputs

(* [Shrink.minimize] with every probe counted; the probes' oracle runs are
   child spans, so "shrink" keeps only the shrinker's own bookkeeping. *)
let shrink ctx ~minimize ~check =
  span ctx "shrink" (fun () ->
      minimize (fun probe ->
          ctx.n.shrink_probes <- ctx.n.shrink_probes + 1;
          let reproduced = match check probe with Oracle.Divergence _ -> true | _ -> false in
          if reproduced then ctx.n.shrink_repros <- ctx.n.shrink_repros + 1;
          reproduced))

let rmt_shrink ctx ~check ~inputs ~mc =
  shrink ctx
    ~check:(fun (inputs, mc) -> check ~inputs ~mc)
    ~minimize:(fun repro ->
      Shrink.minimize ~max_probes:ctx.cfg.Campaign.c_max_probes
        ~repro:(fun ~inputs ~mc -> repro (inputs, mc)) ~inputs ~mc ())

(* --- Trial bodies ---------------------------------------------------------- *)

let generate ctx ~depth ~width ~bits ~stateful ~stateless =
  span ctx "dgen" (fun () ->
      Dgen.generate (Dgen.config ~depth ~width ~bits ())
        ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless))

let rmt_traffic ctx ~prng ~width ~bits =
  span ctx "traffic" (fun () ->
      let seed = Prng.bits prng 30 in
      Traffic.phvs (Traffic.create ~seed ~width ~bits) ctx.cfg.Campaign.c_phvs)

let rmt_trial ctx ~prng ?mc_override ~depth ~width ~bits ~stateful ~stateless () =
  let cfg = ctx.cfg in
  let desc = generate ctx ~depth ~width ~bits ~stateful ~stateless in
  let mc =
    match mc_override with
    | Some mc -> mc
    | None -> span ctx "fuzz.random_mc" (fun () -> Fuzz.random_mc prng desc)
  in
  let inputs = rmt_traffic ctx ~prng ~width ~bits in
  let transform_for mc = if cfg.Campaign.c_sabotage_pass then Some (Sabotage.transform ~mc) else None in
  let check ~inputs ~mc = rmt_check ctx ?transform:(transform_for mc) ~desc ~mc ~inputs () in
  let outcome = check ~inputs ~mc in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when cfg.Campaign.c_shrink ->
      Some (rmt_shrink ctx ~check ~inputs ~mc)
    | _ -> None
  in
  let extra =
    if not cfg.Campaign.c_coverage then None
    else
      let x_coverage =
        span ctx "coverage.replay" (fun () ->
            let shape = Coverage.rmt_shape ~depth ~width ~bits ~stateful ~stateless in
            Coverage.of_rmt_trial ~shape ~desc ~mc ~inputs ())
      in
      Some
        { Campaign.x_coverage;
          x_material = Corpus.Rmt_material { depth; width; bits; stateful; stateless; mc } }
  in
  (Campaign.Finished outcome, shrunk, extra)

let native_trial ctx ~prng ~depth ~width ~bits ~stateful ~stateless =
  let desc = generate ctx ~depth ~width ~bits ~stateful ~stateless in
  let mc = span ctx "fuzz.random_mc" (fun () -> Fuzz.random_mc prng desc) in
  let inputs = rmt_traffic ctx ~prng ~width ~bits in
  let check ~inputs ~mc = native_check ctx ~desc ~mc ~inputs in
  let outcome = check ~inputs ~mc in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when ctx.cfg.Campaign.c_shrink ->
      Some (rmt_shrink ctx ~check ~inputs ~mc)
    | _ -> None
  in
  (Campaign.Finished outcome, shrunk, None)

let drmt_trial ctx ~prng ?entries_override ~tables ~processors ~n_entries () =
  let cfg = ctx.cfg in
  let p, entries, reference, sched_cfg =
    span ctx "drmt.build" (fun () ->
        let p = Campaign.drmt_program ~tables in
        let entries =
          match entries_override with
          | Some entries -> entries
          | None -> Campaign.drmt_entries prng ~tables ~count:n_entries
        in
        (p, entries, Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries p,
         Scheduler.config ~processors ()))
  in
  let traffic_seed = Prng.bits prng 30 in
  let inputs =
    span ctx "traffic" (fun () -> Drmt_substrate.traffic ~seed:traffic_seed reference cfg.Campaign.c_phvs)
  in
  let check inputs =
    let substrates =
      span ctx "drmt.build" (fun () ->
          [ Drmt_substrate.pack reference;
            Drmt_substrate.of_p4 ~cfg:sched_cfg ~mode:Drmt_substrate.Event ~entries p ])
    in
    diff_substrates ctx ~batch:cfg.Campaign.c_batch ~substrates ~inputs
  in
  let outcome = check inputs in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when cfg.Campaign.c_shrink ->
      Some
        (shrink ctx ~check ~minimize:(fun repro ->
             Shrink.minimize_inputs ~max_probes:cfg.Campaign.c_max_probes ~repro:(fun ~inputs -> repro inputs)
               ~inputs ()))
    | _ -> None
  in
  let extra =
    if not cfg.Campaign.c_coverage then None
    else
      let x_coverage =
        span ctx "coverage.replay" (fun () ->
            Coverage.of_drmt_trial ~shape:(Coverage.drmt_shape ~tables ~processors) ~p ~entries ~inputs ())
      in
      Some { Campaign.x_coverage; x_material = Corpus.Drmt_material { tables; processors; entries } }
  in
  (Campaign.Finished outcome, shrunk, extra)

(* [Campaign.pick_mutation], with the regenerated description under "dgen"
   and the mutation itself under "corpus.mutate". *)
let pick_mutation ctx prng family (snapshot : Corpus.entry array) =
  let mine =
    List.filter
      (fun e ->
        match family with
        | Campaign.Rmt -> Corpus.is_rmt e
        | Campaign.Drmt -> not (Corpus.is_rmt e)
        | Campaign.Native -> false)
      (Array.to_list snapshot)
  in
  if mine = [] || Prng.int prng 4 >= 3 then None
  else begin
    let parent = List.nth mine (Prng.int prng (List.length mine)) in
    ctx.n.mutate_attempts <- ctx.n.mutate_attempts + 1;
    let mutated =
      match parent.Corpus.e_material with
      | Corpus.Rmt_material { depth; width; bits; stateful; stateless; mc } -> (
        let desc = generate ctx ~depth ~width ~bits ~stateful ~stateless in
        match
          span ctx "corpus.mutate" (fun () -> Corpus.mutate_rmt prng ~domains:(Ir.control_domains desc) ~bits mc)
        with
        | None -> None
        | Some (op, mc') ->
          Some (op, Campaign.Rmt_params { depth; width; bits; stateful; stateless }, `Rmt_mc mc'))
      | Corpus.Drmt_material { tables; processors; entries } -> (
        match span ctx "corpus.mutate" (fun () -> Corpus.mutate_drmt prng ~tables ~entries) with
        | None -> None
        | Some (op, tables', entries') ->
          Some
            ( op,
              Campaign.Drmt_params { tables = tables'; processors; entries = List.length entries' },
              `Drmt_entries entries' ))
    in
    Option.map
      (fun (op, params, override) ->
        ctx.n.mutate_applied <- ctx.n.mutate_applied + 1;
        (Corpus.Mutated { parent = parent.Corpus.e_id; op }, params, override))
      mutated
  end

(* [Campaign.run_trial] for the workloads' configurations. *)
let run_trial ctx ~snapshot index : Campaign.trial * Campaign.trial_extra option =
  let cfg = ctx.cfg in
  let seed = Prng.derive cfg.Campaign.c_master_seed index in
  let family = Campaign.family_of ~cfg index in
  let prng, t_origin, params, override =
    if not cfg.Campaign.c_coverage then
      let prng, params = Campaign.trial_params family seed in
      (prng, None, params, `None)
    else
      let prng = Prng.create seed in
      match pick_mutation ctx prng family snapshot with
      | Some (origin, params, override) -> (prng, Some origin, params, override)
      | None -> (prng, Some Corpus.Fresh, Campaign.draw_params family prng, `None)
  in
  let t_outcome, t_shrunk, extra =
    match
      match params with
      | Campaign.Rmt_params { depth; width; bits; stateful; stateless } ->
        let mc_override = match override with `Rmt_mc mc -> Some mc | _ -> None in
        rmt_trial ctx ~prng ?mc_override ~depth ~width ~bits ~stateful ~stateless ()
      | Campaign.Drmt_params { tables; processors; entries } ->
        let entries_override = match override with `Drmt_entries e -> Some e | _ -> None in
        drmt_trial ctx ~prng ?entries_override ~tables ~processors ~n_entries:entries ()
      | Campaign.Native_params { depth; width; bits; stateful; stateless } ->
        native_trial ctx ~prng ~depth ~width ~bits ~stateful ~stateless
    with
    | result -> result
    | exception e ->
      (Campaign.Crashed { cr_exn = Printexc.to_string e; cr_backtrace = Campaign.backtrace_text () }, None, None)
  in
  ({ Campaign.t_index = index; t_seed = seed; t_params = params; t_origin; t_outcome; t_shrunk; t_faults = None },
   extra)

(* --- Campaign ----------------------------------------------------------------- *)

type result = {
  json : string; (* [Campaign.to_json] of the rebuilt report *)
  report : Campaign.report;
  spans : Span.span list;
  counts : counts;
  start : float;
  stop : float;
}

(* Re-drives the whole campaign [cfg] and rebuilds its report.  Refuses any
   configuration the mirror does not cover, so a workload change cannot
   silently compare unlike runs. *)
let campaign ?checkpoint (cfg : Campaign.config) : result =
  if cfg.Campaign.c_jobs <> 1 || cfg.Campaign.c_fuel <> None || cfg.Campaign.c_faults <> None
     || cfg.Campaign.c_max_failures <> None || cfg.Campaign.c_hook <> None || cfg.Campaign.c_sabotage <> None
  then invalid_arg "Traced.campaign: configuration not mirrored";
  let ctx = { sp = Span.create (); n = counts (); cfg } in
  let start = Unix.gettimeofday () in
  let notes =
    let selection = Option.value (Campaign.families_of_name cfg.Campaign.c_substrate) ~default:[] in
    if not (List.mem Campaign.Native selection) then []
    else
      match Native_substrate.available () with
      | Ok () -> []
      | Error reason ->
        [ Printf.sprintf
            "native substrate unavailable (%s); native trials ran on the interpreted fallback \
             (native-fallback@scc-inline)"
            reason ]
  in
  Runner.force_atoms ();
  let n = cfg.Campaign.c_trials in
  let results = Array.make (max 1 n) None in
  let coverage = ref Coverage.empty and corpus = Corpus.create () and novel_trials = ref 0 in
  let snapshot = ref [||] in
  let i = ref 0 in
  while !i < n do
    let base = !i in
    let hi = min n (base + cfg.Campaign.c_checkpoint_every) in
    let snap = !snapshot in
    let chunk = Array.init (hi - base) (fun k -> run_trial ctx ~snapshot:snap (base + k)) in
    Array.iteri (fun k (t, _) -> results.(base + k) <- Some t) chunk;
    if cfg.Campaign.c_coverage then
      span ctx "coverage.merge" (fun () ->
          Array.iter
            (fun ((t : Campaign.trial), extra) ->
              match extra with
              | None -> ()
              | Some (x : Campaign.trial_extra) ->
                let nvl = Coverage.novel ~existing:!coverage x.Campaign.x_coverage in
                if nvl > 0 then begin
                  incr novel_trials;
                  ignore
                    (Corpus.add corpus ~trial:t.Campaign.t_index
                       ~origin:(Option.value t.Campaign.t_origin ~default:Corpus.Fresh)
                       ~material:x.Campaign.x_material ~novel:nvl)
                end;
                coverage := Coverage.union !coverage x.Campaign.x_coverage)
            chunk;
          snapshot := Corpus.snapshot corpus);
    i := hi;
    match checkpoint with
    | Some path ->
      span ctx "checkpoint.save" (fun () -> Checkpoint.save path (Campaign.checkpoint_of ~cfg results hi));
      ctx.n.checkpoint_saves <- ctx.n.checkpoint_saves + 1
    | None -> ()
  done;
  let trials = List.init n (fun i -> Option.get results.(i)) in
  let count p = List.length (List.filter p trials) in
  let finished f = count (fun (t : Campaign.trial) -> match t.Campaign.t_outcome with Campaign.Finished o -> f o | _ -> false) in
  let r_coverage =
    if not cfg.Campaign.c_coverage then None
    else
      let entries, fresh, mutated = Corpus.stats corpus in
      Some
        { Campaign.cv_coverage = !coverage; cv_novel_trials = !novel_trials; cv_corpus_entries = entries;
          cv_corpus_fresh = fresh; cv_corpus_mutated = mutated }
  in
  (match (cfg.Campaign.c_corpus_dir, r_coverage) with
  | Some dir, Some cv ->
    span ctx "corpus.save" (fun () ->
        Corpus.save dir ~master_seed:cfg.Campaign.c_master_seed ~coverage:cv.Campaign.cv_coverage
          ~summary:(Campaign.coverage_summary cv) corpus)
  | _ -> ());
  let report =
    { Campaign.r_config = cfg; r_trials = trials; r_coverage; r_notes = notes;
      r_agree = finished (function Oracle.Agree _ -> true | _ -> false);
      r_divergent = finished (function Oracle.Divergence _ -> true | _ -> false);
      r_invalid = finished (function Oracle.Invalid_mc _ -> true | _ -> false);
      r_crashed = count (fun t -> match t.Campaign.t_outcome with Campaign.Crashed _ -> true | _ -> false);
      r_timeout = count (fun t -> match t.Campaign.t_outcome with Campaign.Timed_out _ -> true | _ -> false);
      r_fault_flagged = 0; r_stopped_after = None }
  in
  let json = span ctx "report.to_json" (fun () -> Campaign.to_json report) in
  { json; report; spans = Span.spans ctx.sp; counts = ctx.n; start; stop = Unix.gettimeofday () }
