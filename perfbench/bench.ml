(* The campaign benchmark's one command.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it runs the workload's campaigns untraced through
   [Campaign.run_resumable], times every trial in CPU time from the
   campaign's trial-start hook, scales each time by the host's speed around
   it ({!Hostspeed}), checks every report and prints the end-to-end metrics.
   With --trace 1 it runs half as many campaigns, each once untraced and
   once re-driven under spans ({!Traced}), demands identical reports, and
   prints the per-layer metrics, a share table and the tracing overhead.
   The last line of standard output is the result as one JSON object; any
   failed check makes the exit code 1. *)

open Perfbench
module Dgen = Druzhba_pipeline.Dgen
module Atoms = Druzhba_atoms.Atoms
module Native_substrate = Druzhba_dsim.Native_substrate
module Campaign = Druzhba_campaign.Campaign
module Oracle = Druzhba_campaign.Oracle
module Sabotage = Druzhba_campaign.Sabotage
module Shrink = Druzhba_campaign.Shrink

let now = Unix.gettimeofday

(* CPU seconds of this process and of the children it has waited for (the
   native workload's compilers).  Every end-to-end timing is in CPU time:
   on a shared host, time spent waiting for a CPU is other tenants' load,
   not the program's cost. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* A healthy run ends in well under a minute.  A broken program can spend
   many minutes shrinking divergences, so past this point every trial is
   refused at its start (and crashes) and no further campaign starts; the
   run then reports itself incorrect within three minutes. *)
let deadline = now () +. 120.

exception Past_deadline

let past_deadline () = now () > deadline

(* Runs campaigns [0, k) through [f] until one of them reports a problem or
   the deadline passes. *)
let campaigns_until_failure k f =
  let rec go i acc =
    if i = k then (List.rev acc, [])
    else
      let problems, r = f i in
      if problems <> [] then (List.rev (r :: acc), [ Printf.sprintf "stopped after campaign %d of %d" i k ])
      else if past_deadline () then (List.rev (r :: acc), [ "stopped at the deadline" ])
      else go (i + 1) (r :: acc)
  in
  go 0 []

(* --- Checks ------------------------------------------------------------------ *)

let is_divergence (t : Campaign.trial) =
  match t.Campaign.t_outcome with Campaign.Finished (Oracle.Divergence _) -> true | _ -> false

(* Divergent trials that carry a shrunk counterexample. *)
let findings (r : Campaign.report) =
  List.filter (fun t -> is_divergence t && t.Campaign.t_shrunk <> None) r.Campaign.r_trials

(* Trials that count against the workload: crashes, timeouts and invalid
   machine code always; divergences too unless the workload plants a bug. *)
let failed (w : Workload.t) (r : Campaign.report) =
  r.Campaign.r_crashed + r.Campaign.r_timeout + r.Campaign.r_invalid + r.Campaign.r_fault_flagged
  + if w.hunt then 0 else r.Campaign.r_divergent

(* A finding is genuine when its shrunk counterexample diverges with the
   planted pass and agrees without it. *)
let replay_finding (t : Campaign.trial) =
  match (t.Campaign.t_params, t.Campaign.t_shrunk) with
  | Campaign.Rmt_params { depth; width; bits; stateful; stateless }, Some sh -> (
    let desc =
      Dgen.generate (Dgen.config ~depth ~width ~bits ())
        ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
    in
    let mc = sh.Shrink.sh_mc and inputs = sh.Shrink.sh_inputs in
    match
      ( Oracle.check ~transform:(Sabotage.transform ~mc) ~desc ~mc ~inputs (),
        Oracle.check ~desc ~mc ~inputs () )
    with
    | Oracle.Divergence _, Oracle.Agree _ -> None
    | _ -> Some (Printf.sprintf "trial %d: shrunk counterexample does not isolate the planted pass" t.Campaign.t_index))
  | _ -> Some (Printf.sprintf "trial %d: divergence outside the planted RMT pass" t.Campaign.t_index)

(* What the benchmark keeps of one campaign once its report is checked: the
   report itself is dropped, so peak RSS measures the program, not the
   benchmark's bookkeeping. *)
type summary = {
  json : string; (* [Campaign.to_json] *)
  trials : int;
  failed : int;
  findings : int;
  classes : string list; (* each trial's outcome class, in index order *)
  probes : int; (* shrink probes over all trials *)
  corpus_entries : int;
  novel : int; (* coverage-novel trials *)
  problems : string list;
}

let summarize (w : Workload.t) (r : Campaign.report) ~json =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let trials = List.length r.Campaign.r_trials in
  if r.Campaign.r_stopped_after <> None then fail "campaign stopped early";
  if trials <> w.trials then fail "report holds %d trials" trials;
  if failed w r > 0 then fail "%d failed trials" (failed w r);
  if w.hunt then begin
    if r.Campaign.r_divergent <> List.length (findings r) then fail "a divergence was not shrunk";
    List.iter (fun t -> Option.iter (fun m -> problems := m :: !problems) (replay_finding t)) (findings r)
  end
  else if r.Campaign.r_agree <> w.trials then fail "only %d of %d trials agree" r.Campaign.r_agree w.trials;
  if w.native_cold then List.iter (fail "report note: %s") r.Campaign.r_notes;
  let class_of (t : Campaign.trial) =
    match Campaign.json_of_outcome t.Campaign.t_outcome with
    | Druzhba_campaign.Report.Obj (("class", Druzhba_campaign.Report.Str c) :: _) -> c
    | _ -> "?"
  in
  let cv f = match r.Campaign.r_coverage with Some cv -> f cv | None -> 0 in
  {
    json;
    trials;
    failed = failed w r;
    findings = List.length (findings r);
    classes = List.map class_of r.Campaign.r_trials;
    probes =
      List.fold_left
        (fun acc t -> acc + match t.Campaign.t_shrunk with Some sh -> sh.Shrink.sh_probes | None -> 0)
        0 r.Campaign.r_trials;
    corpus_entries = cv (fun cv -> cv.Campaign.cv_corpus_entries);
    novel = cv (fun cv -> cv.Campaign.cv_novel_trials);
    problems = List.rev !problems;
  }

(* Peak resident set of this process since the last [reset_peak_rss]. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
      in
      scan ())

(* Starts a campaign the way a fresh process would: from a compacted heap,
   with the kernel's peak-RSS mark reset to the current size. *)
let reset_peak_rss () =
  Gc.compact ();
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* --- One untraced campaign ------------------------------------------------- *)

type run = {
  summary : summary;
  start : float; (* wall clock at the campaign's start *)
  wall : float; (* campaign start to report rendered *)
  cpu : float; (* CPU seconds over the same interval *)
  init_cpu : float; (* CPU seconds from the campaign's start to its first trial's *)
  peak_rss : float; (* MB, during the campaign *)
  starts : float array; (* per trial, the wall clock at its start *)
  durations : float array; (* per trial, CPU seconds from its start to the next trial's start *)
  corpus_bytes : int;
}

(* The native-cache checks shared by both runs: something was compiled, and
   exactly once per distinct module. *)
let native_problems (w : Workload.t) ~compiles ~modules =
  if not w.native_cold then []
  else if compiles <= 0 then [ "no native module was compiled" ]
  else if compiles <> modules then [ Printf.sprintf "%d native compiles for %d distinct modules" compiles modules ]
  else []

let compiles () = (Native_substrate.stats ()).Native_substrate.st_compiles

(* Runs campaign [k] of the workload untraced.  With [repeat] the same
   campaign then runs again, untimed, over what the first run left behind —
   for native-cold a warm build cache — and its report must be
   byte-identical.  With [host] the reference is sampled between trials,
   and the CPU time that costs is left out of the campaign's. *)
let untraced ?host ?(repeat = false) (w : Workload.t) ~root ~seed k =
  let s = Workload.prepare w ~root k in
  let cpu () = cpu () -. match host with Some h -> Hostspeed.overhead h | None -> 0. in
  let starts = Array.make w.trials Float.nan and walls = Array.make w.trials Float.nan in
  let hook i =
    Option.iter Hostspeed.maybe_sample host;
    starts.(i) <- cpu ();
    walls.(i) <- now ();
    if past_deadline () then raise Past_deadline
  in
  let master_seed = Workload.master_seed ~seed k in
  let run_campaign cfg =
    match Campaign.run_resumable ?checkpoint:s.checkpoint cfg with
    | Some r -> r
    | None -> failwith "campaign stopped early"
  in
  let compiles0 = compiles () in
  reset_peak_rss ();
  let t0 = now () and c0 = cpu () in
  let report = run_campaign (Workload.config ~hook w ~master_seed s) in
  let json = Campaign.to_json report in
  let t1 = now () and c1 = cpu () in
  let peak_rss = peak_rss_mb () in
  let n = Array.length starts in
  let durations = Array.init n (fun i -> (if i + 1 < n then starts.(i + 1) else c1) -. starts.(i)) in
  let compiles = compiles () - compiles0 in
  let summary = summarize w report ~json in
  let corpus_bytes = match s.corpus with Some d -> Workload.bytes_under d | None -> 0 in
  let repeated =
    if repeat && Campaign.to_json (run_campaign (Workload.config w ~master_seed s)) <> json then
      [ Printf.sprintf "campaign %d: report differs when the campaign is repeated" k ]
    else []
  in
  let summary =
    { summary with
      problems = summary.problems @ native_problems w ~compiles ~modules:(Workload.modules_built s) @ repeated }
  in
  Workload.remove_tree s.dir;
  { summary; start = t0; wall = t1 -. t0; cpu = c1 -. c0; init_cpu = starts.(0) -. c0; peak_rss; starts = walls;
    durations; corpus_bytes }

(* Drops what only the campaign's own checks needed, so that a run's
   bookkeeping does not grow with its campaign count. *)
let forget r = { r with summary = { r.summary with json = ""; classes = [] } }

let run_problems (w : Workload.t) runs =
  List.concat_map (fun r -> r.summary.problems) runs
  @ if w.hunt && List.for_all (fun r -> r.summary.findings = 0) runs then [ "no findings" ] else []

(* --- Setup time -------------------------------------------------------------- *)

let setup_probes = 25

(* The child side of a setup probe: the workload's set-up for campaign [k]
   up to its first trial's start.  It prints the CPU time it has used by
   then, from exec on, and exits. *)
let setup_probe (w : Workload.t) ~root ~seed k =
  if w.native_cold then ignore (Native_substrate.available ());
  let root = Filename.concat root (Printf.sprintf "probe-%d" (Unix.getpid ())) in
  let s = Workload.prepare w ~root k in
  let hook _ =
    Printf.printf "%.9f\n%!" (cpu ());
    exit 0
  in
  ignore (Campaign.run_resumable ?checkpoint:s.checkpoint (Workload.config ~hook w ~master_seed:(Workload.master_seed ~seed k) s));
  exit 1

(* CPU time a freshly spawned process spends before the first trial of
   campaign [k] starts.  Set-up work depends on the campaign's seed, so
   each probe sets up a different campaign. *)
let measure_setup ~argv ~root k =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.append argv [| "--setup-probe"; string_of_int k |]) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  Workload.remove_tree (Filename.concat root (Printf.sprintf "probe-%d" pid));
  match (status, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some t -> t
  | _ -> failwith "setup probe failed"

(* --- Reporting ----------------------------------------------------------------- *)

let emit_result ~correct ~attempted ~failed metrics =
  print_endline (Json.to_string (Json.result_line ~correct ~attempted ~failed metrics))

let print_metric (name, v, unit) = Printf.printf "  %-30s %14.4f %s\n" name v unit

(* --- Untraced run ------------------------------------------------------------------ *)

let sum f = List.fold_left (fun acc x -> acc + f x) 0

(* Trials per tail block: the tail rule then reports p90 of every block. *)
let tail_block = 100

(* Every end-to-end timing is scaled to the nominal host by the slowdown
   measured around it ({!Hostspeed}); rates scale the other way.  The setup
   probes are spread over the run, a few after each campaign, so that they
   see the same host as the campaigns and not what an earlier run left
   behind (its files still being written back, for one). *)
let end_to_end (w : Workload.t) ~root ~seed ~seconds ~argv ~host =
  let k = Workload.campaigns w ~seconds in
  Printf.printf "workload %s: %d campaigns x %d trials, %d PHVs/trial, closed loop of one client (--jobs 1)\n%!"
    w.name k w.trials w.phvs;
  let probes_after = (setup_probes + k - 1) / k in
  let probes = ref [] in
  let probe p =
    let lo = now () in
    let t = measure_setup ~argv ~root p in
    probes := (t, lo, now ()) :: !probes
  in
  Hostspeed.sample host;
  let runs, stopped =
    campaigns_until_failure k (fun i ->
        let r = untraced ~host ~repeat:(i = 0) w ~root ~seed i in
        Hostspeed.sample host;
        if i * probes_after < setup_probes then begin
          for p = i * probes_after to min setup_probes ((i + 1) * probes_after) - 1 do
            probe p
          done;
          Hostspeed.sample host
        end;
        (r.summary.problems, forget r))
  in
  if !probes = [] then begin
    probe 0;
    Hostspeed.sample host
  end;
  let probes = Array.of_list !probes in
  let setup_raw = Stats.median (Array.map (fun (t, _, _) -> t) probes) in
  let setup = Stats.median (Array.map (fun (t, lo, hi) -> t /. Hostspeed.around host lo hi) probes) in
  (* each trial scaled by the host's slowdown over its own wall interval *)
  let scaled =
    List.map
      (fun r ->
        let n = Array.length r.durations in
        let stop i = if i + 1 < n then r.starts.(i + 1) else r.start +. r.wall in
        ( r,
          r.init_cpu /. Hostspeed.around host r.start r.starts.(0),
          Array.mapi (fun i d -> d /. Hostspeed.around host r.starts.(i) (stop i)) r.durations ))
      runs
  in
  let scaled_durations = Array.concat (List.map (fun (_, _, d) -> d) scaled) in
  let durations = Array.concat (List.map (fun r -> r.durations) runs) in
  let n = Array.length durations in
  let wall = List.fold_left (fun acc r -> acc +. r.wall) 0. runs in
  let cpu_total = List.fold_left (fun acc r -> acc +. r.cpu) 0. runs in
  let tail durations =
    match Stats.block_tail ~block:tail_block durations with
    | Some t -> (t, [])
    | None -> ((100, 0, Stats.percentile 100 durations), [ "too few trials for a tail" ])
  in
  let ((tail_p, blocks, tail_scaled), short), ((_, _, tail_raw), _) = (tail scaled_durations, tail durations) in
  let problems = run_problems w runs @ stopped @ short in
  let failed_trials = sum (fun r -> r.summary.failed) runs in
  let n_findings = sum (fun r -> r.summary.findings) runs in
  (* throughput is the median campaign's, so a burst of load on a shared
     host moves one campaign rather than the whole figure *)
  let rate (r, init, durations) = float_of_int r.summary.trials /. Array.fold_left ( +. ) init durations in
  let metrics =
    [ ("trials_per_s", Stats.median (Array.of_list (List.map rate scaled)), "1/s");
      ("trial_p50_ms", 1000. *. Stats.median scaled_durations, "ms");
      ("trial_tail_ms", 1000. *. tail_scaled, "ms");
      ("setup_s", setup, "s");
      ("peak_rss_mb", Stats.median (Array.of_list (List.map (fun r -> r.peak_rss) runs)), "MB") ]
  in
  List.iter print_metric metrics;
  Printf.printf "  timings are CPU time scaled to the nominal host: this one ran %.4fx slower (median reference slice %.4f ms of %d, nominal %.1f ms)\n"
    (Hostspeed.slowdown host) (1000. *. Hostspeed.slice_s host) (Hostspeed.slices host) (1000. *. Hostspeed.nominal_slice_s);
  List.iter
    (fun (name, v, unit) -> Printf.printf "  as measured: %-17s %14.4f %s\n" name v unit)
    [ ("trials_per_s", Stats.median (Array.of_list (List.map (fun r -> float_of_int r.summary.trials /. r.cpu) runs)), "1/s");
      ("trial_p50_ms", 1000. *. Stats.median durations, "ms");
      ("trial_tail_ms", 1000. *. tail_raw, "ms");
      ("setup_s", setup_raw, "s") ];
  Printf.printf "  trials_per_s is the median over %d campaigns (all together: %.4f per CPU-second, %.4f per wall second)\n"
    (List.length runs) (float_of_int n /. cpu_total) (float_of_int n /. wall);
  Printf.printf "  trial_tail_ms is the median p%d of %d blocks of %d consecutive trials (%d trials)\n" tail_p blocks
    tail_block n;
  Printf.printf "  setup_s is the median of %d process starts (as measured, ms: p25 %.3f, p75 %.3f); peak_rss_mb is the median campaign's\n"
    (Array.length probes)
    (1000. *. Stats.percentile 25 (Array.map (fun (t, _, _) -> t) probes))
    (1000. *. Stats.percentile 75 (Array.map (fun (t, _, _) -> t) probes));
  Printf.printf "  trial ms (scaled): p90 %.3f, p95 %.3f, p99 %.3f, max %.3f\n" (1000. *. Stats.percentile 90 scaled_durations)
    (1000. *. Stats.percentile 95 scaled_durations) (1000. *. Stats.percentile 99 scaled_durations)
    (1000. *. Stats.percentile 100 scaled_durations);
  Printf.printf "  failed_share %d/%d = %.4f\n" failed_trials n (float_of_int failed_trials /. float_of_int n);
  if w.hunt then
    Printf.printf "  findings %d, findings_per_s %.4f per CPU-second\n" n_findings (float_of_int n_findings /. cpu_total);
  List.iter (Printf.printf "  CHECK FAILED: %s\n") problems;
  emit_result ~correct:(problems = []) ~attempted:n ~failed:failed_trials metrics;
  problems = []

(* --- Traced run ---------------------------------------------------------------------- *)

(* Spans reported as per-layer metrics, in the order BENCHMARK.json lists them. *)
let layer_spans =
  [ "dgen"; "fuzz.random_mc"; "traffic"; "machine_code.validate"; "optimizer.unopt"; "optimizer.scc";
    "optimizer.scc_inline"; "compile.unopt"; "compile.scc"; "compile.scc_inline"; "substrate.create";
    "run.interpreter.unopt"; "run.interpreter.scc"; "run.interpreter.scc_inline"; "run.closures.unopt";
    "run.closures.scc"; "run.closures.scc_inline"; "oracle.diff"; "checkpoint.save"; "shrink";
    "coverage.replay"; "coverage.merge"; "corpus.mutate"; "corpus.save"; "drmt.build";
    "run.drmt.sequential"; "run.drmt.event"; "emit"; "native.create"; "run.native.scc_inline";
    "report.to_json" ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b

(* One campaign re-driven under spans, checked against its untraced twin. *)
type traced = {
  self : (string * float) list; (* self seconds per span name, plus "unattributed" and "shrink.total" *)
  wall : float;
  counts : Traced.counts;
  compiles : int;
  cache_hits : int;
  problems : string list;
}

let traced_campaign (w : Workload.t) ~root ~seed k (run : run) =
  let s = Workload.prepare w ~root k in
  let cfg = Workload.config w ~master_seed:(Workload.master_seed ~seed k) s in
  Gc.compact ();
  let st0 = Native_substrate.stats () in
  let tr = Traced.campaign ?checkpoint:s.checkpoint cfg in
  let st1 = Native_substrate.stats () in
  let compiles = st1.Native_substrate.st_compiles - st0.Native_substrate.st_compiles in
  let corpus_bytes = match s.corpus with Some d -> Workload.bytes_under d | None -> 0 in
  let modules = Workload.modules_built s in
  Workload.remove_tree s.dir;
  let t = summarize w tr.Traced.report ~json:tr.Traced.json and u = run.summary in
  let mismatch what = Printf.sprintf "campaign %d: traced %s differ from the untraced run" k what in
  let problems =
    List.filter_map Fun.id
      [ (if t.classes <> u.classes then Some (mismatch "outcome classes") else None);
        (if t.probes <> u.probes then Some (mismatch "shrink probe totals") else None);
        (if t.corpus_entries <> u.corpus_entries || corpus_bytes <> run.corpus_bytes then Some (mismatch "corpus entries")
         else None);
        (if t.json <> u.json then Some (mismatch "reports") else None) ]
    @ native_problems w ~compiles ~modules
    @
    if w.native_cold && compiles <> List.length tr.Traced.counts.Traced.native_keys then
      [ Printf.sprintf "campaign %d: %d native compiles for %d distinct emitted sources" k compiles
          (List.length tr.Traced.counts.Traced.native_keys) ]
    else []
  in
  let shrink_total =
    List.fold_left
      (fun acc (sp : Span.span) -> if sp.Span.name = "shrink" then acc +. (sp.Span.stop -. sp.Span.start) else acc)
      0. tr.Traced.spans
  in
  {
    self =
      Span.self_by_name tr.Traced.spans
      @ [ ("unattributed", Span.unattributed ~lo:tr.Traced.start ~hi:tr.Traced.stop tr.Traced.spans);
          ("shrink.total", shrink_total) ];
    wall = tr.Traced.stop -. tr.Traced.start;
    counts = tr.Traced.counts;
    compiles;
    cache_hits = st1.Native_substrate.st_cache_hits - st0.Native_substrate.st_cache_hits;
    problems;
  }

let traced_run (w : Workload.t) ~root ~seed ~seconds ~host =
  let k = max 1 (Workload.campaigns w ~seconds / 2) in
  Printf.printf "workload %s (traced): %d campaigns x %d trials, %d PHVs/trial, each run untraced then traced\n%!"
    w.name k w.trials w.phvs;
  let alloc = ref 0. and majors = ref 0 in
  let pairs, stopped =
    campaigns_until_failure k (fun i ->
        Hostspeed.sample host;
        let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
        let run = untraced w ~root ~seed i in
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
        (* a campaign that already failed its checks is not worth tracing *)
        if run.summary.problems <> [] then (run.summary.problems, (forget run, None))
        else
          let t = traced_campaign w ~root ~seed i run in
          (t.problems, (forget run, Some t)))
  in
  let runs = List.map fst pairs and traced = List.filter_map snd pairs in
  let n = sum (fun r -> r.summary.trials) runs in
  let problems = run_problems w runs @ List.concat_map (fun t -> t.problems) traced @ stopped in
  let untraced_wall = List.fold_left (fun acc (r : run) -> acc +. r.wall) 0. runs in
  let traced_wall = List.fold_left (fun acc (t : traced) -> acc +. t.wall) 0. traced in
  let self = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (t : traced) ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt self name with
          | Some acc -> Hashtbl.replace self name (acc +. v)
          | None ->
            order := name :: !order;
            Hashtbl.add self name v)
        t.self)
    traced;
  let get name = Option.value (Hashtbl.find_opt self name) ~default:0. in
  let c f = sum (fun (t : traced) -> f t.counts) traced in
  let n_findings = sum (fun r -> r.summary.findings) runs in
  let compiles = sum (fun (t : traced) -> t.compiles) traced and hits = sum (fun (t : traced) -> t.cache_hits) traced in
  (* the share table, in the layout of ROADMAP.md's baseline table *)
  Printf.printf "\n| Layer | Share | ms/trial |\n|---|---|---|\n";
  List.iter
    (fun (name, v) ->
      Printf.printf "| `%s` | %.1f%% | %.4f |\n" name (100. *. fratio v traced_wall) (1000. *. v /. float_of_int n))
    (List.sort
       (fun (_, a) (_, b) -> Float.compare b a)
       (List.filter_map (fun name -> if name = "shrink.total" then None else Some (name, get name)) !order));
  Printf.printf "\ntracing overhead: traced %.3f s against untraced %.3f s over the same %d trials = %.3fx\n\n"
    traced_wall untraced_wall n (fratio traced_wall untraced_wall);
  let per_trial name = (name ^ ".ms", 1000. *. get name /. float_of_int n, "ms") in
  let count name v = (name, float_of_int v, "count") in
  let metrics =
    List.map per_trial (layer_spans @ [ "unattributed"; "shrink.total" ])
    @ [ ("optimizer.ir_size.scc_inline", ratio (c (fun n -> n.Traced.ir_size_scc_inline)) (c (fun n -> n.Traced.ir_samples)),
         "nodes");
        count "checkpoint.saves" (c (fun n -> n.Traced.checkpoint_saves));
        count "shrink.probes" (c (fun n -> n.Traced.shrink_probes));
        ("shrink.repro_ratio", ratio (c (fun n -> n.Traced.shrink_repros)) (c (fun n -> n.Traced.shrink_probes)), "ratio");
        ("coverage.novel_ratio", ratio (sum (fun r -> r.summary.novel) runs) (if w.hunt then n else 0), "ratio");
        ("corpus.mutate_applied_ratio", ratio (c (fun n -> n.Traced.mutate_applied)) (c (fun n -> n.Traced.mutate_attempts)),
         "ratio");
        ("corpus.bytes", float_of_int (sum (fun (r : run) -> r.corpus_bytes) runs), "bytes");
        ("emit.source_bytes", ratio (c (fun n -> n.Traced.emit_bytes)) n, "bytes");
        count "native.compiles" compiles;
        ("native.cache_hit_ratio", ratio hits (hits + compiles), "ratio");
        ("gc.alloc_mb_per_trial", !alloc /. 1e6 /. float_of_int n, "MB");
        count "gc.major_collections" !majors;
        count "findings" n_findings;
        ("findings_per_s", fratio (float_of_int n_findings) (List.fold_left (fun acc (r : run) -> acc +. r.cpu) 0. runs), "1/s");
        ("trace.overhead_ratio", fratio traced_wall untraced_wall, "ratio");
        ("host.slowdown", Hostspeed.slowdown host, "ratio") ]
  in
  List.iter print_metric metrics;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") problems;
  emit_result ~correct:(problems = []) ~attempted:n ~failed:(sum (fun r -> r.summary.failed) runs) metrics;
  problems = []

(* --- Main ------------------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let phvs = ref 0 and scratch = ref ".bench_scratch" and probe = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S nominal measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--phvs", Arg.Set_int phvs, "N override the workload's PHVs per trial");
      ("--scratch", Arg.Set_string scratch, "DIR where campaigns write (default .bench_scratch)");
      ("--setup-probe", Arg.Set_int probe, "K internal: set up campaign K and report the CPU time used when its first trial starts") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe --workload NAME --seed N";
  let w =
    match Workload.find !workload with
    | Some w -> if !phvs > 0 then { w with Workload.phvs = !phvs } else w
    | None ->
      prerr_endline ("bench: unknown workload " ^ !workload);
      exit 2
  in
  let scratch_root = if Filename.is_relative !scratch then Filename.concat (Sys.getcwd ()) !scratch else !scratch in
  if !probe >= 0 then setup_probe w ~root:scratch_root ~seed:!seed !probe;
  (if w.native_cold then
     match Native_substrate.available () with
     | Ok () -> ()
     | Error reason ->
       Printf.printf "workload %s: unavailable (%s); it is never timed against the closure fallback\n" w.name reason;
       exit 3);
  let root = Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let argv =
    [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed; "--phvs"; string_of_int w.phvs;
       "--scratch"; root |]
  in
  let reference = Filename.concat (Filename.dirname Sys.executable_name) "refslice.exe" in
  let ok =
    Fun.protect
      ~finally:(fun () -> Workload.remove_tree root)
      (fun () ->
        Hostspeed.with_reference reference (fun host ->
            if !trace = 0 then end_to_end w ~root ~seed:!seed ~seconds:!seconds ~argv ~host
            else traced_run w ~root ~seed:!seed ~seconds:!seconds ~host))
  in
  exit (if ok then 0 else 1)
