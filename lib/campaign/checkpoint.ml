(* Campaign checkpoint files.

   A long campaign must survive being killed: the runner periodically
   persists which trials are complete, the records of every non-default
   trial, and the configuration signature that makes those records
   meaningful.  `--resume` then continues from the file and produces a
   report byte-identical to an uninterrupted run — possible because every
   trial is a pure function of (master seed, index), so only the
   *interesting* trials need to be stored; the plain agreeing majority is
   reconstructed from seeds on resume.

   Durability discipline: the file is written to a sibling `.tmp`, fsynced,
   and renamed into place.  A kill at any instant leaves either the old
   checkpoint or the new one, never a torn file.  The format is versioned
   JSON (the repo's own emitter/parser — no external dependency) and a
   resume validates both the version and the configuration signature, so a
   checkpoint from a different campaign is rejected rather than silently
   blended in. *)

let format_tag = "druzhba-campaign-checkpoint"
let version = 2

(* Everything a checkpoint's trial records depend on.  Two campaigns with
   equal signatures derive identical per-trial seeds, draw identical
   programs and traffic, and judge them identically — which is exactly the
   condition under which resuming from the file is sound.  [sg_jobs] is
   deliberately absent: job count never affects results. *)
type signature = {
  sg_substrate : string; (* a substrate-registry name: "rmt", "drmt", "all", "native", ... *)
  sg_master_seed : int;
  sg_trials : int;
  sg_phvs : int;
  sg_shrink : bool;
  sg_max_probes : int;
  sg_fuel : int; (* per-trial tick budget; 0 = unlimited *)
  sg_max_failures : int; (* circuit breaker; 0 = disabled *)
  sg_fault_runs : int; (* fault scenarios per trial; 0 = fault mode off *)
  sg_faults_per_run : int;
}

let signature_equal (a : signature) (b : signature) = a = b

type t = {
  ck_signature : signature;
  ck_completed : (int * int) list; (* inclusive index ranges, ascending *)
  ck_records : Report.t list; (* non-default trials, in index order *)
}

(* Length of the contiguous completed prefix starting at trial 0 — the
   index the resumed run continues from. *)
let completed_prefix t =
  List.fold_left
    (fun prefix (lo, hi) -> if lo <= prefix && hi >= prefix then hi + 1 else prefix)
    0 t.ck_completed

(* --- Encoding --------------------------------------------------------------- *)

let json_of_signature (s : signature) : Report.t =
  Report.Obj
    [
      ("substrate", Report.Str s.sg_substrate);
      ("master_seed", Report.Int s.sg_master_seed);
      ("trials", Report.Int s.sg_trials);
      ("phvs", Report.Int s.sg_phvs);
      ("shrink", Report.Bool s.sg_shrink);
      ("max_probes", Report.Int s.sg_max_probes);
      ("fuel", Report.Int s.sg_fuel);
      ("max_failures", Report.Int s.sg_max_failures);
      ("fault_runs", Report.Int s.sg_fault_runs);
      ("faults_per_run", Report.Int s.sg_faults_per_run);
    ]

let to_json (t : t) : Report.t =
  Report.Obj
    [
      ("format", Report.Str format_tag);
      ("version", Report.Int version);
      ("signature", json_of_signature t.ck_signature);
      ( "completed",
        Report.List
          (List.map (fun (lo, hi) -> Report.List [ Report.Int lo; Report.Int hi ]) t.ck_completed)
      );
      ("records", Report.List t.ck_records);
    ]

(* Atomic write: tmp file, fsync, rename, fsync of the containing
   directory.  The mechanism lives in {!Druzhba_util.Atomic_file} (the
   native substrate's build cache shares it); this re-export keeps the
   historical entry point that the service job store and the CLI's
   --report writer go through. *)

let atomic_write_string = Druzhba_util.Atomic_file.atomic_write_string

let save path (t : t) = atomic_write_string path (Report.to_string (to_json t) ^ "\n")

(* --- Decoding --------------------------------------------------------------- *)

exception Bad of string

let need msg = function Some v -> v | None -> raise (Bad msg)

let field obj key conv =
  need
    (Printf.sprintf "checkpoint field %S missing or mistyped" key)
    (Option.bind (Report.member key obj) conv)

let signature_of_json j : signature =
  {
    sg_substrate = field j "substrate" Report.to_str;
    sg_master_seed = field j "master_seed" Report.to_int;
    sg_trials = field j "trials" Report.to_int;
    sg_phvs = field j "phvs" Report.to_int;
    sg_shrink = field j "shrink" Report.to_bool;
    sg_max_probes = field j "max_probes" Report.to_int;
    sg_fuel = field j "fuel" Report.to_int;
    sg_max_failures = field j "max_failures" Report.to_int;
    sg_fault_runs = field j "fault_runs" Report.to_int;
    sg_faults_per_run = field j "faults_per_run" Report.to_int;
  }

let of_json (j : Report.t) : t =
  (match Report.member "format" j with
  | Some (Report.Str tag) when tag = format_tag -> ()
  | _ -> raise (Bad "not a druzhba campaign checkpoint"));
  (match Report.member "version" j with
  | Some (Report.Int v) when v = version -> ()
  | Some (Report.Int v) ->
    raise (Bad (Printf.sprintf "unsupported checkpoint version %d (expected %d)" v version))
  | _ -> raise (Bad "checkpoint version missing"));
  let signature =
    signature_of_json (need "checkpoint signature missing" (Report.member "signature" j))
  in
  let completed =
    field j "completed" Report.to_list
    |> List.map (function
         | Report.List [ Report.Int lo; Report.Int hi ] when 0 <= lo && lo <= hi -> (lo, hi)
         | _ -> raise (Bad "malformed completed range"))
  in
  let records = field j "records" Report.to_list in
  { ck_signature = signature; ck_completed = completed; ck_records = records }

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
    match Report.parse src with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok j -> ( try Ok (of_json j) with Bad msg -> Error (Printf.sprintf "%s: %s" path msg)))
